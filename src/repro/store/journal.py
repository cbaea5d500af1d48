"""Crash-safe shard journal: the shards a sweep computed but no store kept.

A sweep with a :class:`~repro.store.runner.RunStore` checkpoints itself
through the store's shard cache: every computed shard is one durable
shard object, and a resumed run is served from it.  The journal covers
what that cache does not keep -- every shard of a store-less sweep
(a plain ``repro-checksums splice``), a shard whose write the store
refused, and everything after the run was demoted to store-less -- so
each computed shard costs exactly one durable write, the shard object
or one journal record.

The file is an append-only log: one header record (schema, sweep
**fingerprint**, label, shard total) followed by one record per shard,
each ``length(4, big-endian) || frame``, where the frame is the
store's integrity-trailed JSON (:func:`~repro.store.objstore.frame_object`)
of the shard key and its counters.

Contract:

* the fingerprint is the sweep's :func:`~repro.store.runner.run_key_for`
  identity -- a digest over the corpus content, the packetizer/engine
  configuration, the result schema and the code.  ``--resume`` loads
  the journal **only** when the stored fingerprint matches the sweep
  about to run; a mismatch discards it with one warning -- stale
  checkpoints are never merged;
* the first write of a run creates the file whole through
  :func:`~repro.store.objstore.atomic_write` (so does the first
  write after ``--resume``: a torn tail never has new records behind
  it), and every later record is appended and fsynced by
  :func:`~repro.store.objstore.durable_append` -- statically
  enforced by reprolint REP402;
* a reader keeps the records before the first torn or failing one, so
  a kill mid-append costs that one shard; a bad header (torn, failed
  trailer, garbage JSON) or schema drift degrades to "no journal";
* :meth:`ShardJournal.complete` deletes the file, and a sweep whose
  store kept every shard never writes it, so a journal on disk always
  means "this sweep was interrupted here".

Resuming merges journaled counters into the same deterministic
first-seen-key order the sharded runner uses, so a resumed sweep is
bit-identical to an uninterrupted one, at any ``--workers`` width.
"""

from __future__ import annotations

import json
import re
import struct
import warnings
from pathlib import Path

from repro.store.keys import SCHEMA_VERSION
from repro.store.objstore import (
    DEFAULT_ALGORITHM,
    IntegrityError,
    atomic_write,
    default_root,
    durable_append,
    frame_object,
    verify_frame,
)
from repro.telemetry.core import current as _telemetry

__all__ = ["ShardJournal", "default_journal_dir", "journal_path", "open_journal"]

_SLUG_RE = re.compile(r"[^A-Za-z0-9._-]+")

#: The length prefix that makes every record self-delimiting.
_LENGTH = struct.Struct(">I")


def default_journal_dir(root=None):
    """The journal directory under a store root (``<root>/journal``)."""
    base = Path(root) if root is not None else default_root()
    return base / "journal"


def _slug(text, limit=80):
    """A filesystem-safe slug of a sweep label (never dot-leading)."""
    slug = _SLUG_RE.sub("-", str(text)).strip("-.") or "sweep"
    return slug[:limit]


def journal_path(journal_dir, filesystem_name, config):
    """The stable journal path of one sweep *label*.

    Named by the coarse identity (corpus label, algorithm, placement)
    rather than the full fingerprint, so rerunning the "same" sweep
    over changed bytes or options finds the stale journal and lets the
    fingerprint check discard it loudly instead of silently starting a
    second file.
    """
    placement = getattr(getattr(config, "placement", None), "value", "na")
    label = "%s-%s-%s" % (
        filesystem_name, getattr(config, "algorithm", "na"), placement,
    )
    return Path(journal_dir) / (_slug(label) + ".journal")


def open_journal(root=None, filesystem_name="sweep", config=None):
    """A :class:`ShardJournal` under ``<root>/journal`` for one sweep."""
    return ShardJournal(
        journal_path(default_journal_dir(root), filesystem_name, config)
    )


class ShardJournal:
    """One sweep's checkpoint log: a header, then one record per shard."""

    #: Bump when the journal payload layout changes; old journals are
    #: then discarded as stale rather than misread.
    SCHEMA = SCHEMA_VERSION

    def __init__(self, path, algorithm=DEFAULT_ALGORITHM):
        self.path = Path(path)
        self.algorithm = algorithm
        self._fingerprint = None
        self._label = ""
        self._total = 0
        self._entries = {}
        #: Keys recorded since the last flush.
        self._unwritten = []
        #: Whether this run has written the file (header included).
        self._created = False

    # -- lifecycle ----------------------------------------------------------

    def open_run(self, fingerprint, label="", total=0, resume=False,
                 codec=None):
        """Bind the journal to one sweep; return the resumable counters.

        With ``resume``, a stored journal whose header matches
        ``fingerprint`` yields the ``{shard_key: counters}`` map of its
        intact records; a mismatched or defective journal is discarded
        (with a warning on a fingerprint mismatch) and an empty map is
        returned.  Without ``resume`` the journal always starts empty
        (its first write replaces any leftover file).  Either way the
        run's first write rewrites the file whole.

        ``codec`` is the counters class used to revive entries
        (anything with ``from_dict``/``to_dict``); it defaults to
        :class:`~repro.core.results.SpliceCounters`, and the channel
        sweeps pass :class:`~repro.channel.arq.ChannelReport`.
        """
        if codec is None:
            from repro.core.results import SpliceCounters as codec

        self._fingerprint = fingerprint
        self._label = label
        self._total = total
        self._entries = {}
        self._unwritten = []
        self._created = False
        if not resume:
            return {}
        records = self._read_records()
        if records is None:
            return {}
        header = records[0] if records else None
        if not isinstance(header, dict) or header.get("schema") != self.SCHEMA:
            self.discard()
            return {}
        if header.get("fingerprint") != fingerprint:
            _telemetry().count("checkpoint.stale_journals")
            warnings.warn(
                "stale sweep journal %s: fingerprint mismatch (the corpus, "
                "configuration, or algorithm set changed since it was "
                "written); discarding it and restarting the sweep"
                % self.path,
                RuntimeWarning,
                stacklevel=3,
            )
            self.discard()
            return {}
        for position, record in enumerate(records[1:], 1):
            try:
                self._entries[record["key"]] = codec.from_dict(
                    record["counters"]
                )
            except (KeyError, TypeError, ValueError):
                warnings.warn(
                    "defective sweep journal %s: record %d failed to "
                    "parse; resuming from the %d records before it"
                    % (self.path, position, len(self._entries)),
                    RuntimeWarning,
                    stacklevel=3,
                )
                break
        return dict(self._entries)

    def record(self, shard_key, counters):
        """Checkpoint one shard the store did not keep (one durable write)."""
        self._entries[shard_key] = counters
        self._unwritten.append(shard_key)
        self.flush()

    def flush(self):
        """Make every recorded shard durable.

        The run's first flush creates the file whole -- header and every
        entry -- through ``atomic_write``; later flushes append only the
        records written since, through ``durable_append``.
        """
        if self._created and not self._unwritten:
            return
        telemetry = _telemetry()
        with telemetry.span("journal.flush"):
            if self._created:
                durable_append(self.path, b"".join(
                    self._shard(key) for key in self._unwritten
                ))
            else:
                atomic_write(self.path, b"".join(
                    [self._header()] + [self._shard(key) for key in self._entries]
                ))
                self._created = True
            self._unwritten = []
        telemetry.count("checkpoint.journal_writes")

    def complete(self):
        """The sweep finished: a journal on disk means 'interrupted'."""
        self.discard()

    def discard(self):
        """Remove the journal file (idempotent)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass

    # -- introspection ------------------------------------------------------

    @property
    def done(self):
        """Shards the journal holds (resumed + recorded)."""
        return len(self._entries)

    @property
    def total(self):
        """Total unique shards of the bound sweep."""
        return self._total

    def exists(self):
        return self.path.is_file()

    # -- wire format --------------------------------------------------------

    def _frame(self, payload):
        """One self-delimiting record: length prefix + trailed JSON frame."""
        frame = frame_object(
            json.dumps(payload, sort_keys=True, separators=(",", ":"))
            .encode("utf-8"),
            self.algorithm,
        )
        return _LENGTH.pack(len(frame)) + frame

    def _header(self):
        return self._frame({
            "schema": self.SCHEMA,
            "fingerprint": self._fingerprint,
            "label": self._label,
            "total": self._total,
        })

    def _shard(self, key):
        return self._frame({
            "key": key, "counters": self._entries[key].to_dict(),
        })

    def _read_records(self):
        """The decoded records before the first torn or failing one.

        None when the file is missing or unreadable.  A record fails
        when its length runs past the end of the file (a torn append),
        its trailer does not verify, or its payload is not JSON.
        """
        try:
            blob = self.path.read_bytes()
        except OSError:
            return None
        records = []
        offset = 0
        while offset + _LENGTH.size <= len(blob):
            (length,) = _LENGTH.unpack_from(blob, offset)
            start = offset + _LENGTH.size
            if start + length > len(blob):
                break
            try:
                records.append(json.loads(
                    verify_frame(blob[start:start + length]).decode("utf-8")
                ))
            except (IntegrityError, UnicodeDecodeError, ValueError):
                break
            offset = start + length
        return records
