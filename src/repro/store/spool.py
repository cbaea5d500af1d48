"""Degraded-mode write spool: PUTs outlive a total replica outage.

When every remote replica of a multiplexer is open-circuit, writes
would otherwise be dropped on the floor (the old behaviour: six store
errors and the run demotes to store-less, losing everything computed
afterwards).  The spool is the local half of a store-and-forward
queue:

* each spooled PUT is the **frame itself** — already integrity-trailed
  bytes — written at ``<spool>/<namespace>/<key>`` through the store's
  :func:`~repro.store.backends.local.atomic_write` discipline (write,
  fsync, rename, directory fsync), so a crash mid-spool tears nothing;
* :func:`drain_spool` replays entries with **idempotent PUT**
  semantics (frames are content-addressed; a re-upload of the same key
  overwrites with identical bytes), verifying each frame's trailer
  before letting it back onto the wire and leaving any corrupt entry
  in place for post-mortem;
* the sweep runner drains opportunistically at end-of-sweep, and the
  ``store flush-spool`` subcommand drains on demand — a sweep that
  lost its remote store for a window still ends with a complete,
  verified remote cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.store.backends.base import check_key
from repro.store.backends.local import atomic_write
from repro.store.framing import IntegrityError, verify_frame
from repro.telemetry.core import current as _telemetry

__all__ = [
    "SpoolDrainReport",
    "WriteSpool",
    "default_spool_dir",
    "drain_spool",
]


def default_spool_dir(root=None):
    """The spool directory under a store root (``<root>/spool``)."""
    if root is None:
        from repro.store.objstore import default_root

        root = default_root()
    return Path(root) / "spool"


@dataclass
class SpoolDrainReport:
    """Outcome of one :func:`drain_spool` pass."""

    replayed: int = 0
    corrupt: int = 0
    failed: int = 0
    remaining: int = 0
    #: ``(namespace, key, outcome)`` per entry, walk order.
    entries: list = field(default_factory=list)

    @property
    def clean(self):
        """True when the spool is empty after the pass."""
        return self.remaining == 0

    def render(self):
        lines = [
            "spool replayed     %d" % self.replayed,
            "spool corrupt      %d" % self.corrupt,
            "spool failed       %d" % self.failed,
            "spool remaining    %d" % self.remaining,
        ]
        for namespace, key, outcome in self.entries:
            if outcome != "replayed":
                lines.append(
                    "  %s %s/%s" % (outcome.upper(), namespace, key[:16])
                )
        return "\n".join(lines)


class WriteSpool:
    """A local, integrity-trailed, crash-safe queue of unsent PUTs."""

    def __init__(self, directory):
        self.root = Path(directory)

    def describe(self):
        return "spool(%s)" % self.root

    # -- writing -------------------------------------------------------------

    def put(self, namespace, key, frame):
        """Spool one frame (atomic write; idempotent per key)."""
        key = check_key(key)
        path = self.root / namespace / key
        atomic_write(path, bytes(frame))
        _telemetry().count("resilience.spool.spooled")
        return path

    def get(self, namespace, key):
        """The spooled frame, **verified**; ``KeyError`` when absent."""
        path = self.root / namespace / check_key(key)
        try:
            frame = path.read_bytes()
        except FileNotFoundError:
            raise KeyError(key) from None
        verify_frame(frame)  # never serve rot back into the data plane
        return frame

    def discard(self, namespace, key):
        """Drop a spooled frame a direct write has superseded.

        Keyed namespaces (``results``, ``shards``) overwrite under a
        caller-chosen key: once a post-outage write reaches a replica
        directly, the queued copy is redundant at best, and stale if
        the value changed — replaying it later would roll the remote
        value back.  True when an entry was dropped.
        """
        path = self.root / namespace / check_key(key)
        try:
            path.unlink()
        except OSError:
            return False
        _telemetry().count("resilience.spool.superseded")
        return True

    # -- walking -------------------------------------------------------------

    def entries(self):
        """``(namespace, key, path)`` for every spooled frame, sorted."""
        if not self.root.is_dir():
            return []
        found = []
        for namespace_dir in sorted(self.root.iterdir()):
            if not namespace_dir.is_dir():
                continue
            for path in sorted(namespace_dir.iterdir()):
                if path.is_file():
                    found.append((namespace_dir.name, path.name, path))
        return found

    def count(self):
        return len(self.entries())

    @property
    def empty(self):
        return self.count() == 0

    def stats(self):
        """``{"dir", "entries", "bytes"}`` for status displays."""
        entries = self.entries()
        return {
            "dir": str(self.root),
            "entries": len(entries),
            "bytes": sum(path.stat().st_size for _, _, path in entries),
        }


def drain_spool(backend, spool, health=None):
    """Replay every spooled frame into ``backend``; idempotent.

    ``backend`` is the *top-level* store backend (a multiplexer or a
    single replica); each entry is re-verified, then PUT into every
    replica **directly** — bypassing the breaker/spool layer, so a
    drain can never re-spool its own writes.  Replayed entries are
    unlinked; a frame that fails its trailer stays on disk (corrupt
    evidence beats silent deletion) and counts as ``corrupt``; a frame
    no replica would accept stays too, as ``failed``.
    """
    telemetry = _telemetry()
    report = SpoolDrainReport()
    # Unwrap only a multiplexer (its children are the replicas the
    # breaker layer guards); any other wrapper — fault injectors,
    # read-only filters — must stay in the write path.
    if getattr(backend, "kind", "") == "multiplex":
        children = list(backend.children)
    else:
        children = [backend]
    for namespace, key, path in spool.entries():
        try:
            frame = path.read_bytes()
        except OSError:
            report.failed += 1
            report.entries.append((namespace, key, "failed"))
            continue
        try:
            verify_frame(frame)
        except IntegrityError:
            report.corrupt += 1
            telemetry.count("resilience.spool.corrupt")
            report.entries.append((namespace, key, "corrupt"))
            continue
        stored = 0
        for child in children:
            try:
                child.sub(namespace).put_frame(key, frame)
                stored += 1
            except OSError:
                continue
        if stored:
            path.unlink()
            report.replayed += 1
            telemetry.count("resilience.spool.replayed")
            report.entries.append((namespace, key, "replayed"))
        else:
            report.failed += 1
            report.entries.append((namespace, key, "failed"))
    report.remaining = spool.count()
    if health is not None and report.replayed:
        health.degrade(
            "spool drained: %d queued write(s) replayed to the store"
            % report.replayed
        )
    return report
