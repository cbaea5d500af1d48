"""Content-addressed object store with self-checking objects.

Every stored object carries an **integrity trailer** computed with one
of the check codes the paper studies (CRC-32/AAL5 by default, any
:mod:`repro.checksums.registry` algorithm by name).  The store thereby
dogfoods its own subject matter: a flipped bit in a cached artifact is
caught the same way a corrupted AAL5 frame would be.

:class:`ObjectStore` is one directory of integrity-trailed frames
(:mod:`repro.store.framing`): each object is a file under a two-level
fan-out (``root/ab/cd/abcd...``) named by its hex key, framed on write
and verified on read.

Addresses are either the SHA-256 of the payload (:meth:`ObjectStore.put`
— true content addressing) or a caller-chosen hex key
(:meth:`ObjectStore.put_keyed` — used by the result cache, whose keys
are digests of experiment *parameters* rather than of the payload).

The store's two write disciplines live here too: :func:`atomic_write`
for every object, and :func:`durable_append` for the sweep journal's
append-only log.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import time
from pathlib import Path

from repro.checksums.registry import get_algorithm
from repro.store.framing import (  # noqa: F401 - re-exports
    DEFAULT_ALGORITHM,
    IntegrityError,
    frame_object,
    unframe_object,
    verify_frame,
)
from repro.telemetry.core import current as _telemetry

__all__ = [
    "DEFAULT_ALGORITHM",
    "IntegrityError",
    "ObjectStore",
    "atomic_write",
    "default_root",
    "durable_append",
]

#: Environment variable overriding the default store root.
ROOT_ENV_VAR = "REPRO_CHECKSUMS_CACHE"

_HEX_DIGITS = frozenset("0123456789abcdef")


def default_root():
    """The store root: ``$REPRO_CHECKSUMS_CACHE`` or ``~/.cache/repro-checksums``."""
    env = os.environ.get(ROOT_ENV_VAR)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro-checksums"


def _fsync_dir(path):
    """Best-effort fsync of a directory (making renames durable).

    Platforms without ``O_DIRECTORY`` (or filesystems refusing
    directory fsync) degrade silently — the write is still atomic,
    just not guaranteed durable across power loss.
    """
    flags = getattr(os, "O_DIRECTORY", None)
    if flags is None:  # pragma: no cover - non-POSIX platforms
        return
    try:
        fd = os.open(path, os.O_RDONLY | flags)
    except OSError:  # pragma: no cover - directory vanished / no perms
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs refuses directory fsync
        pass
    finally:
        os.close(fd)


def atomic_write(path, blob):
    """The store's atomic-write discipline, reusable outside the store.

    A temp file in the destination directory is populated, flushed,
    and fsynced, then ``os.replace``-d into place, and the parent
    directory entry is fsynced so a power cut can neither resurrect a
    half-written file nor forget a fully-written one ever had a name.
    Readers therefore observe the old bytes or the new bytes, never a
    mixture (reprolint REP401 checks the ordering statically).  The
    sweep checkpoint journal creates its file through this helper
    (enforced statically by reprolint REP402).
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    # Crash durability: the rename itself lives in the directory
    # entry, so fsync the parent too — otherwise a power cut can
    # forget a fully-fsynced object ever had a name.
    _fsync_dir(path.parent)


def durable_append(path, blob):
    """Append ``blob`` to the file at ``path`` and fsync it.

    The sweep journal's second write discipline, beside
    :func:`atomic_write` (which creates the file, so its directory
    entry is already durable): one write and one fsync make the new
    bytes durable.  A kill mid-append can tear only the bytes being
    appended; the journal's records are self-delimiting and
    trailer-checked, so a reader keeps every record before the tear.
    """
    with open(path, "ab") as handle:
        handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())


def _check_key(key):
    """``key`` lowercased; ``ValueError`` unless it is hex, 6+ digits.

    Every entry point passes through here before a key becomes a
    path, so no key can climb out of the root (``../../etc/passwd``).
    """
    key = key.lower()
    if len(key) < 6 or not _HEX_DIGITS.issuperset(key):
        raise ValueError("store keys must be hex strings, got %r" % key)
    return key


def _is_object_name(name):
    """True for fan-out object filenames (hex, no temp suffix)."""
    return len(name) >= 6 and _HEX_DIGITS.issuperset(name)


class ObjectStore:
    """Integrity-trailed payloads in a fan-out directory under ``root``."""

    def __init__(self, root=None, algorithm=DEFAULT_ALGORITHM):
        self.root = Path(root) if root is not None else default_root()
        self.algorithm = algorithm
        get_algorithm(algorithm)  # fail fast on unknown names

    # -- addressing -------------------------------------------------------

    @staticmethod
    def address(payload):
        """The content address (SHA-256 hex) of ``payload``."""
        return hashlib.sha256(payload).hexdigest()

    def path_for(self, digest):
        """On-disk path of ``digest`` (two-level fan-out)."""
        key = _check_key(digest)
        return self.root / key[:2] / key[2:4] / key

    # -- write ------------------------------------------------------------

    def put(self, payload):
        """Store ``payload`` content-addressed; return its digest."""
        digest = self.address(payload)
        self.put_keyed(digest, payload, overwrite=False)
        return digest

    def put_keyed(self, key, payload, overwrite=True):
        """Store ``payload`` under the caller-chosen hex ``key``.

        Keyed entries (cache results, shards) are overwritten by
        default; content-addressed :meth:`put` skips the write when the
        object already exists (identical payload by construction).
        """
        telemetry = _telemetry()
        t0 = time.perf_counter()
        path = self.path_for(key)
        if not overwrite and path.exists():
            return key
        atomic_write(path, frame_object(bytes(payload), self.algorithm))
        telemetry.count("store.puts")
        telemetry.meter("store.put_bytes", len(payload))
        telemetry.observe("store.put_seconds", time.perf_counter() - t0)
        return key

    # -- read -------------------------------------------------------------

    def get(self, digest, verify=True):
        """Return the payload stored at ``digest``.

        Raises :class:`KeyError` if absent and :class:`IntegrityError`
        if the integrity trailer does not verify.
        """
        telemetry = _telemetry()
        t0 = time.perf_counter()
        payload, _ = unframe_object(self.get_frame(digest), verify=verify)
        telemetry.count("store.gets")
        telemetry.meter("store.get_bytes", len(payload))
        telemetry.observe("store.get_seconds", time.perf_counter() - t0)
        return payload

    def get_frame(self, digest):
        """The raw stored frame (trailer included); ``KeyError`` if absent.

        For integrity tooling (the audit) that needs the trailer
        bytes themselves; payload readers use :meth:`get`.
        """
        try:
            return self.path_for(digest).read_bytes()
        except FileNotFoundError:
            raise KeyError(digest) from None

    def __contains__(self, digest):
        return self.path_for(digest).exists()

    def __iter__(self):
        return self.digests()

    def digests(self):
        """Iterate over every stored address (sorted for determinism)."""
        if not self.root.is_dir():
            return
        for first in sorted(self.root.iterdir()):
            if not first.is_dir() or len(first.name) != 2:
                continue
            for second in sorted(first.iterdir()):
                if not second.is_dir():
                    continue
                for path in sorted(second.iterdir()):
                    if path.is_file() and _is_object_name(path.name):
                        yield path.name

    def __len__(self):
        return sum(1 for _ in self.digests())

    # -- maintenance ------------------------------------------------------

    def delete(self, digest):
        """Remove ``digest``; True if *this call* removed it.

        Idempotent under concurrent eviction: when two processes race
        to evict the same corrupt shard, the loser (including one whose
        fan-out directory was removed underneath it) observes the
        object already gone and reports False instead of raising.
        """
        try:
            self.path_for(digest).unlink()
        except FileNotFoundError:
            return False
        return True

    def clear(self):
        """Delete every object (leaves any directory tree in place)."""
        removed = 0
        for digest in list(self.digests()):
            removed += bool(self.delete(digest))
        return removed

    def stats(self):
        """``{"root", "objects", "bytes"}`` for status displays."""
        objects = size = 0
        for digest in self.digests():
            objects += 1
            try:
                size += self.path_for(digest).stat().st_size
            except FileNotFoundError:  # pragma: no cover - concurrent eviction
                continue
        return {"root": str(self.root), "objects": objects, "bytes": size}
