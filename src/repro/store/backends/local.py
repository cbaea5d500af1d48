"""The pathsliced on-disk backend (and the store's two write disciplines).

The original ``repro.store`` layout, refactored to conform to the
:class:`~repro.store.backends.base.Backend` interface: frames live
under a two-level fan-out (``root/ab/cd/abcd...``) named by their hex
key, and every write is atomic — a temp file in the destination
directory is populated, fsynced, ``os.replace``-d into place, and the
parent directory entry fsynced, so readers observe old bytes or new
bytes, never a mixture, across power loss (reprolint REP401 checks
the ordering statically).  :func:`durable_append` is the second
discipline, for the sweep journal's append-only log.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

from repro.store.backends.base import Backend, check_key

__all__ = ["LocalBackend", "atomic_write", "durable_append"]


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
    mixture.  The sweep checkpoint journal creates its file through
    this helper (enforced statically by reprolint REP402).
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


def _is_object_name(name):
    """True for fan-out object filenames (hex, no temp suffix)."""
    hex_digits = set("0123456789abcdef")
    return len(name) >= 6 and not name.endswith(".tmp") and set(name) <= hex_digits


class LocalBackend(Backend):
    """Sharded, atomic-write, fsync-disciplined directory of frames."""

    kind = "local"

    def __init__(self, root):
        super().__init__()
        self.root = Path(root)

    def describe(self):
        return str(self.root)

    def path_for(self, key):
        """On-disk path of ``key`` (two-level fan-out)."""
        key = check_key(key)
        return self.root / key[:2] / key[2:4] / key

    def sub(self, namespace):
        return LocalBackend(self.root / namespace)

    # -- hooks --------------------------------------------------------------

    def _get_frame(self, key):
        try:
            return self.path_for(key).read_bytes()
        except FileNotFoundError:
            raise KeyError(key) from None

    def _put_frame(self, key, frame):
        atomic_write(self.path_for(key), frame)

    def _delete(self, key):
        try:
            self.path_for(key).unlink()
        except FileNotFoundError:
            # Idempotent under concurrent eviction: the loser of the
            # race (including a fan-out directory removed underneath
            # it) observes the object already gone.
            return False
        return True

    def _contains(self, key):
        return self.path_for(key).exists()

    def _keys(self):
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

    def _size(self, key):
        try:
            return self.path_for(key).stat().st_size
        except FileNotFoundError:
            raise KeyError(key) from None
