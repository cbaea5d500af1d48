"""Content-addressed object store with self-checking objects.

Every stored object carries an **integrity trailer** computed with one
of the check codes the paper studies (CRC-32/AAL5 by default, any
:mod:`repro.checksums.registry` algorithm by name).  The store thereby
dogfoods its own subject matter: a flipped bit in a cached artifact is
caught the same way a corrupted AAL5 frame would be.

:class:`ObjectStore` is the *framing* layer: it turns payloads into
integrity-trailed frames (and back, verifying) and delegates frame
storage to a :class:`~repro.store.backends.base.Backend` — the
pathsliced local directory (``root/ab/cd/abcd...``, atomic
fsync-disciplined writes).

Addresses are either the SHA-256 of the payload (:meth:`ObjectStore.put`
— true content addressing) or a caller-chosen hex key
(:meth:`ObjectStore.put_keyed` — used by the result cache, whose keys
are digests of experiment *parameters* rather than of the payload).

The frame format and the atomic-write discipline now live in
:mod:`repro.store.framing` and :mod:`repro.store.backends.local`;
their names are re-exported here for backwards compatibility.
"""

from __future__ import annotations

import hashlib
import os
import time
from pathlib import Path

from repro.checksums.registry import get_algorithm
from repro.store.backends.local import (  # noqa: F401 - re-exports
    LocalBackend,
    _fsync_dir,
    _is_object_name,
    atomic_write,
)
from repro.store.framing import (  # noqa: F401 - re-exports
    DEFAULT_ALGORITHM,
    FRAME_MAGIC,
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
]

#: Environment variable overriding the default store root.
ROOT_ENV_VAR = "REPRO_CHECKSUMS_CACHE"

_MAGIC = FRAME_MAGIC


def default_root():
    """The store root: ``$REPRO_CHECKSUMS_CACHE`` or ``~/.cache/repro-checksums``."""
    env = os.environ.get(ROOT_ENV_VAR)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro-checksums"


class ObjectStore:
    """Integrity-trailed payload storage over a local frame backend."""

    def __init__(self, root=None, algorithm=DEFAULT_ALGORITHM, backend=None):
        if backend is None:
            backend = LocalBackend(
                Path(root) if root is not None else default_root()
            )
        self.backend = backend
        #: The backend's filesystem root.
        self.root = backend.root
        self.algorithm = algorithm
        get_algorithm(algorithm)  # fail fast on unknown names

    # -- addressing -------------------------------------------------------

    @staticmethod
    def address(payload):
        """The content address (SHA-256 hex) of ``payload``."""
        return hashlib.sha256(payload).hexdigest()

    def path_for(self, digest):
        """On-disk path of ``digest``."""
        return self.backend.path_for(digest)

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
        if not overwrite and self.backend.contains(key):
            return key
        self.backend.put_frame(
            key, frame_object(bytes(payload), self.algorithm)
        )
        telemetry.count("store.puts")
        telemetry.meter("store.put_bytes", len(payload))
        telemetry.observe("store.put_seconds", time.perf_counter() - t0)
        return key

    #: Kept as a method for wrappers (the fault injector tears writes
    #: through it); the discipline itself is :func:`atomic_write`.
    _atomic_write = staticmethod(atomic_write)

    # -- read -------------------------------------------------------------

    def get(self, digest, verify=True):
        """Return the payload stored at ``digest``.

        Raises :class:`KeyError` if absent and :class:`IntegrityError`
        if the integrity trailer does not verify.
        """
        telemetry = _telemetry()
        t0 = time.perf_counter()
        blob = self.backend.get_frame(digest)
        payload, _ = unframe_object(blob, verify=verify)
        telemetry.count("store.gets")
        telemetry.meter("store.get_bytes", len(payload))
        telemetry.observe("store.get_seconds", time.perf_counter() - t0)
        return payload

    def get_frame(self, digest):
        """The raw stored frame (trailer included); ``KeyError`` if absent.

        For integrity tooling (the audit) that needs the trailer
        bytes themselves; payload readers use :meth:`get`.
        """
        return self.backend.get_frame(digest)

    def __contains__(self, digest):
        return self.backend.contains(digest)

    def __iter__(self):
        return self.digests()

    def digests(self):
        """Iterate over every stored address (sorted for determinism)."""
        return iter(self.backend.keys())

    def __len__(self):
        return sum(1 for _ in self.digests())

    # -- maintenance ------------------------------------------------------

    def delete(self, digest):
        """Remove ``digest``; True if *this call* removed it.

        Idempotent under concurrent eviction: when two processes race
        to evict the same corrupt shard, the loser observes the object
        already gone and reports False instead of raising.
        """
        return self.backend.delete(digest)

    def clear(self):
        """Delete every object (leaves any directory tree in place)."""
        removed = 0
        for digest in list(self.digests()):
            removed += bool(self.delete(digest))
        return removed

    def total_bytes(self):
        """Total stored bytes of frames."""
        total = 0
        for digest in self.digests():
            try:
                total += self.backend.size(digest)
            except KeyError:  # pragma: no cover - concurrent eviction
                continue
        return total

    def stats(self):
        """Object count and byte totals for status displays."""
        stats = self.backend.stats()
        return {
            "root": stats.get("backend", self.backend.describe()),
            "objects": stats.get("objects", 0),
            "bytes": stats.get("bytes", 0),
        }

    def counters(self):
        """Per-backend operation counters (hit/miss/byte accounting)."""
        return self.backend.counters.as_dict()
