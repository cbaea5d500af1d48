"""The formal ``ObjectStore`` backend interface.

A *backend* stores and retrieves **frames** — integrity-trailed byte
strings produced by :func:`repro.store.framing.frame_object` — under
hex keys.  Backends never interpret payloads; verification happens at
the unframe boundary (:meth:`repro.store.objstore.ObjectStore.get`
and the ``cache audit`` walk).

The base class owns the bookkeeping every implementation shares:

* **key hygiene** — keys are lowercase hex, long enough to fan out;
* **per-backend counters** — every operation lands in
  :class:`BackendCounters` *and* is mirrored into the ambient
  telemetry registry as ``backend.<kind>.<metric>`` counters, which is
  what ``repro-checksums cache stats`` and ``--metrics`` surface;
* **namespacing** — :meth:`Backend.sub` derives the per-namespace
  child stores (``objects/``, ``shards/``, ...) a
  :class:`repro.store.runner.RunStore` is built from.

Concrete methods are the public API; subclasses implement the
underscore hooks (``_get_frame`` and friends) so counting and key
validation can never be skipped by a forgetful implementation.
"""

from __future__ import annotations

from repro.telemetry.core import current as _telemetry

__all__ = [
    "Backend",
    "BackendCounters",
    "check_key",
]

_HEX_DIGITS = set("0123456789abcdef")


def check_key(key):
    """Validate and normalize a backend key (lowercase hex string)."""
    key = key.lower()
    if len(key) < 6 or set(key) - _HEX_DIGITS:
        raise ValueError("backend keys must be hex strings, got %r" % key)
    return key


class BackendCounters:
    """Mutable per-backend operation counters (hit/miss/byte accounting)."""

    __slots__ = (
        "gets", "hits", "misses", "puts", "deletes",
        "bytes_read", "bytes_written", "errors",
    )

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def merge(self, other):
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    def __repr__(self):
        parts = ", ".join(
            "%s=%d" % (name, getattr(self, name)) for name in self.__slots__
        )
        return "BackendCounters(%s)" % parts


class Backend:
    """Abstract frame store; subclasses implement the ``_``-hooks."""

    #: Short identifier (``local``).
    kind = "abstract"

    def __init__(self):
        self.counters = BackendCounters()

    # -- identity -----------------------------------------------------------

    def describe(self):
        """Human-readable identity (for a local store, its path)."""
        return self.kind

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self.describe())

    # -- counter plumbing ---------------------------------------------------

    def _record(self, metric, amount=1):
        setattr(self.counters, metric, getattr(self.counters, metric) + amount)
        _telemetry().count("backend.%s.%s" % (self.kind, metric), amount)

    # -- frame I/O (public, counted) ---------------------------------------

    def get_frame(self, key):
        """The stored frame under ``key``; raises ``KeyError`` if absent."""
        key = check_key(key)
        self._record("gets")
        try:
            frame = self._get_frame(key)
        except KeyError:
            self._record("misses")
            raise
        except OSError:
            self._record("errors")
            raise
        self._record("hits")
        self._record("bytes_read", len(frame))
        return frame

    def put_frame(self, key, frame, overwrite=True):
        """Store ``frame`` under ``key``; False if skipped (exists)."""
        key = check_key(key)
        if not overwrite and self.contains(key):
            return False
        self._record("puts")
        self._record("bytes_written", len(frame))
        try:
            self._put_frame(key, bytes(frame))
        except OSError:
            self._record("errors")
            raise
        return True

    def delete(self, key):
        """Remove ``key``; True iff *this call* removed it."""
        key = check_key(key)
        self._record("deletes")
        try:
            return self._delete(key)
        except OSError:
            self._record("errors")
            raise

    def contains(self, key):
        """True if ``key`` is stored (no integrity implication)."""
        return self._contains(check_key(key))

    def __contains__(self, key):
        return self.contains(key)

    def keys(self):
        """Every stored key, sorted (deterministic walks)."""
        return self._keys()

    def __iter__(self):
        return iter(self.keys())

    def size(self, key):
        """Stored frame size in bytes; raises ``KeyError`` if absent."""
        return self._size(check_key(key))

    def stats(self):
        """``{"backend", "objects", "bytes"}`` for status displays."""
        objects = 0
        size = 0
        for key in sorted(self.keys()):
            objects += 1
            try:
                size += self._size(key)
            except KeyError:  # pragma: no cover - concurrent eviction
                continue
        return {"backend": self.describe(), "objects": objects, "bytes": size}

    # -- composition --------------------------------------------------------

    def sub(self, namespace):
        """A derived backend scoped to ``namespace`` (``objects``, ...)."""
        raise NotImplementedError

    # -- subclass hooks -----------------------------------------------------

    def _get_frame(self, key):
        raise NotImplementedError

    def _put_frame(self, key, frame):
        raise NotImplementedError

    def _delete(self, key):
        raise NotImplementedError

    def _contains(self, key):
        raise NotImplementedError

    def _keys(self):
        raise NotImplementedError

    def _size(self, key):
        raise NotImplementedError
