"""The result cache: canonical keys -> JSON-serialized results.

A thin, counting layer over :class:`repro.store.objstore.ObjectStore`.
Lookups have exactly three outcomes, and all of them are safe:

* **hit** -- the stored frame verified its integrity trailer and
  deserialized; the caller gets a result bit-identical to a cold run;
* **miss** -- nothing stored under the key; the caller recomputes;
* **corrupt** -- the trailer (one of the paper's own check codes)
  rejected the frame, or deserialization failed; the entry is evicted
  and the caller recomputes.  Graceful degradation: corruption can
  cost time, never correctness.
"""

from __future__ import annotations

import json

from repro.store.objstore import IntegrityError
from repro.telemetry.core import current as _telemetry

__all__ = ["CacheStats", "ResultCache"]


class CacheStats:
    """Mutable hit/miss/corrupt/put counters surfaced to callers."""

    __slots__ = ("hits", "misses", "corrupt", "puts")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.puts = 0

    def as_dict(self):
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "puts": self.puts,
        }

    def __repr__(self):
        return "CacheStats(hits=%d, misses=%d, corrupt=%d, puts=%d)" % (
            self.hits, self.misses, self.corrupt, self.puts,
        )


class ResultCache:
    """Map canonical keys to JSON documents stored with integrity trailers."""

    def __init__(self, store):
        self.store = store
        self.stats = CacheStats()

    # -- raw bytes ---------------------------------------------------------

    def get_bytes(self, key):
        """The stored payload, or None on miss/corruption (evicting)."""
        try:
            payload = self.store.get(key)
        except KeyError:
            self.stats.misses += 1
            _telemetry().count("cache.misses")
            return None
        except IntegrityError:
            self.evict(key)
            return None
        self.stats.hits += 1
        _telemetry().count("cache.hits")
        return payload

    def put_bytes(self, key, payload):
        self.store.put_keyed(key, payload)
        self.stats.puts += 1
        _telemetry().count("cache.puts")
        return key

    def evict(self, key):
        """Drop a corrupt entry so the next lookup recomputes it."""
        self.store.delete(key)
        self.stats.corrupt += 1
        _telemetry().count("cache.corrupt")

    # -- JSON documents ----------------------------------------------------

    def get_json(self, key):
        """The stored JSON value, or None on miss/corruption."""
        payload = self.get_bytes(key)
        if payload is None:
            return None
        try:
            return json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            # The trailer passed but the document does not parse -- a
            # writer bug or schema drift; treat exactly like corruption.
            self.stats.hits -= 1
            self.evict(key)
            return None

    def put_json(self, key, value):
        return self.put_bytes(
            key, json.dumps(value, sort_keys=True).encode("utf-8")
        )

    # -- typed helpers -----------------------------------------------------

    def get_object(self, key, from_json):
        """Deserialize via ``from_json(text)``; None on miss/corruption."""
        return self.get_decoded(
            key, lambda payload: from_json(payload.decode("utf-8"))
        )

    def get_decoded(self, key, decode):
        """``decode(payload)``; None on miss/corruption.

        A payload whose trailer passes but which ``decode`` rejects (by
        raising) is a writer bug or schema drift: it is evicted like
        corruption.
        """
        payload = self.get_bytes(key)
        if payload is None:
            return None
        try:
            return decode(payload)
        except Exception:
            self.stats.hits -= 1
            self.evict(key)
            return None

    def put_object(self, key, obj):
        """Store ``obj`` via its ``to_json()`` method."""
        return self.put_bytes(key, obj.to_json().encode("utf-8"))
