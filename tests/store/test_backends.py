"""Frame-store conformance: the contract every store root honours.

The store keeps its objects as files under a local directory; this
parametrized suite drives an :class:`ObjectStore` at such a root
through the frame-store contract (miss semantics, write-once puts,
idempotent deletes, stats).
"""

from __future__ import annotations

import pytest

from repro.store.objstore import ObjectStore, frame_object

MISSING_KEY = "deadbeef" * 4

STORE_KINDS = ["local"]


@pytest.fixture(params=STORE_KINDS)
def backend(request, tmp_path):
    return ObjectStore(tmp_path / request.param)


class TestConformance:
    def test_missing_key_raises_keyerror(self, backend):
        with pytest.raises(KeyError):
            backend.get_frame(MISSING_KEY)
        with pytest.raises(KeyError):
            backend.get(MISSING_KEY)
        assert MISSING_KEY not in backend

    def test_overwrite_false_skips_existing(self, backend):
        key = backend.put(b"hello, frames")
        assert backend.put_keyed(key, b"other", overwrite=False) == key
        assert backend.get_frame(key) == frame_object(b"hello, frames")
        assert backend.get(key) == b"hello, frames"

    def test_delete_is_idempotent(self, backend):
        key = backend.put(b"hello, frames")
        assert backend.delete(key) is True
        assert backend.delete(key) is False
        assert key not in backend
        assert backend.delete(MISSING_KEY) is False

    def test_stats_reports_objects_and_bytes(self, backend):
        backend.put(b"stats payload")
        stats = backend.stats()
        assert stats["objects"] == 1
        assert stats["bytes"] == len(frame_object(b"stats payload"))
        assert stats["root"] == str(backend.root)
