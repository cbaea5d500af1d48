"""Backend conformance: every implementation honours the same contract.

One parametrized suite drives the local backend through the
frame-store contract (roundtrip, miss semantics, namespacing,
counters, deterministic key walks).
"""

from __future__ import annotations

import hashlib

import pytest

from repro.store.backends.base import check_key
from repro.store.backends.local import LocalBackend
from repro.store.framing import frame_object, unframe_object


def key_for(payload):
    return hashlib.sha256(payload).hexdigest()


def make_frame(payload=b"hello, frames"):
    return key_for(payload), frame_object(payload)


BACKEND_KINDS = ["local"]


@pytest.fixture(params=BACKEND_KINDS)
def backend(request, tmp_path):
    return LocalBackend(tmp_path / request.param)


class TestConformance:
    def test_roundtrip_preserves_frames(self, backend):
        key, frame = make_frame()
        assert backend.put_frame(key, frame)
        assert backend.get_frame(key) == frame
        payload, algorithm = unframe_object(backend.get_frame(key))
        assert payload == b"hello, frames"
        assert algorithm == "crc32-aal5"

    def test_missing_key_raises_keyerror(self, backend):
        with pytest.raises(KeyError):
            backend.get_frame("deadbeef" * 4)
        assert not backend.contains("deadbeef" * 4)

    def test_overwrite_false_skips_existing(self, backend):
        key, frame = make_frame()
        assert backend.put_frame(key, frame)
        assert backend.put_frame(key, frame, overwrite=False) is False

    def test_delete_is_idempotent(self, backend):
        key, frame = make_frame()
        backend.put_frame(key, frame)
        assert backend.delete(key) is True
        assert backend.delete(key) is False
        assert not backend.contains(key)

    def test_keys_walk_is_sorted(self, backend):
        keys = []
        for i in range(8):
            key, frame = make_frame(b"payload-%d" % i)
            backend.put_frame(key, frame)
            keys.append(key)
        assert list(backend.keys()) == sorted(keys)
        assert set(iter(backend)) == set(keys)

    def test_size_matches_frame_length(self, backend):
        key, frame = make_frame(b"sized payload")
        backend.put_frame(key, frame)
        assert backend.size(key) == len(frame)
        with pytest.raises(KeyError):
            backend.size("deadbeef" * 4)

    def test_namespaces_are_isolated(self, backend):
        key, frame = make_frame(b"namespaced")
        objects = backend.sub("objects")
        shards = backend.sub("shards")
        objects.put_frame(key, frame)
        assert objects.contains(key)
        assert not shards.contains(key)
        with pytest.raises(KeyError):
            shards.get_frame(key)

    def test_invalid_keys_are_rejected(self, backend):
        for bad in ("../../etc/passwd", "short", "NOTHEX!", "a" * 5):
            with pytest.raises(ValueError):
                backend.get_frame(bad)

    def test_counters_track_operations(self, backend):
        key, frame = make_frame(b"counted")
        backend.put_frame(key, frame)
        backend.get_frame(key)
        with pytest.raises(KeyError):
            backend.get_frame("deadbeef" * 4)
        counters = backend.counters
        assert counters.puts == 1
        assert counters.gets == 2
        assert counters.hits == 1
        assert counters.misses == 1
        assert counters.bytes_written == len(frame)
        assert counters.bytes_read == len(frame)

    def test_stats_reports_objects_and_bytes(self, backend):
        key, frame = make_frame(b"stats payload")
        backend.put_frame(key, frame)
        stats = backend.stats()
        assert stats["objects"] == 1
        assert stats["bytes"] == len(frame)
        assert stats["backend"]


def test_key_check_normalizes_case():
    assert check_key("DEADBEEF") == "deadbeef"
