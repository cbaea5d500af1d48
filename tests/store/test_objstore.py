"""Tests for the content-addressed object store and its trailers."""

from __future__ import annotations

import hashlib

import pytest

from repro.store.objstore import (
    IntegrityError,
    ObjectStore,
    default_root,
    frame_object,
    unframe_object,
)


class TestAddressing:
    def test_address_is_sha256(self):
        assert ObjectStore.address(b"abc") == hashlib.sha256(b"abc").hexdigest()

    def test_two_level_fanout_layout(self, cache_root):
        store = ObjectStore()
        digest = store.put(b"payload")
        path = store.path_for(digest)
        assert path.exists()
        assert path.parent.name == digest[2:4]
        assert path.parent.parent.name == digest[:2]
        assert path.parent.parent.parent == store.root

    def test_default_root_honours_env(self, cache_root):
        assert default_root() == cache_root

    def test_rejects_non_hex_addresses(self):
        store = ObjectStore()
        with pytest.raises(ValueError):
            store.path_for("../../etc/passwd")
        with pytest.raises(ValueError):
            store.path_for("zz" * 10)

    @pytest.mark.parametrize("bad", ["../../etc/passwd", "short", "NOTHEX!",
                                     "aaaaa"])
    @pytest.mark.parametrize("entry", [
        lambda store, key: store.get(key),
        lambda store, key: store.get_frame(key),
        lambda store, key: store.put_keyed(key, b"payload"),
        lambda store, key: store.delete(key),
        lambda store, key: key in store,
    ], ids=["get", "get_frame", "put_keyed", "delete", "in"])
    def test_every_entry_point_rejects_bad_keys(self, cache_root, entry, bad):
        store = ObjectStore()
        with pytest.raises(ValueError):
            entry(store, bad)
        assert not cache_root.exists()  # nothing was written anywhere

    def test_upper_case_key_reaches_the_same_object(self):
        store = ObjectStore()
        digest = store.put(b"case-insensitive")
        assert store.get(digest.upper()) == b"case-insensitive"
        assert digest.upper() in store
        assert store.path_for(digest.upper()) == store.path_for(digest)

    def test_stores_under_sibling_roots_are_isolated(self, cache_root):
        objects = ObjectStore(cache_root / "objects")
        shards = ObjectStore(cache_root / "shards")
        digest = objects.put(b"namespaced")
        assert digest in objects
        assert digest not in shards
        with pytest.raises(KeyError):
            shards.get_frame(digest)
        assert list(shards.digests()) == []


class TestRoundTrip:
    def test_put_get(self):
        store = ObjectStore()
        digest = store.put(b"hello world")
        assert store.get(digest) == b"hello world"
        assert digest in store

    def test_missing_raises_keyerror(self):
        store = ObjectStore()
        with pytest.raises(KeyError):
            store.get("ab" * 32)
        with pytest.raises(KeyError):
            store.get_frame("ab" * 32)
        assert "ab" * 32 not in store

    def test_get_frame_returns_the_stored_frame(self):
        store = ObjectStore()
        digest = store.put(b"hello, frames")
        assert store.get_frame(digest) == frame_object(b"hello, frames")
        payload, algorithm = unframe_object(store.get_frame(digest))
        assert (payload, algorithm) == (b"hello, frames", "crc32-aal5")

    def test_empty_payload(self):
        store = ObjectStore()
        digest = store.put(b"")
        assert store.get(digest) == b""

    def test_put_keyed_and_overwrite(self):
        store = ObjectStore()
        key = "cd" * 32
        store.put_keyed(key, b"first")
        store.put_keyed(key, b"second")
        assert store.get(key) == b"second"
        assert store.put_keyed(key, b"third", overwrite=False) == key
        assert store.get_frame(key) == frame_object(b"second")

    def test_iteration_and_len(self):
        store = ObjectStore()
        digests = {store.put(bytes([n]) * 40) for n in range(5)}
        assert set(store.digests()) == digests
        assert len(store) == 5
        listed = list(store.digests())
        assert listed == sorted(listed)

    def test_walk_is_sorted_across_fanout_directories(self):
        store = ObjectStore()
        keys = [prefix + "0" * 60 for prefix in
                ("ffff", "0000", "ab12", "ab01", "7f00", "00ff")]
        for key in keys:
            store.put_keyed(key, b"walked")
        # Stray files are not objects: a temp file and a short name.
        (store.root / "ab" / "12" / "ab12deadbeef.tmp").write_bytes(b"")
        (store.root / "ab" / "12" / "ab1").write_bytes(b"")
        assert list(store.digests()) == sorted(keys)
        assert list(iter(store)) == sorted(keys)

    def test_walk_of_a_missing_root_is_empty(self, cache_root):
        store = ObjectStore(cache_root / "never-written")
        assert list(store.digests()) == []
        assert len(store) == 0

    def test_delete_and_clear(self):
        store = ObjectStore()
        digest = store.put(b"doomed")
        assert store.delete(digest)
        assert not store.delete(digest)
        store.put(b"a")
        store.put(b"b")
        assert store.clear() == 2
        assert len(store) == 0

    def test_stats(self):
        store = ObjectStore()
        payloads = (b"x" * 100, b"stats payload")
        for payload in payloads:
            store.put(payload)
        assert store.stats() == {
            "root": str(store.root),
            "objects": 2,
            "bytes": sum(len(frame_object(p)) for p in payloads),
        }


class TestIntegrityTrailer:
    def test_every_flipped_bit_is_caught(self):
        # CRC-32/AAL5 has Hamming distance >= 2 at this length: *any*
        # single-bit flip anywhere in the frame must be detected.
        blob = frame_object(b"the paper's subject matter", "crc32-aal5")
        for index in range(len(blob)):
            for bit in (0x01, 0x80):
                damaged = bytearray(blob)
                damaged[index] ^= bit
                with pytest.raises(IntegrityError):
                    unframe_object(bytes(damaged))

    def test_get_detects_corruption(self):
        store = ObjectStore()
        digest = store.put(b"precious bytes")
        path = store.path_for(digest)
        blob = bytearray(path.read_bytes())
        blob[3] ^= 0x10
        path.write_bytes(bytes(blob))
        with pytest.raises(IntegrityError):
            store.get(digest)

    def test_verify_false_skips_the_check(self):
        store = ObjectStore()
        digest = store.put(b"precious bytes")
        path = store.path_for(digest)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0x01
        path.write_bytes(bytes(blob))
        assert store.get(digest, verify=False) != b"precious bytes"

    def test_truncated_frame(self):
        with pytest.raises(IntegrityError):
            unframe_object(b"")
        with pytest.raises(IntegrityError):
            unframe_object(b"RCS1")
        blob = frame_object(b"data")
        with pytest.raises(IntegrityError):
            unframe_object(blob[:-1])
        with pytest.raises(IntegrityError):
            unframe_object(blob[5:])

    @pytest.mark.parametrize(
        "algorithm", ["crc32-aal5", "crc16-ccitt", "fletcher256", "adler32", "internet"]
    )
    def test_pluggable_trailer_algorithms(self, algorithm):
        blob = frame_object(b"payload bytes", algorithm)
        payload, name = unframe_object(blob)
        assert payload == b"payload bytes"
        assert name == algorithm
        damaged = bytearray(blob)
        damaged[0] ^= 0xFF
        with pytest.raises(IntegrityError):
            unframe_object(bytes(damaged))

    def test_unknown_trailer_algorithm_is_integrity_error(self):
        blob = frame_object(b"payload", "crc32-aal5")
        # splice a bogus algorithm name into the trailer
        bogus = blob.replace(b"crc32-aal5", b"crc32-bogu")
        with pytest.raises(IntegrityError):
            unframe_object(bogus)

    def test_store_level_algorithm_choice(self, cache_root):
        store = ObjectStore(cache_root / "fletcher", algorithm="fletcher256")
        digest = store.put(b"data under a large-block-style sum")
        _, name = unframe_object(store.path_for(digest).read_bytes())
        assert name == "fletcher256"

    def test_unknown_store_algorithm_fails_fast(self):
        with pytest.raises(KeyError):
            ObjectStore(algorithm="not-a-checksum")
