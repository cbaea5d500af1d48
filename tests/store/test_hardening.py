"""Store hardening satellites: idempotent delete, durable atomic writes.

Covers the robustness satellites on the store itself:
:meth:`ObjectStore.delete` is idempotent under concurrent eviction,
and :func:`~repro.store.objstore.atomic_write` leaves durable, whole
frames.
"""

from __future__ import annotations

import shutil

from repro.store.objstore import ObjectStore, _fsync_dir, unframe_object


class TestDeleteIdempotency:
    def test_second_delete_reports_false(self, tmp_path):
        store = ObjectStore(tmp_path / "objects")
        digest = store.put(b"payload")
        assert store.delete(digest) is True
        assert store.delete(digest) is False

    def test_delete_survives_vanished_fanout_dir(self, tmp_path):
        # A concurrent evictor removed the whole fan-out directory.
        store = ObjectStore(tmp_path / "objects")
        digest = store.put(b"payload")
        shutil.rmtree(store.path_for(digest).parent.parent)
        assert store.delete(digest) is False

    def test_clear_is_safe_to_repeat(self, tmp_path):
        store = ObjectStore(tmp_path / "objects")
        store.put(b"one")
        store.put(b"two")
        assert store.clear() == 2
        assert store.clear() == 0


class TestAtomicWriteDurability:
    def test_atomic_write_leaves_a_whole_verified_frame(self, tmp_path):
        store = ObjectStore(tmp_path / "objects")
        digest = store.put(b"durable payload")
        blob = store.path_for(digest).read_bytes()
        payload, algorithm = unframe_object(blob)
        assert payload == b"durable payload"
        assert algorithm == store.algorithm
        # No temp files left behind by the write protocol.
        assert not list((tmp_path / "objects").rglob("*.tmp"))

    def test_fsync_dir_tolerates_missing_directory(self, tmp_path):
        _fsync_dir(tmp_path / "does-not-exist")  # must not raise

    def test_fsync_dir_on_real_directory(self, tmp_path):
        _fsync_dir(tmp_path)  # must not raise
