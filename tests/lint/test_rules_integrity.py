"""REP401 / REP402 / REP403 / REP501: crash-consistency and protocol
conformance."""

from tests.lint.conftest import finding_rules


class TestFsyncOrderedRename:
    def test_bare_replace_is_flagged(self, lint):
        result = lint({
            "repro/store/objstore.py": """
                import os

                def put(tmp, final):
                    os.replace(tmp, final)
            """,
        }, rules=["REP401"])
        assert finding_rules(result) == ["REP401"]
        message = result.findings[0].message
        assert "no os.fsync" in message
        assert "parent-directory" in message

    def test_fully_ordered_rename_is_clean(self, lint):
        result = lint({
            "repro/store/objstore.py": """
                import os

                def _fsync_dir(path):
                    fd = os.open(path, os.O_RDONLY)
                    try:
                        os.fsync(fd)
                    finally:
                        os.close(fd)

                def put(handle, tmp, final, parent):
                    handle.flush()
                    os.fsync(handle.fileno())
                    handle.close()
                    os.replace(tmp, final)
                    _fsync_dir(parent)
            """,
        }, rules=["REP401"])
        assert result.findings == []

    def test_missing_directory_fsync_is_flagged(self, lint):
        result = lint({
            "repro/store/objstore.py": """
                import os

                def put(handle, tmp, final):
                    os.fsync(handle.fileno())
                    os.replace(tmp, final)
            """,
        }, rules=["REP401"])
        assert finding_rules(result) == ["REP401"]
        assert "parent-directory" in result.findings[0].message

    def test_renames_outside_the_store_are_exempt(self, lint):
        result = lint({
            "repro/experiments/out.py": """
                import os

                def finish(tmp, final):
                    os.replace(tmp, final)
            """,
        }, rules=["REP401"])
        assert result.findings == []


class TestJournalAtomicWrite:
    def test_raw_open_write_is_flagged(self, lint):
        result = lint({
            "repro/store/journal.py": """
                def checkpoint(path, blob):
                    with open(path, "wb") as handle:
                        handle.write(blob)
            """,
        }, rules=["REP402"])
        assert finding_rules(result) == ["REP402"]
        assert "atomic_write" in result.findings[0].message

    def test_raw_open_append_is_flagged(self, lint):
        result = lint({
            "repro/store/journal.py": """
                def append_record(path, record):
                    with open(path, "ab") as handle:
                        handle.write(record)
            """,
        }, rules=["REP402"])
        assert finding_rules(result) == ["REP402"]
        assert "durable_append" in result.findings[0].message

    def test_write_bytes_and_replace_are_flagged(self, lint):
        result = lint({
            "repro/store/journal.py": """
                import os

                def checkpoint(path, tmp, blob):
                    path.write_bytes(blob)
                    os.replace(tmp, path)
            """,
        }, rules=["REP402"])
        assert finding_rules(result) == ["REP402", "REP402"]
        assert "write_bytes" in result.findings[0].message
        assert "os.replace" in result.findings[1].message

    def test_atomic_helper_route_is_clean(self, lint):
        result = lint({
            "repro/store/journal.py": """
                from repro.store.objstore import (
                    atomic_write, durable_append,
                )

                def checkpoint(path, blob):
                    atomic_write(path, blob)

                def append_record(path, record):
                    durable_append(path, record)

                def load(path):
                    return path.read_bytes()
            """,
        }, rules=["REP402"])
        assert result.findings == []

    def test_raw_writes_inside_the_atomic_helper_are_exempt(self, lint):
        result = lint({
            "repro/store/journal.py": """
                import os

                def _atomic_write(path, blob):
                    tmp = str(path) + ".tmp"
                    with open(tmp, "wb") as handle:
                        handle.write(blob)
                        os.fsync(handle.fileno())
                    os.replace(tmp, path)

                def checkpoint(path, blob):
                    _atomic_write(path, blob)
            """,
        }, rules=["REP402"])
        assert result.findings == []

    def test_modules_outside_the_journal_are_exempt(self, lint):
        result = lint({
            "repro/store/cache.py": """
                def save(path, blob):
                    path.write_bytes(blob)
            """,
        }, rules=["REP402"])
        assert result.findings == []

    def test_pragma_suppresses(self, lint):
        result = lint({
            "repro/store/journal.py": """
                def debug_dump(path, blob):
                    # scratch dump, not a checkpoint.  reprolint: disable=REP402
                    path.write_bytes(blob)
            """,
        }, rules=["REP402"])
        assert result.findings == []

    def test_read_only_opens_are_clean(self, lint):
        result = lint({
            "repro/store/journal.py": """
                def load(path):
                    with open(path, "rb") as handle:
                        return handle.read()
            """,
        }, rules=["REP402"])
        assert result.findings == []


class TestVerifiedStoreReads:
    def test_raw_byte_return_is_flagged(self, lint):
        result = lint({
            "repro/store/objstore.py": """
                class ObjectStore:
                    def get(self, key):
                        return self._frames[key]
            """,
        }, rules=["REP403"])
        assert finding_rules(result) == ["REP403"]
        message = result.findings[0].message
        assert "ObjectStore.get" in message
        assert "verify" in message

    def test_verifying_getter_is_clean(self, lint):
        result = lint({
            "repro/store/objstore.py": """
                from repro.store.framing import unframe_object

                class ObjectStore:
                    def get(self, key):
                        payload, _ = unframe_object(self._frames[key])
                        return payload
            """,
        }, rules=["REP403"])
        assert result.findings == []

    def test_delegating_getter_is_clean(self, lint):
        result = lint({
            "repro/store/cache.py": """
                class ResultCache:
                    def get_bytes(self, key):
                        return self.store.get(key)

                    def get_json(self, key):
                        return self.get_bytes(key)
            """,
        }, rules=["REP403"])
        assert result.findings == []

    def test_frame_named_getters_are_exempt(self, lint):
        result = lint({
            "repro/store/objstore.py": """
                class ObjectStore:
                    def get_frame(self, key):
                        return self._path(key).read_bytes()

                    def get_raw_bytes(self, key):
                        return self._path(key).read_bytes()
            """,
        }, rules=["REP403"])
        assert result.findings == []

    def test_unsuffixed_classes_are_exempt(self, lint):
        result = lint({
            "repro/store/runner.py": """
                class _StoreGuard:
                    def get_shard(self, key):
                        return self.shards[key]
            """,
        }, rules=["REP403"])
        assert result.findings == []

    def test_modules_outside_the_store_are_exempt(self, lint):
        result = lint({
            "repro/faults/injector.py": """
                class FaultyObjectStore:
                    def get(self, key):
                        return self.inner._frames[key]
            """,
        }, rules=["REP403"])
        assert result.findings == []

    def test_pragma_suppresses(self, lint):
        result = lint({
            "repro/store/scratch.py": """
                class ScratchStore:
                    def get(self, key):  # reprolint: disable=REP403
                        return self._frames[key]
            """,
        }, rules=["REP403"])
        assert result.findings == []


class TestRegistryConformance:
    def test_missing_protocol_member_is_flagged(self, lint):
        result = lint({
            "repro/checksums/registry.py": """
                class GoodSum:
                    name = "good"
                    width = 16

                    def compute(self, data):
                        return 0

                    def field(self, data):
                        return b"\\x00\\x00"

                    def verify(self, data):
                        return True

                    def compute_many(self, rows):
                        return [0] * len(rows)

                    def prefix_state(self, rows):
                        return rows

                    def combine(self, state_a, state_b, len_b):
                        return state_a

                    def state_value(self, state):
                        return 0


                class BadSum:
                    name = "bad"
                    width = 16

                    def compute(self, data):
                        return 0


                _FACTORIES = {
                    "good": GoodSum,
                    "bad": BadSum,
                }
            """,
        }, rules=["REP501"])
        assert finding_rules(result) == ["REP501"]
        message = result.findings[0].message
        assert "'bad'" in message
        assert "field" in message and "verify" in message

    def test_mask_width_mismatch_is_flagged(self, lint):
        result = lint({
            "repro/checksums/registry.py": """
                class Slipped:
                    name = "slipped"
                    width = 16
                    mask = 0xFFF

                    def compute(self, data):
                        return 0

                    def field(self, data):
                        return b"\\x00\\x00"

                    def verify(self, data):
                        return True

                    def compute_many(self, rows):
                        return [0] * len(rows)

                    def prefix_state(self, rows):
                        return rows

                    def combine(self, state_a, state_b, len_b):
                        return state_a

                    def state_value(self, state):
                        return 0


                _FACTORIES = {
                    "slipped": lambda: Slipped(),
                }
            """,
        }, rules=["REP501"])
        assert finding_rules(result) == ["REP501"]
        assert "0xFFF" in result.findings[0].message

    def test_mixin_members_and_init_assignments_count(self, lint):
        result = lint({
            "repro/checksums/registry.py": """
                class _Suffix:
                    def field(self, data):
                        return b""

                    def verify(self, data):
                        return True

                    def prefix_state(self, rows):
                        return rows

                    def combine(self, state_a, state_b, len_b):
                        return state_a


                class Sum(_Suffix):
                    def __init__(self):
                        self.name = "sum"
                        self.width = 16
                        self.mask = (1 << 16) - 1

                    def compute(self, data):
                        return 0

                    def compute_many(self, rows):
                        return [0] * len(rows)

                    def state_value(self, state):
                        return 0


                _FACTORIES = {
                    "sum": Sum,
                }
            """,
        }, rules=["REP501"])
        assert result.findings == []

    def test_missing_batch_member_is_flagged(self, lint):
        # The batch members are protocol members too: an algorithm the
        # splice engine could not combine across a splice fails here.
        result = lint({
            "repro/checksums/registry.py": """
                class NoCombine:
                    name = "nocombine"
                    width = 16

                    def compute(self, data):
                        return 0

                    def field(self, data):
                        return b"\\x00\\x00"

                    def verify(self, data):
                        return True

                    def compute_many(self, rows):
                        return [0] * len(rows)

                    def prefix_state(self, rows):
                        return rows

                    def state_value(self, state):
                        return 0


                _FACTORIES = {
                    "nocombine": NoCombine,
                }
            """,
        }, rules=["REP501"])
        assert finding_rules(result) == ["REP501"]
        message = result.findings[0].message
        assert "'nocombine'" in message
        assert message.endswith("protocol member(s): combine")

    def test_annotated_factories_dict_is_found(self, lint):
        result = lint({
            "repro/checksums/registry.py": """
                from typing import Callable, Dict

                class Incomplete:
                    name = "incomplete"

                    def compute(self, data):
                        return 0


                _FACTORIES: Dict[str, Callable] = {
                    "incomplete": Incomplete,
                }
            """,
        }, rules=["REP501"])
        assert finding_rules(result) == ["REP501"]

    def test_unresolvable_factory_is_a_warning(self, lint):
        result = lint({
            "repro/checksums/registry.py": """
                def _dynamic():
                    return object()


                _FACTORIES = {
                    "dynamic": _dynamic(),
                }
            """,
        }, rules=["REP501"])
        assert finding_rules(result) == ["REP501"]
        assert result.findings[0].severity == "warning"
