"""Interprocedural flow rules: REP111, REP211, REP411."""

from tests.lint.conftest import finding_rules


class TestRep111InterproceduralTaint:
    def test_serializer_tainted_via_helper(self, lint):
        result = lint({
            "repro/analysis/helpers.py": """
                import time

                def grab_clock():
                    return time.time()
            """,
            "repro/analysis/export.py": """
                from repro.analysis.helpers import grab_clock

                def to_payload(rows):
                    return {"rows": rows, "at": grab_clock()}
            """,
        }, rules=["REP111"])
        assert finding_rules(result) == ["REP111"]
        finding = result.findings[0]
        assert finding.path == "repro/analysis/export.py"
        assert "wall clock" in finding.message
        assert "via repro.analysis.helpers.grab_clock" in finding.message

    def test_direct_source_is_rep102_turf(self, lint):
        # A serializer calling time.time() itself is the per-module
        # rule's finding; REP111 only reports laundering via helpers.
        result = lint({
            "repro/analysis/export.py": """
                import time

                def to_payload(rows):
                    return {"rows": rows, "at": time.time()}
            """,
        }, rules=["REP111"])
        assert result.findings == []

    def test_json_dump_sink_catches_tainted_argument(self, lint):
        result = lint({
            "repro/core/clock.py": """
                import random

                def draw():
                    return random.random()
            """,
            "repro/core/emit.py": """
                import json

                from repro.core.clock import draw

                def emit(path):
                    payload = {"jitter": draw()}
                    return json.dumps(payload)
            """,
        }, rules=["REP111"])
        assert finding_rules(result) == ["REP111"]
        assert "unseeded entropy" in result.findings[0].message

    def test_sanitized_value_is_clean(self, lint):
        result = lint({
            "repro/analysis/helpers.py": """
                import time

                def canonical_stamp():
                    return round(time.time())
            """,
            "repro/analysis/export.py": """
                from repro.analysis.helpers import canonical_stamp

                def to_payload(rows):
                    return {"rows": rows, "at": canonical_stamp()}
            """,
        }, rules=["REP111"])
        # "canonical" is a configured sanitizer marker: deriving the
        # stamp is the helper's deliberate job, not an accident.
        assert result.findings == []

    def test_nondeterministic_package_is_exempt(self, lint):
        result = lint({
            "repro/lint/helpers.py": """
                import time

                def grab_clock():
                    return time.time()
            """,
            "repro/lint/report.py": """
                from repro.lint.helpers import grab_clock

                def to_payload():
                    return {"at": grab_clock()}
            """,
        }, rules=["REP111"])
        assert result.findings == []


class TestRep211TransitivePicklability:
    def test_factory_nested_def_across_modules(self, lint):
        result = lint({
            "repro/core/factory.py": """
                def make_worker():
                    def worker(item):
                        return item
                    return worker
            """,
            "repro/core/runner.py": """
                from repro.core.factory import make_worker

                WORKER = make_worker()

                def run(pool, shard):
                    return pool.submit(WORKER, shard)
            """,
        }, rules=["REP211"])
        assert finding_rules(result) == ["REP211"]
        message = result.findings[0].message
        assert "nested function" in message
        assert "repro.core.factory.make_worker" in message

    def test_lambda_behind_import_and_alias(self, lint):
        result = lint({
            "repro/core/handlers.py": """
                WORKER = lambda item: item
            """,
            "repro/core/runner.py": """
                from repro.core.handlers import WORKER

                def run(pool, shard):
                    return pool.submit(WORKER, shard)
            """,
        }, rules=["REP211"])
        assert finding_rules(result) == ["REP211"]
        assert "lambda" in result.findings[0].message

    def test_same_module_lambda_is_rep201_turf(self, lint):
        result = lint({
            "repro/core/runner.py": """
                def run(pool, shard):
                    return pool.submit(lambda: shard)
            """,
        }, rules=["REP211"])
        assert result.findings == []

    def test_unpicklable_payload_argument(self, lint):
        result = lint({
            "repro/core/runner.py": """
                import threading

                def work(item, lock):
                    return item

                def run(pool, shard):
                    return pool.submit(work, shard, threading.Lock())
            """,
        }, rules=["REP211"])
        assert finding_rules(result) == ["REP211"]
        assert "threading lock" in result.findings[0].message

    def test_nested_pool_submission_deadlock(self, lint):
        result = lint({
            "repro/core/inner.py": """
                def fan_out(pool, items):
                    return [pool.submit(len, item) for item in items]
            """,
            "repro/core/runner.py": """
                from repro.core.inner import fan_out

                def work(item):
                    return fan_out(item.pool, item.parts)

                def run(pool, shard):
                    return pool.submit(work, shard)
            """,
        }, rules=["REP211"])
        messages = [f.message for f in result.findings]
        assert any("transitively submits" in m for m in messages)

    def test_plain_module_function_is_clean(self, lint):
        result = lint({
            "repro/core/worker.py": """
                def work(item):
                    return item
            """,
            "repro/core/runner.py": """
                from repro.core.worker import work

                def run(pool, shard):
                    return pool.submit(work, shard)
            """,
        }, rules=["REP211"])
        assert result.findings == []


class TestRep411ExceptionPathResources:
    def test_never_closed_handle(self, lint):
        result = lint({
            "repro/store/reader.py": """
                def fetch(path):
                    handle = open(path, "rb")
                    return handle.read()
            """,
        }, rules=["REP411"])
        # ``handle`` is used as a receiver only -- no escape -- and
        # never closed.
        assert finding_rules(result) == ["REP411"]
        assert "never closed" in result.findings[0].message

    def test_success_path_only_close(self, lint):
        result = lint({
            "repro/store/reader.py": """
                def fetch(path):
                    handle = open(path, "rb")
                    data = handle.read()
                    handle.close()
                    return data
            """,
        }, rules=["REP411"])
        assert finding_rules(result) == ["REP411"]
        assert "success path" in result.findings[0].message

    def test_close_in_finally_is_clean(self, lint):
        result = lint({
            "repro/store/reader.py": """
                def fetch(path):
                    handle = open(path, "rb")
                    try:
                        return handle.read()
                    finally:
                        handle.close()
            """,
        }, rules=["REP411"])
        assert result.findings == []

    def test_returned_handle_transfers_custody(self, lint):
        result = lint({
            "repro/store/reader.py": """
                def open_for_append(path):
                    handle = open(path, "ab")
                    return handle
            """,
        }, rules=["REP411"])
        assert result.findings == []

    def test_qualified_open_is_an_acquisition(self, lint):
        result = lint({
            "repro/store/objstore.py": """
                import io

                def probe(path):
                    handle = io.open(path, "rb")
                    return handle.read(16)
            """,
        }, rules=["REP411"])
        assert finding_rules(result) == ["REP411"]
        assert "handle from open()" in result.findings[0].message

    def test_self_accessor_is_exempt(self, lint):
        result = lint({
            "repro/store/objstore.py": """
                class ObjectStore:
                    def fetch(self, path):
                        handle = self._open(path)
                        return handle.read()
            """,
        }, rules=["REP411"])
        assert result.findings == []

    def test_non_store_module_is_exempt(self, lint):
        result = lint({
            "repro/analysis/reader.py": """
                def fetch(path):
                    handle = open(path, "rb")
                    return handle.read()
            """,
        }, rules=["REP411"])
        assert result.findings == []
