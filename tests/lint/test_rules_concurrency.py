"""REP201 / REP202: the concurrency rules."""

from tests.lint.conftest import finding_rules


class TestNonPicklableWorker:
    def test_lambda_submission_is_flagged(self, lint):
        result = lint({
            "repro/core/runner.py": """
                def run(pool, shard):
                    return pool.submit(lambda: shard)
            """,
        }, rules=["REP201"])
        assert finding_rules(result) == ["REP201"]
        assert "lambda" in result.findings[0].message

    def test_nested_function_submission_is_flagged(self, lint):
        result = lint({
            "repro/core/runner.py": """
                def run(pool, shard):
                    def work():
                        return shard
                    return pool.submit(work)
            """,
        }, rules=["REP201"])
        assert finding_rules(result) == ["REP201"]
        assert "nested scope" in result.findings[0].message

    def test_module_level_function_is_clean(self, lint):
        result = lint({
            "repro/core/runner.py": """
                def work(shard):
                    return shard

                def run(pool, shard):
                    return pool.submit(work, shard)
            """,
        }, rules=["REP201"])
        assert result.findings == []

    def test_bound_method_submission_is_flagged(self, lint):
        result = lint({
            "repro/core/runner.py": """
                class Runner:
                    def work(self, shard):
                        return shard

                    def run(self, pool, shard):
                        return pool.submit(self.work, shard)
            """,
        }, rules=["REP201"])
        assert finding_rules(result) == ["REP201"]
        assert "bound method" in result.findings[0].message

    def test_attribute_holding_module_function_is_clean(self, lint):
        # The SupervisedPool pattern: ``self.function`` is an instance
        # attribute *holding* a module-level function -- it pickles by
        # value and must not be confused with a bound method.
        result = lint({
            "repro/core/runner.py": """
                def work(shard):
                    return shard

                class Runner:
                    def __init__(self, function=work):
                        self.function = function

                    def run(self, pool, shard):
                        return pool.submit(self.function, shard)
            """,
        }, rules=["REP201"])
        assert result.findings == []

    def test_lambda_via_pool_constructor_is_flagged(self, lint):
        result = lint({
            "repro/core/runner.py": """
                from repro.core.supervisor import SupervisedPool

                def run(shard):
                    pool = SupervisedPool(lambda payload: payload)
                    return pool
            """,
        }, rules=["REP201"])
        assert finding_rules(result) == ["REP201"]


class TestWorkerSideAccounting:
    def test_telemetry_mutation_in_worker_is_flagged(self, lint):
        result = lint({
            "repro/core/shards.py": """
                from repro.telemetry import core as telemetry

                def work(payload):
                    telemetry.count("files")
                    return payload

                def run(pool, payload):
                    return pool.submit(work, payload)
            """,
        }, rules=["REP202"])
        assert finding_rules(result) == ["REP202"]
        assert "parent-side" in result.findings[0].message

    def test_health_mutation_in_worker_is_flagged(self, lint):
        result = lint({
            "repro/core/shards.py": """
                def work(payload, health):
                    health.retries += 1
                    return payload

                def run(pool, payload, health):
                    return pool.submit(work, payload, health)
            """,
        }, rules=["REP202"])
        assert finding_rules(result) == ["REP202"]

    def test_pure_worker_is_clean(self, lint):
        result = lint({
            "repro/core/shards.py": """
                def work(payload):
                    return {"files": 1, "bytes": len(payload)}

                def run(pool, payload):
                    return pool.submit(work, payload)
            """,
        }, rules=["REP202"])
        assert result.findings == []

    def test_parent_side_accounting_is_clean(self, lint):
        # Mutating telemetry in the *parent*, from returned counters,
        # is exactly the supported pattern -- no finding.
        result = lint({
            "repro/core/shards.py": """
                from repro.telemetry import core as telemetry_core

                def work(payload):
                    return {"files": 1}

                def run(pool, payload):
                    future = pool.submit(work, payload)
                    counters = future.result()
                    telemetry_core.current().count(
                        "files", counters["files"]
                    )
                    return counters
            """,
        }, rules=["REP202"])
        assert result.findings == []
