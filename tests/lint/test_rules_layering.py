"""REP301 / REP302 / REP303: the layering rules."""

import pytest

from tests.lint.conftest import finding_rules


class TestCliFacadeOnly:
    def test_deep_import_in_cli_is_flagged(self, lint):
        result = lint({
            "repro/cli.py": """
                from repro.store.runner import RunStore

                def main():
                    return RunStore
            """,
        }, rules=["REP301"])
        assert finding_rules(result) == ["REP301"]
        assert "repro.api" in result.findings[0].message

    def test_facade_import_is_clean(self, lint):
        result = lint({
            "repro/cli.py": """
                from repro.api import run_experiment

                def main():
                    return run_experiment
            """,
        }, rules=["REP301"])
        assert result.findings == []

    def test_lint_tooling_import_is_clean(self, lint):
        result = lint({
            "repro/cli.py": """
                from repro.lint import run_lint

                def main():
                    return run_lint
            """,
        }, rules=["REP301"])
        assert result.findings == []

    def test_bare_package_import_is_flagged(self, lint):
        result = lint({
            "repro/cli.py": """
                import repro

                def main():
                    return repro.__version__
            """,
        }, rules=["REP301"])
        assert finding_rules(result) == ["REP301"]


class TestPureLayer:
    def test_upward_import_is_flagged(self, lint):
        result = lint({
            "repro/checksums/crc.py": """
                from repro.store.objstore import ObjectStore

                def engine():
                    return ObjectStore
            """,
        }, rules=["REP302"])
        assert finding_rules(result) == ["REP302"]

    def test_sibling_import_is_clean(self, lint):
        result = lint({
            "repro/checksums/extra.py": """
                from repro.checksums.fletcher import Fletcher8

                def make():
                    return Fletcher8(255)
            """,
        }, rules=["REP302"])
        assert result.findings == []


class TestEagerEngineImport:
    def test_module_scope_engine_import_in_cold_module_is_flagged(self, lint):
        result = lint({
            "repro/api.py": """
                from repro.core.engine import SpliceEngine

                def run():
                    return SpliceEngine
            """,
        }, rules=["REP303"])
        assert finding_rules(result) == ["REP303"]

    def test_function_scope_import_is_clean(self, lint):
        result = lint({
            "repro/api.py": """
                def run():
                    from repro.core.engine import SpliceEngine

                    return SpliceEngine
            """,
        }, rules=["REP303"])
        assert result.findings == []

    def test_hot_attribute_off_lazy_package_is_flagged(self, lint):
        result = lint({
            "repro/store/warm.py": """
                from repro.core import SpliceEngine

                def run():
                    return SpliceEngine
            """,
        }, rules=["REP303"])
        assert finding_rules(result) == ["REP303"]
        assert "hot attribute" in result.findings[0].message

    def test_cheap_attribute_off_lazy_package_is_clean(self, lint):
        result = lint({
            "repro/store/warm.py": """
                from repro.core import RunHealth

                def run():
                    return RunHealth
            """,
        }, rules=["REP303"])
        assert result.findings == []

    def test_hot_modules_may_import_each_other(self, lint):
        result = lint({
            "repro/experiments/extensions.py": """
                from repro.core.engine import SpliceEngine

                def run():
                    return SpliceEngine
            """,
        }, rules=["REP303"])
        assert result.findings == []

    @pytest.mark.parametrize("module, target", [
        ("repro/core/experiment.py", "repro.core.engine"),
        ("repro/core/experiment.py", "repro.protocols.ftpsim"),
        ("repro/experiments/splice_tables.py", "repro.corpus.profiles"),
        ("repro/protocols/config.py", "repro.protocols.packetizer"),
    ])
    def test_all_hit_sweep_path_is_cold(self, lint, module, target):
        # A splice table whose corpora and shards all come from the
        # store imports its sweep driver and configuration, never the
        # engine, the packetizer or the corpus generators.
        result = lint({
            module: """
                import %s

                def run():
                    return None
            """ % target,
        }, rules=["REP303"])
        assert finding_rules(result) == ["REP303"]

    def test_hot_attribute_off_lazy_corpus_package_is_flagged(self, lint):
        result = lint({
            "repro/experiments/splice_tables.py": """
                from repro.corpus import build_filesystem

                def run():
                    return build_filesystem
            """,
        }, rules=["REP303"])
        assert finding_rules(result) == ["REP303"]
