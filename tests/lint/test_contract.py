"""Layer contracts: parsing, queries, and REP311 enforcement."""

from pathlib import Path

import pytest

from repro.lint.config import LayerContract, load_contract
from repro.lint.engine import run_lint
from tests.lint.conftest import finding_rules

REPO_ROOT = Path(__file__).resolve().parents[2]


def contract(allowed=(), layers=None, include_lazy=False):
    if layers is None:
        layers = (
            ("core", ("repro.core",)),
            ("store", ("repro.store",)),
            ("checksums", ("repro.checksums",)),
        )
    return LayerContract(
        path="test-contract.toml", layers=layers, allowed=allowed,
        include_lazy=include_lazy,
    )


class TestLoadContract:
    def test_parses_layers_edges_and_default(self, tmp_path):
        path = tmp_path / "contract.toml"
        path.write_text(
            "[contract.layers]\n"
            'core = ["repro.core"]\n'
            'checksums = ["repro.checksums"]\n'
            "[contract.allowed]\n"
            'core = ["checksums"]\n',
            encoding="utf-8",
        )
        loaded = load_contract(path)
        assert loaded.layers == (
            ("core", ("repro.core",)),
            ("checksums", ("repro.checksums",)),
        )
        assert loaded.allowed == (("core", ("checksums",)),)
        assert loaded.include_lazy is False

    def test_undeclared_layer_raises(self, tmp_path):
        path = tmp_path / "contract.toml"
        path.write_text(
            "[contract.layers]\n"
            'core = ["repro.core"]\n'
            "[contract.allowed]\n"
            'core = ["ghost"]\n',
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="ghost"):
            load_contract(path)

    def test_bad_toml_raises_value_error(self, tmp_path):
        path = tmp_path / "contract.toml"
        path.write_text("[contract\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_contract(path)

    def test_committed_contract_loads_and_is_acyclic(self):
        loaded = load_contract(REPO_ROOT / ".reprolint.toml")
        assert loaded.find_cycle() is None
        assert loaded.layer_of("repro.core.engine") == "core"
        assert loaded.layer_of("repro.cli") == "cli"
        assert loaded.allows("cli", "api")
        assert not loaded.allows("checksums", "store")


class TestQueries:
    def test_layer_of_longest_prefix_wins(self):
        nested = contract(layers=(
            ("store", ("repro.store",)),
            ("storeapi", ("repro.store.api",)),
        ))
        assert nested.layer_of("repro.store.api.client") == "storeapi"
        assert nested.layer_of("repro.store.runner") == "store"
        assert nested.layer_of("repro.analysis") is None

    def test_allows_same_layer_and_declared_edges(self):
        c = contract(allowed=(("core", ("checksums",)),))
        assert c.allows("core", "core")
        assert c.allows("core", "checksums")
        assert not c.allows("core", "store")
        assert not c.allows("store", "checksums")

    def test_find_cycle(self):
        cyclic = contract(allowed=(
            ("core", ("store",)),
            ("store", ("checksums",)),
            ("checksums", ("core",)),
        ))
        cycle = cyclic.find_cycle()
        assert cycle is not None
        assert cycle[0] == cycle[-1]
        assert contract(allowed=(("core", ("store",)),)).find_cycle() \
            is None


class TestRep311:
    def _lint(self, tree, files, c):
        return run_lint([tree(files)], rules=["REP311"], contract=c)

    def test_illegal_eager_import_is_flagged(self, tree):
        result = self._lint(tree, {
            "repro/checksums/crcmod.py": """
                from repro.store import runner

                def use():
                    return runner
            """,
        }, contract(allowed=(("store", ("checksums",)),)))
        assert finding_rules(result) == ["REP311"]
        message = result.findings[0].message
        assert "'checksums'" in message and "'store'" in message

    def test_declared_edge_is_allowed(self, tree):
        result = self._lint(tree, {
            "repro/store/runner.py": """
                from repro.checksums import crc

                def use():
                    return crc
            """,
        }, contract(allowed=(("store", ("checksums",)),)))
        assert result.findings == []

    def test_lazy_import_is_exempt_by_default(self, tree):
        result = self._lint(tree, {
            "repro/checksums/crcmod.py": """
                def use():
                    from repro.store import runner
                    return runner
            """,
        }, contract(allowed=()))
        assert result.findings == []

    def test_include_lazy_holds_function_imports_to_the_dag(self, tree):
        result = self._lint(tree, {
            "repro/checksums/crcmod.py": """
                def use():
                    from repro.store import runner
                    return runner
            """,
        }, contract(allowed=(), include_lazy=True))
        assert finding_rules(result) == ["REP311"]

    def test_declared_cycle_reports_once_and_stops(self, tree):
        result = self._lint(tree, {
            "repro/checksums/crcmod.py": """
                from repro.store import runner

                def use():
                    return runner
            """,
        }, contract(allowed=(
            ("core", ("store",)),
            ("store", ("core",)),
        )))
        assert finding_rules(result) == ["REP311"]
        finding = result.findings[0]
        assert finding.path == "test-contract.toml"
        assert "cycle" in finding.message
        assert finding.snippet == "[contract.allowed]"

    def test_no_contract_means_inert(self, tree):
        result = run_lint([tree({
            "repro/checksums/crcmod.py": """
                from repro.store import runner

                def use():
                    return runner
            """,
        })], rules=["REP311"])
        assert result.findings == []

    def test_unmapped_modules_are_ignored(self, tree):
        result = self._lint(tree, {
            "repro/analysis/stats.py": """
                from repro.store import runner

                def use():
                    return runner
            """,
        }, contract(allowed=()))
        # ``repro.analysis`` is outside the declared layers: no claim.
        assert result.findings == []
