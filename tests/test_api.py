"""The stable ``repro.api`` facade and the package-level lazy exports."""

import pytest

import repro
import repro.api as api


class TestFacadeSurface:
    def test_all_is_exactly_the_contract(self):
        assert sorted(api.__all__) == [
            "ArqConfig",
            "ChannelPlan",
            "ChannelReport",
            "ChecksumPlacement",
            "PacketizerConfig",
            "RunAborted",
            "RunHealth",
            "ShardJournal",
            "SweepInterrupted",
            "Telemetry",
            "TraceError",
            "activate_telemetry",
            "algorithm_names",
            "algorithm_summaries",
            "algorithms",
            "audit_run_store",
            "bench_delta_table",
            "build_channel_trace",
            "build_filesystem",
            "channel_plan_names",
            "current_controller",
            "current_telemetry",
            "deactivate_telemetry",
            "default_journal_dir",
            "experiment_ids",
            "generate_markdown_report",
            "latest_bench_snapshot",
            "lint_rules",
            "named_channel_plan",
            "named_plan",
            "open_journal",
            "open_store",
            "plan_names",
            "plan_trajectory",
            "profile_names",
            "profile_summaries",
            "read_channel_trace",
            "replay_channel_trace",
            "run_bench",
            "run_channel_sweep",
            "run_channel_transfer",
            "run_experiment",
            "run_lint",
            "run_splice_experiment",
            "sum_file",
            "sweep_guard",
            "validate_bench_snapshot",
            "wrap_run_store",
            "write_bench_snapshot",
            "write_channel_trace",
            "write_figure_svg",
            "write_metrics",
        ]

    def test_every_name_resolves(self):
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_package_reexports_are_the_same_objects(self):
        for name in api.__all__:
            assert getattr(repro, name) is getattr(api, name)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            api.nonexistent_name

    def test_dir_lists_the_contract(self):
        for name in api.__all__:
            assert name in dir(api)


class TestAlgorithms:
    def test_returns_conforming_instances(self):
        from repro.checksums import ChecksumAlgorithm

        algorithms = api.algorithms()
        assert "internet" in algorithms and "crc32-aal5" in algorithms
        for name, algorithm in algorithms.items():
            assert isinstance(algorithm, ChecksumAlgorithm)
            assert algorithm.width > 0

    def test_sorted_iteration_order(self):
        names = list(api.algorithms())
        assert names == sorted(names)


class TestSumFile:
    def test_default_algorithm(self, tmp_path):
        path = tmp_path / "data.bin"
        path.write_bytes(b"123456789")
        from repro.checksums import internet_checksum

        assert api.sum_file(str(path)) == internet_checksum(b"123456789")

    def test_named_algorithm(self, tmp_path):
        path = tmp_path / "data.bin"
        path.write_bytes(b"123456789")
        assert api.sum_file(str(path), "crc32-aal5") == 0xFC891918


class TestOpenStore:
    def test_rooted_run_store(self, tmp_path):
        store = api.open_store(tmp_path / "store")
        from repro.store.runner import RunStore

        assert isinstance(store, RunStore)
        assert store.root == tmp_path / "store"

    def test_algorithm_override(self, tmp_path):
        store = api.open_store(tmp_path / "store", algorithm="crc32c")
        assert store.algorithm == "crc32c"


class TestRunExperiment:
    def test_facade_runs_and_caches(self, tmp_path):
        store = api.open_store(tmp_path / "store")
        first = api.run_experiment(
            "table5", cache=store, fs_bytes=60_000, seed=2
        )
        second = api.run_experiment(
            "table5", cache=store, fs_bytes=60_000, seed=2
        )
        assert first.text == second.text
        assert store.results.stats.hits >= 1

    def test_ids_cover_the_paper_tables(self):
        ids = api.experiment_ids()
        for table in ("table1", "table5", "figure2", "epd"):
            assert table in ids


class TestTelemetryExport:
    def test_telemetry_is_the_real_class(self):
        from repro.telemetry.core import Telemetry

        assert api.Telemetry is Telemetry
        assert repro.Telemetry is Telemetry


class TestSummaries:
    def test_algorithm_summaries_cover_every_name(self):
        summaries = api.algorithm_summaries()
        names = [name for name, _, _ in summaries]
        assert names == api.algorithm_names()
        for name, width, kind in summaries:
            assert width > 0
            assert kind in ("checksum", "CRC")

    def test_profile_summaries_cover_every_name(self):
        summaries = api.profile_summaries()
        assert [name for name, _ in summaries] == api.profile_names()


class TestLazyResolution:
    def test_lazy_names_resolve_to_their_implementations(self):
        from repro.core.supervisor import RunAborted
        from repro.store.audit import audit_run_store

        assert api.RunAborted is RunAborted
        assert api.audit_run_store is audit_run_store
