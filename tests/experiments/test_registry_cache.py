"""Integration tests: the experiment registry against the result cache."""

from __future__ import annotations

import pytest

from repro.experiments.registry import run_experiment
from repro.store.runner import RunStore


@pytest.fixture(autouse=True)
def cache_root(tmp_path, monkeypatch):
    root = tmp_path / "cache-root"
    monkeypatch.setenv("REPRO_CHECKSUMS_CACHE", str(root))
    return root


class TestCachedExperiments:
    @pytest.mark.parametrize(
        "experiment_id,kwargs",
        [
            ("table4", {"fs_bytes": 60_000, "seed": 2}),
            ("corpus-stats", {"fs_bytes": 60_000, "seed": 2}),
        ],
    )
    def test_cache_hit_is_bit_identical_to_cold_run(self, experiment_id, kwargs):
        cold = run_experiment(experiment_id, **kwargs)
        store = RunStore()
        warm_miss = run_experiment(experiment_id, cache=store, **kwargs)
        assert store.results.stats.misses == 1
        warm_hit = run_experiment(experiment_id, cache=store, **kwargs)
        assert store.results.stats.hits == 1
        assert warm_hit.text == warm_miss.text == cold.text
        assert warm_hit.to_json() == warm_miss.to_json() == cold.to_json()

    def test_different_parameters_never_share_entries(self):
        store = RunStore()
        a = run_experiment("table4", fs_bytes=60_000, seed=2, cache=store)
        b = run_experiment("table4", fs_bytes=60_000, seed=3, cache=store)
        assert store.results.stats.misses == 2
        assert a.text != b.text

    def test_flipped_byte_triggers_recompute_not_wrong_answer(self):
        store = RunStore()
        kwargs = {"fs_bytes": 60_000, "seed": 2}
        cold = run_experiment("table4", cache=store, **kwargs)

        digest = next(iter(store.results.store.digests()))
        path = store.results.store.path_for(digest)
        blob = bytearray(path.read_bytes())
        blob[12] ^= 0x01
        path.write_bytes(bytes(blob))

        recomputed = run_experiment("table4", cache=store, **kwargs)
        assert store.results.stats.corrupt == 1
        assert recomputed.text == cold.text
        # ... and the entry was rewritten, so the next call hits again.
        third = run_experiment("table4", cache=store, **kwargs)
        assert store.results.stats.hits == 1
        assert third.text == cold.text


class TestWorkersPlumbing:
    def test_workers_forwarded_to_splice_tables(self):
        direct = run_experiment("table1", fs_bytes=40_000, seed=3)
        fanned = run_experiment("table1", fs_bytes=40_000, seed=3, workers=2)
        assert fanned.text == direct.text

    def test_workers_ignored_by_experiments_without_the_kwarg(self):
        # table4 does not accept workers; run_experiment must not crash.
        report = run_experiment("table4", fs_bytes=40_000, seed=2, workers=4)
        assert report.experiment_id == "table4"

    def test_workers_do_not_enter_cache_keys(self):
        store = RunStore()
        run_experiment("table1", fs_bytes=40_000, seed=3, cache=store)
        run_experiment("table1", fs_bytes=40_000, seed=3, cache=store, workers=2)
        assert store.results.stats.hits == 1

    def test_runstore_cache_also_shards_splice_runs(self):
        store = RunStore()
        run_experiment("table1", fs_bytes=40_000, seed=3, cache=store)
        assert store.shards.stats.puts > 0  # store= hook reached the runner
        # One durable write per computed shard: its shard object.
        assert len(list(store.shards.store.digests())) == 22
        assert store.shards.stats.puts == 22
