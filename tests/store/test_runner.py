"""Tests for resumable sharded splice runs through the store."""

from __future__ import annotations

import pytest

from repro.core.experiment import run_splice_experiment
from repro.core.supervisor import RunHealth
from repro.corpus.profiles import build_filesystem
from repro.store.runner import RunStore, _StoreGuard


def small_fs(profile="uniform", nbytes=50_000, seed=3):
    return build_filesystem(profile, nbytes, seed)


class TestStoreHook:
    def test_bit_identical_to_direct_run(self, cache_root):
        fs = small_fs()
        direct = run_splice_experiment(fs)
        stored = run_splice_experiment(fs, store=RunStore())
        assert stored.counters == direct.counters

    def test_second_run_is_all_hits(self, cache_root):
        fs = small_fs()
        store = RunStore()
        first = run_splice_experiment(fs, store=store)
        assert store.shards.stats.puts > 0
        store2 = RunStore()  # fresh counters, same root
        second = run_splice_experiment(fs, store=store2)
        assert second.counters == first.counters
        assert store2.shards.stats.puts == 0
        assert store2.shards.stats.misses == 0
        assert store2.shards.stats.hits > 0

    def test_workers_path_matches(self, cache_root):
        fs = small_fs()
        direct = run_splice_experiment(fs)
        stored = run_splice_experiment(fs, store=RunStore(), workers=2)
        assert stored.counters == direct.counters

    def test_shards_keyed_by_content_shared_across_filesystems(self, cache_root):
        # Shards are keyed by file *content*, not by filesystem name:
        # two differently-named corpora with the same bytes share work.
        from tests.conftest import make_filesystem

        spec = [("english", 6_000), ("gmon", 5_000)]
        store = RunStore()
        first = run_splice_experiment(
            make_filesystem(spec, seed=11, name="volume-a"), store=store
        )
        assert store.shards.stats.puts == 2
        second = run_splice_experiment(
            make_filesystem(spec, seed=11, name="volume-b"), store=store
        )
        assert store.shards.stats.puts == 2  # nothing recomputed
        assert first.counters == second.counters


class TestResume:
    def test_interrupted_run_resumes_from_completed_shards(self, cache_root):
        fs = small_fs(nbytes=80_000)
        store = RunStore()
        complete = run_splice_experiment(fs, store=store)

        # Simulate an interruption that lost some shards: delete half.
        digests = list(store.shards.store.digests())
        assert len(digests) >= 2
        lost = digests[: len(digests) // 2]
        for digest in lost:
            store.shards.store.delete(digest)

        resumed_store = RunStore()
        resumed = run_splice_experiment(fs, store=resumed_store)
        assert resumed.counters == complete.counters
        # Only the lost shards were recomputed.
        assert resumed_store.shards.stats.puts == len(lost)

    def test_corrupt_shard_is_evicted_and_recomputed(self, cache_root):
        fs = small_fs(nbytes=60_000)
        store = RunStore()
        complete = run_splice_experiment(fs, store=store)

        digest = next(iter(store.shards.store.digests()))
        path = store.shards.store.path_for(digest)
        blob = bytearray(path.read_bytes())
        blob[7] ^= 0x01  # a single flipped bit in a stored artifact
        path.write_bytes(bytes(blob))

        retry_store = RunStore()
        retried = run_splice_experiment(fs, store=retry_store)
        # Graceful degradation: recomputed, never a wrong answer.
        assert retried.counters == complete.counters
        assert retry_store.shards.stats.corrupt == 1
        assert retry_store.shards.stats.puts == 1


def _table9_via_report(root, tmp_path):
    from repro.cli import main

    assert main([
        "report", "--only", "table9", "-o", str(tmp_path / "report.md"),
        "--bytes", "30000", "--seed", "3", "--cache", "--cache-dir", str(root),
    ]) == 0


def _table9_via_api(root, tmp_path):
    from repro.api import open_store, run_experiment

    run_experiment("table9", cache=open_store(root), fs_bytes=30_000, seed=3)


class TestShardsSharedAcrossCommands:
    @pytest.mark.parametrize(
        "table9", [_table9_via_report, _table9_via_api], ids=["report", "api"]
    )
    def test_table9_hits_the_shards_run_table8_wrote(
        self, cache_root, tmp_path, table9, capsys
    ):
        # A shard's key depends on its bytes and configuration, never on
        # the command that computed it: table9's header-placement TCP
        # sweep is table8's TCP sweep.
        from repro.cli import main
        from repro.telemetry.core import collect

        assert main([
            "run", "table8", "--bytes", "30000", "--seed", "3",
            "--cache", "--cache-dir", str(cache_root),
        ]) == 0
        with collect() as telemetry:
            table9(cache_root, tmp_path)
            counters = telemetry.snapshot()["counters"]
        assert counters["store.shard_hits"] > 0
        assert counters["store.shard_hits"] == counters["store.shard_misses"]


class Flaky:
    """A store call failing ``failures`` times before returning "ok"."""

    def __init__(self, failures, exc=None):
        self.failures = failures
        self.exc = exc if exc is not None else OSError("transient")
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc
        return "ok"


class TestStoreGuard:
    """The guard's ladder: one retry per call, then store-less at 6 errors."""

    @staticmethod
    def guard():
        return _StoreGuard(store=object(), health=RunHealth())

    def test_success_needs_one_call(self):
        guard, call = self.guard(), Flaky(0)
        assert guard._attempt("op", call) == "ok"
        assert (call.calls, guard.health.store_errors) == (1, 0)

    def test_one_failure_is_retried_and_counted(self):
        guard, call = self.guard(), Flaky(1)
        assert guard._attempt("op", call, default="skipped") == "ok"
        assert (call.calls, guard.health.store_errors) == (2, 1)

    def test_two_failures_return_the_default_and_count_twice(self):
        guard, call = self.guard(), Flaky(10)
        assert guard._attempt("op", call, default="skipped") == "skipped"
        assert (call.calls, guard.health.store_errors) == (2, 2)
        assert guard.active and not guard.health.storeless

    def test_sixth_error_demotes_the_run_once(self):
        guard = self.guard()
        with pytest.warns(RuntimeWarning, match="artifact store is failing") \
                as caught:
            for _ in range(3):
                assert guard._attempt("shard write", Flaky(10),
                                      default=False) is False
        assert len(caught) == 1
        assert guard.health.store_errors == 6
        assert not guard.active and guard.health.storeless
        assert "store-less mode after 6 store errors" in guard.health.render()
        later = Flaky(0)
        assert guard._attempt("shard write", later, default=False) is False
        assert later.calls == 0
        assert guard.health.store_errors == 6

    def test_non_oserror_propagates_without_a_retry(self):
        guard, call = self.guard(), Flaky(1, ValueError("not the store"))
        with pytest.raises(ValueError):
            guard._attempt("op", call)
        assert (call.calls, guard.health.store_errors) == (1, 0)
