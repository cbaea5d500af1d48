"""SupervisedPool: the degradation ladder, and RunHealth bookkeeping."""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.core.supervisor import RunAborted, RunHealth, SupervisedPool

# ---------------------------------------------------------------------------
# module-level workers (picklable for the process pool)
# ---------------------------------------------------------------------------


def double(payload):
    return payload * 2


def obey(payload):
    """Payload ``(directive, value)``: fault on demand, else return value."""
    directive, value = payload
    if directive == "crash":
        os._exit(13)
    if directive == "raise":
        raise ValueError("injected")
    return value * 10


def always_fails(payload):
    raise RuntimeError("hopeless")


def scripted_prepare(script):
    """Fault jobs per ``script[(index, attempt)]``; clean otherwise.

    ``attempt is None`` (the fallback rung) is always clean — the
    contract :class:`SupervisedPool` documents for its prepare hook.
    """

    def prepare(index, attempt, job):
        if attempt is None:
            return (None, job)
        return (script.get((index, attempt)), job)

    return prepare


# ---------------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------------


class TestCleanRuns:
    def test_sequential_map_in_order(self):
        pool = SupervisedPool(double, workers=None)
        assert pool.map([1, 2, 3]) == [2, 4, 6]
        assert not pool.health.eventful

    def test_single_job_stays_local_even_with_workers(self):
        pool = SupervisedPool(double, workers=4)
        assert pool.map([21]) == [42]

    def test_pooled_map_matches_sequential(self):
        jobs = list(range(12))
        assert SupervisedPool(double, workers=2).map(jobs) == [
            j * 2 for j in jobs
        ]

    def test_run_yields_index_result_pairs(self):
        seen = dict(SupervisedPool(double, workers=None).run([5, 6]))
        assert seen == {0: 10, 1: 12}


# ---------------------------------------------------------------------------
# the ladder, rung by rung
# ---------------------------------------------------------------------------


class TestRetries:
    def test_sequential_retry_recovers(self):
        # Job 0 raises on attempt 0 only; the retry succeeds.
        prepare = scripted_prepare({(0, 0): "raise"})
        pool = SupervisedPool(obey, workers=None, prepare=prepare)
        assert pool.map([1, 2]) == [10, 20]
        assert pool.health.retries == 1
        assert pool.health.fallbacks == 0

    def test_pooled_retry_recovers(self):
        prepare = scripted_prepare({(1, 0): "raise"})
        pool = SupervisedPool(
            obey, workers=2, prepare=prepare, backoff_base=0.001
        )
        assert pool.map([1, 2, 3, 4]) == [10, 20, 30, 40]
        assert pool.health.retries == 1

    def test_fallback_after_exhausted_retries(self):
        # Job 0 raises on every pooled/sequential attempt; only the
        # fault-free fallback rung (attempt None) succeeds.
        script = {(0, a): "raise" for a in range(10)}
        pool = SupervisedPool(
            obey, workers=None, prepare=scripted_prepare(script),
            max_retries=2, backoff_base=0.001,
        )
        assert pool.map([7]) == [70]
        assert pool.health.retries == 2
        assert pool.health.fallbacks == 1

    def test_run_aborted_when_even_fallback_fails(self):
        pool = SupervisedPool(
            always_fails, workers=None, max_retries=1, backoff_base=0.001
        )
        with pytest.raises(RunAborted, match="job 0 failed"):
            pool.map(["x"])


class TestPoolRecovery:
    def test_worker_crash_condemns_pool_and_recovers(self):
        # Job 2 hard-exits its worker on attempt 0: BrokenProcessPool.
        prepare = scripted_prepare({(2, 0): "crash"})
        pool = SupervisedPool(
            obey, workers=2, prepare=prepare, backoff_base=0.001
        )
        assert pool.map([1, 2, 3, 4, 5]) == [10, 20, 30, 40, 50]
        assert pool.health.broken_pools >= 1
        assert pool.health.pool_restarts >= 1
        assert pool.health.retries >= 1

    def test_restart_budget_exhaustion_drains_in_process(self):
        # Every attempt of every job crashes its worker; the pool
        # restart budget runs out and the drain completes in-process.
        script = {(i, a): "crash" for i in range(4) for a in range(10)}
        pool = SupervisedPool(
            obey, workers=2, prepare=scripted_prepare(script),
            max_pool_restarts=1, backoff_base=0.001,
        )
        assert pool.map([1, 2, 3, 4]) == [10, 20, 30, 40]
        assert pool.health.fallbacks >= 1
        assert any(
            "pool restart budget exhausted" in note
            for note in pool.health.degradations
        )

    def test_broken_pool_at_submit_condemns_pool_and_recovers(
            self, monkeypatch):
        # A worker that dies while a generation is still being submitted
        # makes ``submit`` itself raise; the jobs already submitted are
        # judged, the rest are requeued, and the pool is replaced.
        import concurrent.futures
        from concurrent.futures.process import BrokenProcessPool

        submits = []

        class BreaksOnSecondSubmit(concurrent.futures.ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                submits.append(self)
                if len(submits) == 2:
                    raise BrokenProcessPool("worker died during submit")
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", BreaksOnSecondSubmit)
        pool = SupervisedPool(double, workers=2)
        assert pool.map([1, 2, 3, 4]) == [2, 4, 6, 8]
        assert pool.health.broken_pools >= 1
        assert pool.health.pool_restarts >= 1
        assert pool.health.fallbacks == 0
        assert len(set(submits)) == 2  # one condemned pool, one fresh

    def test_timeout_condemns_pool(self):
        # A stalled worker (sleeps forever relative to the timeout).
        prepare = scripted_prepare({(0, 0): "stall"})

        pool = SupervisedPool(
            stall_or_value, workers=2, prepare=prepare,
            timeout=0.3, backoff_base=0.001,
        )
        assert pool.map([1, 2, 3]) == [100, 200, 300]
        assert pool.health.timeouts >= 1
        assert pool.health.pool_restarts >= 1


def stall_or_value(payload):
    directive, value = payload
    if directive == "stall":
        import time

        time.sleep(3)  # >> the supervisor timeout, << any test timeout
    return value * 100


class TestBitIdenticalResults:
    def test_chaotic_run_matches_clean_run(self):
        jobs = list(range(10))
        clean = SupervisedPool(obey, workers=None).map(
            [(None, j) for j in jobs]
        )
        # Same jobs under scripted harm (note: obey takes the payload
        # the prepare hook built, so wrap jobs for the chaotic pool).
        script = {(0, 0): "raise", (3, 0): "crash", (7, 0): "raise"}
        chaotic = SupervisedPool(
            obey, workers=2, prepare=scripted_prepare(script),
            backoff_base=0.001,
        ).map(jobs)
        assert chaotic == clean
        assert chaotic == [j * 10 for j in jobs]


class TestDrainedPool:
    def test_sweeps_leave_no_pool_thread_behind(self, small_mixed_fs):
        # A drained pool is joined: neither its manager thread nor its
        # queue feeder outlives the sweep, so an exiting CLI process is
        # down to its main thread.  (A thread an earlier test's
        # condemned pool left may end meanwhile, so only new threads
        # count.)
        from repro.channel.plan import named_channel_plan
        from repro.channel.sweep import run_channel_sweep
        from repro.core.experiment import run_splice_experiment

        before = set(threading.enumerate())
        result = run_splice_experiment(small_mixed_fs, workers=2)
        assert result.counters.files == len(small_mixed_fs)
        assert set(threading.enumerate()) - before == set()
        report = run_channel_sweep(
            small_mixed_fs, named_channel_plan("lossy-link", seed=2),
            workers=2,
        )
        assert report.files == len(small_mixed_fs)
        assert set(threading.enumerate()) - before == set()


# ---------------------------------------------------------------------------
# RunHealth
# ---------------------------------------------------------------------------


class TestRunHealth:
    def test_clean_record_is_uneventful(self):
        health = RunHealth()
        assert not health.eventful
        assert health.summary() == "clean"

    def test_json_round_trip(self):
        health = RunHealth(retries=2, broken_pools=1, storeless=True)
        health.degrade("went store-less")
        clone = RunHealth.from_json(health.to_json())
        assert clone == health
        assert json.loads(health.to_json())["retries"] == 2

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown RunHealth fields"):
            RunHealth.from_dict({"retries": 1, "explosions": 9})

    def test_merge_sums_counters_and_unions_notes(self):
        a = RunHealth(retries=1, evictions=2)
        a.degrade("note-a")
        b = RunHealth(retries=3, storeless=True)
        b.degrade("note-a")
        b.degrade("note-b")
        a.merge(b)
        assert a.retries == 4 and a.evictions == 2 and a.storeless
        assert a.degradations == ["note-a", "note-b"]

    def test_degrade_is_idempotent(self):
        health = RunHealth()
        health.degrade("same note")
        health.degrade("same note")
        assert health.degradations == ["same note"]
        assert health.eventful

    def test_summary_pluralizes(self):
        assert RunHealth(retries=1).summary() == "1 retry"
        assert RunHealth(retries=2).summary() == "2 retries"
        assert "store-less mode" in RunHealth(storeless=True).summary()

    def test_render_lists_degradations(self):
        health = RunHealth(retries=1)
        health.degrade("drained in-process")
        text = health.render()
        assert "1 retry" in text and "drained in-process" in text
