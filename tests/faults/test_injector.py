"""FaultyObjectStore and the worker shim: injected harm, intact truth."""

from __future__ import annotations

import errno
import multiprocessing

import pytest

from repro.core.supervisor import RunHealth
from repro.faults.injector import (
    FaultInjected,
    FaultyObjectStore,
    SimulatedCrash,
    apply_directive,
    worker_prepare,
    wrap_run_store,
)
from repro.faults.plan import FaultPlan
from repro.store.cache import ResultCache
from repro.store.objstore import IntegrityError, ObjectStore
from repro.store.runner import RunStore


@pytest.fixture
def store(tmp_path):
    return ObjectStore(tmp_path / "objects")


def plan_for(kind, rate=1.0, **kwargs):
    from repro.faults.plan import KIND_TO_OP

    rates = {kind: rate}
    if kind in KIND_TO_OP:
        return FaultPlan(0, store_rates=rates, max_faults=10_000, **kwargs)
    return FaultPlan(0, worker_rates=rates, max_faults=10_000, **kwargs)


class TestReadFaults:
    def test_bitflip_detected_disk_intact(self, store):
        digest = store.put(b"hello, splice world")
        faulty = FaultyObjectStore(store, plan_for("bitflip"))
        with pytest.raises(IntegrityError):
            faulty.get(digest)
        # The fault corrupted bytes in flight only: disk is untouched.
        assert store.get(digest) == b"hello, splice world"

    def test_truncate_detected_disk_intact(self, store):
        digest = store.put(b"x" * 100)
        faulty = FaultyObjectStore(store, plan_for("truncate"))
        with pytest.raises(IntegrityError):
            faulty.get(digest)
        assert store.get(digest) == b"x" * 100

    def test_eio_raises_oserror(self, store):
        digest = store.put(b"payload")
        faulty = FaultyObjectStore(store, plan_for("eio"))
        with pytest.raises(OSError) as excinfo:
            faulty.get(digest)
        assert excinfo.value.errno == errno.EIO

    def test_connreset_raises_disk_intact(self, store):
        digest = store.put(b"reset payload")
        faulty = FaultyObjectStore(store, plan_for("connreset"))
        with pytest.raises(ConnectionResetError):
            faulty.get(digest)
        assert store.get(digest) == b"reset payload"

    def test_conntimeout_raises_etimedout(self, store):
        digest = store.put(b"timed-out payload")
        faulty = FaultyObjectStore(store, plan_for("conntimeout"))
        with pytest.raises(OSError) as excinfo:
            faulty.get(digest)
        assert excinfo.value.errno == errno.ETIMEDOUT

    def test_slowread_returns_the_true_payload(self, store):
        digest = store.put(b"late but correct")
        faulty = FaultyObjectStore(store, plan_for("slowread",
                                                   slow_seconds=0.001))
        assert faulty.get(digest) == b"late but correct"
        assert faulty.plan.log[-1].kind == "slowread"

    def test_stale_is_a_plain_read_on_a_local_store(self, store):
        digest = store.put(b"the only frame")
        faulty = FaultyObjectStore(store, plan_for("stale"))
        assert faulty.get(digest) == b"the only frame"
        assert faulty.plan.log[-1].kind == "stale"

    def test_missing_object_still_keyerror(self, store):
        faulty = FaultyObjectStore(store, plan_for("bitflip"))
        with pytest.raises(KeyError):
            faulty.get("ab" * 32)

    def test_result_cache_evicts_and_recomputes_through_faults(self, store):
        """The cache's corrupt path engages on an injected bit flip."""
        cache = ResultCache(FaultyObjectStore(store, plan_for("bitflip", rate=0.0)))
        key = "cd" * 32
        cache.put_bytes(key, b"cached result")
        # First read is clean (rate 0); now swap in an always-flip plan.
        assert cache.get_bytes(key) == b"cached result"
        cache.store.plan = plan_for("bitflip")
        assert cache.get_bytes(key) is None
        assert cache.stats.corrupt == 1
        # The eviction removed the entry; a clean retry recomputes.
        cache.store.plan = plan_for("bitflip", rate=0.0)
        assert cache.get_bytes(key) is None
        assert cache.stats.misses == 1


class TestWriteFaults:
    @pytest.mark.parametrize(
        "kind,code", [("enospc", errno.ENOSPC), ("erofs", errno.EROFS)]
    )
    def test_write_errors_carry_errno(self, store, kind, code):
        faulty = FaultyObjectStore(store, plan_for(kind))
        with pytest.raises(OSError) as excinfo:
            faulty.put(b"doomed")
        assert excinfo.value.errno == code

    def test_torn_write_detected_on_clean_reread(self, store):
        faulty = FaultyObjectStore(store, plan_for("torn"))
        digest = faulty.put(b"a torn frame reaches disk incomplete")
        # The write "succeeded" but the trailer rejects it on read.
        with pytest.raises(IntegrityError):
            store.get(digest)

    def test_put_keyed_routes_through_injection(self, store):
        faulty = FaultyObjectStore(store, plan_for("enospc"))
        with pytest.raises(OSError):
            faulty.put_keyed("ef" * 32, b"payload")


class TestDeleteFaults:
    def test_enoent_reports_false(self, store):
        digest = store.put(b"to delete")
        faulty = FaultyObjectStore(store, plan_for("enoent"))
        assert faulty.delete(digest) is False
        assert store.get(digest) == b"to delete"  # loser of the race: no-op

    def test_clean_delete_delegates(self, store):
        digest = store.put(b"to delete")
        faulty = FaultyObjectStore(store, plan_for("enoent", rate=0.0))
        assert faulty.delete(digest) is True


class TestHealthAndDelegation:
    def test_health_counts_injections(self, store):
        health = RunHealth()
        faulty = FaultyObjectStore(store, plan_for("eio"), health)
        digest = store.put(b"payload")
        for _ in range(3):
            with pytest.raises(OSError):
                faulty.get(digest)
        assert health.faults_injected == 3

    def test_unfaulted_attrs_delegate(self, store):
        faulty = FaultyObjectStore(store, FaultPlan(0))
        assert faulty.algorithm == store.algorithm
        digest = faulty.put(b"clean payload")
        assert faulty.get(digest) == b"clean payload"
        assert digest in faulty

    def test_wrap_run_store_wraps_every_namespace(self, tmp_path):
        run_store = RunStore(tmp_path / "store")
        plan = FaultPlan(0)
        wrapped = wrap_run_store(run_store, plan)
        assert wrapped is run_store
        assert isinstance(run_store.objects, FaultyObjectStore)
        wrapped_names = [
            name for name, namespace in run_store.namespaces
            if isinstance(namespace, FaultyObjectStore)
            and namespace.plan is plan
        ]
        assert wrapped_names == ["objects", "results", "shards", "corpora"]


class TestDirectives:
    def test_none_is_noop(self):
        apply_directive(None)  # must not raise

    def test_raise_directive(self):
        with pytest.raises(FaultInjected):
            apply_directive(("raise", None))

    def test_kill_directive_escapes_except_exception(self):
        with pytest.raises(SimulatedCrash):
            apply_directive(("kill", None))
        assert not issubclass(SimulatedCrash, Exception)

    def test_stall_directive_sleeps_then_raises(self):
        import time

        start = time.perf_counter()
        with pytest.raises(FaultInjected, match="stalled"):
            apply_directive(("stall", 0.05))
        assert time.perf_counter() - start >= 0.05

    def test_crash_degrades_to_raise_in_parent_process(self):
        # This test runs in the parent: a real os._exit would kill the
        # whole pytest process, so the directive must degrade.
        assert multiprocessing.parent_process() is None
        with pytest.raises(FaultInjected, match="injected crash"):
            apply_directive(("crash", None))

    def test_unknown_directive_rejected(self):
        with pytest.raises(ValueError):
            apply_directive(("meteor", None))


class TestWorkerPrepare:
    def test_pairs_jobs_with_directives_and_counts(self):
        plan = FaultPlan(0, worker_script={1: "raise"})
        health = RunHealth()
        prepare = worker_prepare(plan, health)
        assert prepare(0, 0, "job-a") == (None, "job-a")
        assert prepare(1, 0, "job-b") == (("raise", None), "job-b")
        assert health.faults_injected == 1

    def test_fallback_rung_gets_clean_payload(self):
        plan = FaultPlan(0, worker_rates={"raise": 1.0})
        prepare = worker_prepare(plan, RunHealth())
        assert prepare(5, None, "job") == (None, "job")
