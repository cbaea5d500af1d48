"""FaultPlan: determinism, bounds, scripts, and the named plans."""

from __future__ import annotations

import pytest

from repro.faults.plan import (
    KIND_TO_OP,
    NAMED_PLANS,
    FaultEvent,
    FaultPlan,
    named_plan,
    plan_names,
)


def drive(plan, store_ops=50, jobs=20, attempts=3):
    """Exercise a plan over a fixed op grid; return its event tuples."""
    for op in ("get", "put", "delete"):
        for _ in range(store_ops):
            plan.store_fault(op)
    for job in range(jobs):
        for attempt in range(attempts):
            plan.worker_directive(job, attempt)
    return [event.as_tuple() for event in plan.log]


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        kwargs = dict(
            store_rates={"bitflip": 0.3, "enospc": 0.2, "enoent": 0.4},
            worker_rates={"raise": 0.3, "crash": 0.1},
        )
        a = drive(FaultPlan(7, **kwargs))
        b = drive(FaultPlan(7, **kwargs))
        assert a == b
        assert a  # the rates are high enough that something fired

    def test_different_seed_different_schedule(self):
        kwargs = dict(store_rates={"bitflip": 0.3}, worker_rates={"raise": 0.3})
        assert drive(FaultPlan(1, **kwargs)) != drive(FaultPlan(2, **kwargs))

    def test_fingerprint_tracks_log(self):
        plan = FaultPlan(3, store_rates={"bitflip": 0.5})
        empty = plan.fingerprint()
        drive(plan)
        assert plan.log and plan.fingerprint() != empty

    def test_preview_is_pure_and_replayable(self):
        plan = named_plan("monkey", seed=11)
        first = plan.preview()
        # preview() must not consume the plan's own op slots...
        assert plan.log == [] and plan._op_counts == {}
        # ...and must agree with an independent same-seed instance.
        assert first == named_plan("monkey", seed=11).preview()
        assert first != named_plan("monkey", seed=12).preview()

    def test_clone_has_same_parameters_no_history(self):
        plan = FaultPlan(5, store_rates={"bitflip": 0.9}, name="x")
        drive(plan)
        twin = plan.clone()
        assert twin.log == []
        assert twin.seed == plan.seed and twin.name == "x"
        assert drive(twin) == drive(plan.clone())


class TestBounds:
    def test_max_faults_caps_the_schedule(self):
        plan = FaultPlan(0, store_rates={"bitflip": 1.0}, max_faults=4)
        for _ in range(50):
            plan.store_fault("get")
        assert len(plan.log) == 4

    def test_worker_faults_stop_after_max_faulty_attempts(self):
        plan = FaultPlan(0, worker_rates={"raise": 1.0}, max_faulty_attempts=2)
        assert plan.worker_directive(0, 0) is not None
        assert plan.worker_directive(0, 1) is not None
        assert plan.worker_directive(0, 2) is None
        assert plan.worker_directive(0, 99) is None

    def test_fallback_attempt_none_never_faults(self):
        plan = FaultPlan(0, worker_rates={"raise": 1.0}, worker_script={0: "kill"})
        assert plan.worker_directive(0, None) is None
        assert plan.log == []

    def test_worker_decisions_memoized_and_logged_once(self):
        plan = FaultPlan(0, worker_rates={"raise": 1.0})
        first = plan.worker_directive(3, 0)
        again = plan.worker_directive(3, 0)  # pool respawn re-asks
        assert first == again == ("raise", None)
        assert len(plan.log) == 1


class TestScripts:
    def test_script_pins_kind_on_first_attempt_only(self):
        plan = FaultPlan(0, worker_script={2: "kill"}, max_faulty_attempts=3)
        assert plan.worker_directive(2, 0) == ("kill", None)
        assert plan.worker_directive(2, 1) is None  # script is attempt 0 only
        assert plan.worker_directive(1, 0) is None  # other jobs untouched

    def test_stall_directive_carries_duration(self):
        plan = FaultPlan(0, worker_script={0: "stall"}, stall_seconds=0.25)
        assert plan.worker_directive(0, 0) == ("stall", 0.25)

    def test_unknown_kinds_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kinds"):
            FaultPlan(0, store_rates={"gremlins": 1.0})
        with pytest.raises(ValueError, match="unknown fault kinds"):
            FaultPlan(0, worker_rates={"segfault": 1.0})
        with pytest.raises(ValueError, match="unknown fault kinds"):
            FaultPlan(0, worker_script={0: "explode"})


class TestStoreDecisions:
    def test_kinds_fire_only_on_their_op(self):
        plan = FaultPlan(0, store_rates={kind: 1.0 for kind in KIND_TO_OP})
        kind = plan.store_fault("delete")
        assert kind == "enoent"  # the only delete-kind
        for event in plan.log:
            op = event.op.split(".", 1)[1]
            assert KIND_TO_OP[event.kind] == op

    def test_rate_zero_never_fires(self):
        plan = FaultPlan(0, store_rates={"bitflip": 0.0})
        assert all(plan.store_fault("get") is None for _ in range(200))

    def test_rate_one_always_fires(self):
        plan = FaultPlan(0, store_rates={"eio": 1.0})
        assert all(plan.store_fault("get") == "eio" for _ in range(20))

    @pytest.mark.parametrize(
        "kind", ["connreset", "conntimeout", "slowread", "stale"]
    )
    def test_network_kinds_are_read_side(self, kind):
        assert KIND_TO_OP[kind] == "get"


class TestNamedPlans:
    def test_plan_names_sorted_and_complete(self):
        assert plan_names() == sorted(NAMED_PLANS)
        assert {"bitrot", "full-disk", "flaky-workers", "monkey"} <= set(plan_names())

    @pytest.mark.parametrize("name", sorted(NAMED_PLANS))
    def test_each_named_plan_instantiates_and_replays(self, name):
        plan = named_plan(name, seed=9)
        assert plan.name == name
        assert plan.preview() == named_plan(name, seed=9).preview()

    def test_flaky_workers_suggests_a_shard_timeout(self):
        assert named_plan("flaky-workers").shard_timeout is not None

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown fault plan"):
            named_plan("does-not-exist")

    def test_channel_field_defaults_to_none(self):
        assert FaultPlan(0).channel is None
        assert named_plan("bitrot").channel is None

    def test_channel_paired_plans_name_their_link(self):
        for name in ("bursty-link", "reordering-link", "congested-queue"):
            assert name in plan_names()
            assert named_plan(name).channel == name

    def test_clone_carries_the_channel(self):
        plan = named_plan("bursty-link", seed=4)
        assert plan.clone().channel == "bursty-link"


def test_event_as_tuple():
    assert FaultEvent("store.get", 4, "bitflip").as_tuple() == (
        "store.get", 4, "bitflip",
    )
