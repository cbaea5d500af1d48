"""Tests for the impairment processes: statistics and determinism."""

import numpy as np

from repro.channel.impairments import (
    BoundedQueue,
    CellLoss,
    DelayProcess,
    DuplicateProcess,
    GilbertChain,
    GilbertElliottBitErrors,
)
from repro.channel.plan import ChannelPlan


class TestGilbertChain:
    def test_bursts_cluster(self):
        chain = GilbertChain(np.random.default_rng(1), 0.05, 0.25)
        states = [chain.step() for _ in range(20_000)]
        bad = sum(states)
        # Stationary bad share = p_enter / (p_enter + p_exit) ~ 1/6.
        assert 0.10 < bad / len(states) < 0.25
        # Consecutive bad cells far exceed the independent-loss rate:
        runs = sum(
            1 for a, b in zip(states, states[1:]) if a and b
        )
        assert runs > bad * 0.5  # mean burst length 1/p_exit = 4

    def test_deterministic(self):
        a = GilbertChain(np.random.default_rng(5), 0.1, 0.3)
        b = GilbertChain(np.random.default_rng(5), 0.1, 0.3)
        assert [a.step() for _ in range(500)] == [b.step() for _ in range(500)]


class TestCellLoss:
    def test_rate_matches_plan(self):
        loss = CellLoss(ChannelPlan(seed=2, loss_rate=0.1))
        lost = sum(loss.lost() for _ in range(20_000))
        assert 0.08 < lost / 20_000 < 0.12

    def test_clean_plan_never_loses(self):
        loss = CellLoss(ChannelPlan())
        assert not any(loss.lost() for _ in range(1_000))


class TestBitErrors:
    def test_flips_only_in_bad_state(self):
        plan = ChannelPlan(seed=4, bit_errors=(0.05, 0.25, 0.0, 0.02))
        process = GilbertElliottBitErrors(plan)
        payload = bytes(48)
        corrupted = flipped_total = 0
        for _ in range(5_000):
            mutated, flipped = process.corrupt(payload)
            if flipped:
                corrupted += 1
                flipped_total += flipped
                assert mutated != payload
                assert len(mutated) == len(payload)
            else:
                assert mutated == payload
        assert corrupted > 0
        assert flipped_total >= corrupted

    def test_deterministic(self):
        plan = ChannelPlan(seed=4, bit_errors=(0.05, 0.25, 0.001, 0.02))
        a = GilbertElliottBitErrors(plan)
        b = GilbertElliottBitErrors(plan)
        payload = bytes(range(48))
        for _ in range(300):
            assert a.corrupt(payload) == b.corrupt(payload)


class TestBoundedQueue:
    def test_unbounded_passthrough(self):
        queue = BoundedQueue(ChannelPlan())
        assert queue.admit(3.0) == 3.0

    def test_overflow_drops(self):
        plan = ChannelPlan(queue_capacity=2, queue_service=10.0)
        queue = BoundedQueue(plan)
        assert queue.admit(0.0) == 10.0
        assert queue.admit(0.0) == 20.0
        assert queue.admit(0.0) is None  # full
        assert queue.admit(10.5) is not None  # one departed

    def test_departures_fifo(self):
        plan = ChannelPlan(queue_capacity=8, queue_service=2.0)
        queue = BoundedQueue(plan)
        first = queue.admit(0.0)
        second = queue.admit(0.5)
        assert second > first


class TestDelayAndDuplicates:
    def test_latency_always_paid(self):
        delay = DelayProcess(ChannelPlan(latency=8.0))
        arrival, reordered = delay.arrival(2.0)
        assert arrival == 10.0
        assert not reordered

    def test_reorder_holds_back(self):
        plan = ChannelPlan(seed=6, jitter=0.5, reorder_rate=0.5,
                           reorder_span=20.0)
        delay = DelayProcess(plan)
        results = [delay.arrival(0.0) for _ in range(500)]
        assert any(reordered for _, reordered in results)
        held = [t for t, reordered in results if reordered]
        prompt = [t for t, reordered in results if not reordered]
        assert max(held) > max(prompt)

    def test_duplicates_at_rate(self):
        process = DuplicateProcess(ChannelPlan(seed=3, duplicate_rate=0.2))
        count = sum(process.duplicated() for _ in range(10_000))
        assert 0.17 < count / 10_000 < 0.23


class TestStreamIndependence:
    def test_jitter_does_not_shift_loss(self):
        # The decisive property: enabling one impairment must not
        # change another's decision stream.
        quiet = ChannelPlan(seed=11, loss_rate=0.1)
        noisy = ChannelPlan(seed=11, loss_rate=0.1, jitter=5.0,
                            duplicate_rate=0.3)
        a, b = CellLoss(quiet), CellLoss(noisy)
        assert [a.lost() for _ in range(2_000)] == [
            b.lost() for _ in range(2_000)
        ]


def _scalar_gilbert(rng, p_enter_bad, p_exit_bad, steps):
    """The state each of ``steps`` cells sees, one ``random()`` call each."""
    bad, states = False, []
    for _ in range(steps):
        states.append(bad)
        roll = rng.random()
        bad = roll >= p_exit_bad if bad else roll < p_enter_bad
    return states


class TestBlockDraws:
    """Uniforms drawn in blocks equal per-cell ``random()`` calls."""

    STEPS = 10_000

    def test_gilbert_chain_matches_scalar_calls(self):
        chain = GilbertChain(np.random.default_rng(9), 0.05, 0.25)
        expected = _scalar_gilbert(np.random.default_rng(9), 0.05, 0.25,
                                   self.STEPS)
        assert [chain.step() for _ in range(self.STEPS)] == expected

    def test_cell_loss_matches_scalar_calls(self):
        plan = ChannelPlan(seed=8, loss_rate=0.05, burst_loss=(0.02, 0.3))
        loss = CellLoss(plan)
        burst = _scalar_gilbert(np.random.default_rng(plan.derive("burst-loss")),
                                0.02, 0.3, self.STEPS)
        independent = np.random.default_rng(plan.derive("loss"))
        expected = [independent.random() < 0.05 or bad for bad in burst]
        assert [loss.lost() for _ in range(self.STEPS)] == expected
        assert 0 < sum(expected) < self.STEPS
