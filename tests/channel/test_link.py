"""Tests for the composed link pipeline."""

import numpy as np
import pytest

from repro.channel.impairments import (
    BoundedQueue,
    CellLoss,
    DelayProcess,
    DuplicateProcess,
    GilbertElliottBitErrors,
)
from repro.channel.link import ChannelLink, ChannelStats
from repro.channel.plan import (
    ChannelPlan,
    channel_plan_names,
    named_channel_plan,
)


def drive(plan, cells=2_000):
    link = ChannelLink(plan)
    deliveries = []
    for index in range(cells):
        deliveries.extend(link.send(bytes([index % 251]) * 48, False, float(index)))
    return link, deliveries


class TestCleanLink:
    def test_everything_delivered_in_order(self):
        link, deliveries = drive(ChannelPlan(latency=8.0), cells=200)
        assert len(deliveries) == 200
        assert link.stats.cells_lost == 0
        arrivals = [t for t, _, _ in deliveries]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] == 8.0


class TestImpairedLink:
    def test_loss_counted(self):
        link, deliveries = drive(ChannelPlan(seed=2, loss_rate=0.1))
        assert link.stats.cells_lost > 0
        assert len(deliveries) == 2_000 - link.stats.cells_lost

    def test_bit_errors_counted_and_applied(self):
        plan = ChannelPlan(seed=3, bit_errors=(0.05, 0.25, 0.0, 0.01))
        link, deliveries = drive(plan)
        assert link.stats.cells_errored > 0
        assert link.stats.bits_flipped >= link.stats.cells_errored
        mutated = sum(
            1 for _, payload, _ in deliveries
            if len(set(payload)) > 1  # sent payloads are uniform bytes
        )
        assert mutated > 0
        assert all(len(p) == 48 for _, p, _ in deliveries)

    def test_overflow_drops(self):
        plan = ChannelPlan(queue_capacity=4, queue_service=5.0)
        link, deliveries = drive(plan, cells=100)
        assert link.stats.cells_overflowed > 0
        assert len(deliveries) < 100

    def test_duplicates_arrive_later(self):
        plan = ChannelPlan(seed=5, duplicate_rate=0.3, duplicate_lag=3.0)
        link, deliveries = drive(plan, cells=500)
        assert link.stats.cells_duplicated > 0
        assert len(deliveries) == 500 + link.stats.cells_duplicated

    def test_stats_to_dict(self):
        link, _ = drive(named_channel_plan("bursty-link", 7), cells=300)
        payload = link.stats.to_dict()
        assert payload["cells_sent"] == 300
        assert set(payload) >= {"cells_lost", "cells_errored", "bits_flipped"}


class TestDeterminism:
    def test_same_plan_same_trajectory(self):
        for name in ("lossy-link", "bursty-link", "reordering-link",
                     "congested-queue"):
            plan = named_channel_plan(name, seed=13)
            _, a = drive(plan, cells=800)
            _, b = drive(plan, cells=800)
            assert a == b, name


# -- the per-frame call ------------------------------------------------------

#: Every impairment at once, bit errors in both chain states included.
EVERYTHING = ChannelPlan(
    name="everything", seed=21, loss_rate=0.03, burst_loss=(0.04, 0.3),
    bit_errors=(0.05, 0.25, 0.0005, 0.01), jitter=0.7, reorder_rate=0.1,
    reorder_span=9.0, duplicate_rate=0.05, queue_capacity=6,
    queue_service=2.0,
)
PLANS = [named_channel_plan(name, seed=13) for name in channel_plan_names()]
PLANS.append(EVERYTHING)


def frame_schedule(count=300):
    """Frames of mixed cell counts and the time each one starts."""
    rng = np.random.default_rng(17)
    frames, starts, t = [], [], 0.0
    for index in range(count):
        cells = (1, 7, 3, 13, 2, 1, 5)[index % 7]
        payloads = rng.integers(0, 256, (cells, 48), dtype=np.uint8)
        frames.append(tuple(
            (payloads[c].tobytes(), c == cells - 1) for c in range(cells)
        ))
        # ARQ starts a frame when the wire frees up, or later; runs
        # of back-to-back frames are what fill a queue.
        t += float(rng.choice([0.0] * 9 + [2.5, 40.0]))
        starts.append(t)
        t += cells
    return frames, starts


def per_frame(plan, frames, starts):
    link, out, t_end = ChannelLink(plan), [], 0.0
    for cells, start in zip(frames, starts):
        deliveries, t_end = link.send_frame(cells, max(start, t_end))
        out.extend((arrival, *cell) for arrival, cell in deliveries)
    return out, link.stats


def per_cell(plan, frames, starts):
    link, out, t_end = ChannelLink(plan), [], 0.0
    for cells, start in zip(frames, starts):
        t = max(start, t_end)
        for payload, last in cells:
            out.extend(link.send(payload, last, t))
            t += plan.cell_interval
        t_end = t
    return out, link.stats


def per_process(plan, frames, starts):
    """The impairment processes' own methods, composed one cell at a
    time: the pipeline the frame loop inlines."""
    queue, loss = BoundedQueue(plan), CellLoss(plan)
    errors = (GilbertElliottBitErrors(plan) if plan.bit_errors is not None
              else None)
    delay, duplicate = DelayProcess(plan), DuplicateProcess(plan)
    stats, out, t_end = ChannelStats(), [], 0.0
    for cells, start in zip(frames, starts):
        t = max(start, t_end)
        for payload, last in cells:
            stats.cells_sent += 1
            depart = queue.admit(t)
            t += plan.cell_interval
            if depart is None:
                stats.cells_overflowed += 1
                continue
            if loss.lost():
                stats.cells_lost += 1
                continue
            if errors is not None:
                payload, flips = errors.corrupt(payload)
                if flips:
                    stats.cells_errored += 1
                    stats.bits_flipped += flips
            arrival, reordered = delay.arrival(depart)
            stats.cells_reordered += reordered
            out.append((arrival, payload, last))
            if duplicate.duplicated():
                stats.cells_duplicated += 1
                out.append((arrival + duplicate.lag, payload, last))
        t_end = t
    stats.cells_delivered = len(out)
    return out, stats


class TestFrameCall:
    @pytest.mark.parametrize("plan", PLANS, ids=lambda plan: plan.name)
    def test_frames_equal_one_send_per_cell(self, plan):
        frames, starts = frame_schedule()
        framed, framed_stats = per_frame(plan, frames, starts)
        celled, celled_stats = per_cell(plan, frames, starts)
        assert framed == celled
        assert framed_stats == celled_stats

    @pytest.mark.parametrize("plan", PLANS, ids=lambda plan: plan.name)
    def test_frames_equal_the_processes_composed(self, plan):
        frames, starts = frame_schedule()
        framed, framed_stats = per_frame(plan, frames, starts)
        composed, composed_stats = per_process(plan, frames, starts)
        assert framed == composed
        assert framed_stats == composed_stats

    def test_every_stage_fires_on_the_full_plan(self):
        frames, starts = frame_schedule()
        _, stats = per_frame(EVERYTHING, frames, starts)
        assert all(stats.to_dict().values()), stats

    def test_intact_cells_are_delivered_as_sent(self):
        cells = ((b"a" * 48, False), (b"b" * 48, True))
        deliveries, t_end = ChannelLink(ChannelPlan()).send_frame(cells, 5.0)
        assert [cell for _, cell in deliveries] == list(cells)
        assert all(cell is sent for (_, cell), sent in zip(deliveries, cells))
        assert [arrival for arrival, _ in deliveries] == [13.0, 14.0]
        assert t_end == 7.0
