"""One simulated link: the impairment pipeline, composed.

:class:`ChannelLink` is the wire between the ARQ sender and receiver.
``send_frame(cells, t)`` pushes a frame's AAL5 cells into the channel,
one every ``cell_interval`` ticks from simulated time ``t``, and
returns the deliveries they produce: per cell zero (lost or
overflowed), one, or two (duplicated).  ``send(payload, last, t)`` is
its one-cell case.  Impairments apply in a fixed order:

1. **bounded queue** -- admission control; overflow is a drop;
2. **loss** -- Gilbert burst chain, then independent loss;
3. **bit errors** -- Gilbert-Elliott per-state BER over the payload;
4. **delay** -- latency + jitter + explicit reordering;
5. **duplication** -- a second copy, ``duplicate_lag`` later.

Only the queue depends on time.  An overflowed cell steps no chain and
draws nothing, and every later stage decides from the plan's seeded
streams alone, so what happens to the ``k``-th *admitted* cell -- its
fate -- is a pure function of the plan and ``k``: the payload enters
only through an XOR mask.  :func:`plan_trajectory` therefore draws
each plan's fates once per process, in a :class:`Trajectory` that
every link on the plan reads by admitted ordinal; a link keeps only
its queue, its stats and its cursor into the fates.  That is also why
a recorded run replays bit-identically.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields
from functools import lru_cache

from repro.channel.impairments import (
    BoundedQueue,
    CellLoss,
    DelayProcess,
    DuplicateProcess,
    GilbertElliottBitErrors,
    apply_mask,
)
from repro.protocols.aal5 import CELL_PAYLOAD

__all__ = ["ChannelLink", "ChannelStats", "Trajectory", "plan_trajectory"]

#: The fate of a lost admitted cell.
LOST = None
#: The fate of a cell delivered once, unchanged, after the latency.
#: Other delivered cells get their own ``(xor_mask, flips,
#: jitter_term, reorder_term, duplicated)``; ``reorder_term`` is None
#: for a cell not held back.
INTACT = (0, 0, 0.0, None, False)


class Trajectory:
    """A plan's fates, by admitted-cell ordinal, grown on demand.

    ``fates[k]`` is :data:`LOST`, :data:`INTACT` or a fate tuple for the
    ``k``-th admitted cell.  :meth:`extend` draws more from the plan's
    impairment processes, whose streams and chain states the
    trajectory owns; it holds a lock, so links on one plan may send
    from several threads.
    """

    def __init__(self, plan):
        self.fates = []
        self._lock = threading.Lock()
        self._loss = CellLoss(plan)
        self._bit_errors = (
            GilbertElliottBitErrors(plan) if plan.bit_errors is not None
            else None
        )
        self._delay = DelayProcess(plan)
        self._duplicate = DuplicateProcess(plan)

    def extend(self, count):
        """Append the fates of the next ``count`` admitted cells.

        One loop runs every stage: the Gilbert chains step inline on
        the processes' own draw streams and are written back at the
        end, so the processes' states are those of ``count`` one-cell
        decisions.
        """
        with self._lock:
            self._extend(count)

    def _extend(self, count):
        loss = self._loss
        loss_rate = loss.loss_rate
        next_loss = loss.draws.__next__
        burst = loss.burst
        if burst is not None:
            burst_bad = burst.bad
            burst_enter, burst_exit = burst.p_enter_bad, burst.p_exit_bad
            next_burst = burst.draws.__next__
        errors = self._bit_errors
        if errors is not None:
            flip_mask = errors.flip_mask
            ber_good, ber_bad = errors.ber_good, errors.ber_bad
            state = errors.chain
            state_bad = state.bad
            state_enter, state_exit = state.p_enter_bad, state.p_exit_bad
            next_state = state.draws.__next__
        delay = self._delay
        jitter = delay.jitter
        reorder_rate, reorder_span = delay.reorder_rate, delay.reorder_span
        next_jitter = delay.jitter_draws.__next__
        next_reorder = delay.reorder_draws.__next__
        duplicate_rate = self._duplicate.rate
        next_duplicate = self._duplicate.draws.__next__

        append = self.fates.append
        for _ in range(count):
            dropped = False
            if burst is not None:
                dropped = burst_bad
                roll = next_burst()
                burst_bad = roll >= burst_exit if burst_bad else roll < burst_enter
            if loss_rate > 0.0 and next_loss() < loss_rate:
                dropped = True
            if dropped:
                append(LOST)
                continue
            mask = flips = 0
            if errors is not None:
                ber = ber_bad if state_bad else ber_good
                roll = next_state()
                state_bad = roll >= state_exit if state_bad else roll < state_enter
                if ber > 0.0:
                    mask, flips = flip_mask(ber)
            jitter_term = next_jitter() * jitter if jitter > 0.0 else 0.0
            reorder_term = None
            if reorder_rate > 0.0 and next_reorder() < reorder_rate:
                reorder_term = next_reorder() * reorder_span
            duplicated = duplicate_rate > 0.0 and next_duplicate() < duplicate_rate
            if flips or jitter_term or reorder_term is not None or duplicated:
                append((mask, flips, jitter_term, reorder_term, duplicated))
            else:
                append(INTACT)

        if burst is not None:
            burst.bad = burst_bad
        if errors is not None:
            state.bad = state_bad


@lru_cache(maxsize=8)
def plan_trajectory(plan):
    """The one :class:`Trajectory` of ``plan`` in this process.

    Bounded: eight plans cover every plan one experiment sweeps
    (``channel-goodput`` runs five), and an evicted plan draws the
    same fates again from its seeded streams.
    """
    return Trajectory(plan)


@dataclass
class ChannelStats:
    """What the wire did to the cells pushed through it."""

    cells_sent: int = 0
    cells_delivered: int = 0
    cells_lost: int = 0
    cells_errored: int = 0
    bits_flipped: int = 0
    cells_overflowed: int = 0
    cells_reordered: int = 0
    cells_duplicated: int = 0

    def to_dict(self):
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}


class ChannelLink:
    """A :class:`~repro.channel.plan.ChannelPlan`, running."""

    def __init__(self, plan):
        self.plan = plan
        self.stats = ChannelStats()
        self._queue = BoundedQueue(plan)
        self._trajectory = plan_trajectory(plan)
        self._cursor = 0

    def send(self, payload, last, t):
        """Push one cell into the channel at simulated time ``t``.

        Returns ``[(arrival_time, payload, last), ...]`` -- possibly
        empty (lost/overflowed), possibly two entries (duplicated).
        """
        deliveries, _ = self.send_frame(((payload, last),), t)
        return [(arrival, *cell) for arrival, cell in deliveries]

    def send_frame(self, cells, t):
        """Push ``(payload, last)`` cells in, one per ``cell_interval``.

        The first cell enters at ``t``.  Returns ``(deliveries,
        t_end)``: ``deliveries`` lists ``(arrival_time, cell)`` in send
        order, where ``cell`` is the pair as delivered (the object
        passed in unless bit errors rewrote its payload), and ``t_end``
        is when the next cell may enter.  Each admitted cell takes the
        next fate of the plan's trajectory.  On a plan with bit errors
        every payload must be 48 bytes (:class:`ValueError`
        otherwise), checked before any cell enters.
        """
        if self.plan.bit_errors is not None:
            for payload, _ in cells:
                if len(payload) != CELL_PAYLOAD:
                    raise ValueError(
                        "bit errors apply to %d-byte cell payloads, got %d "
                        "bytes" % (CELL_PAYLOAD, len(payload))
                    )
        trajectory = self._trajectory
        fates = trajectory.fates
        cursor = self._cursor
        short = cursor + len(cells) - len(fates)
        if short > 0:
            trajectory.extend(short)
        admit = self._queue.admit if self._queue.capacity is not None else None
        latency = self.plan.latency
        duplicate_lag = self.plan.duplicate_lag
        interval = self.plan.cell_interval

        deliveries = []
        deliver = deliveries.append
        overflowed = lost = errored = flipped = reordered = duplicated = 0
        for cell in cells:
            depart = t if admit is None else admit(t)
            t += interval
            if depart is None:
                overflowed += 1
                continue
            fate = fates[cursor]
            cursor += 1
            if fate is INTACT:
                deliver((depart + latency, cell))
                continue
            if fate is LOST:
                lost += 1
                continue
            mask, flips, jitter_term, reorder_term, twice = fate
            if flips:
                cell = (apply_mask(cell[0], mask), cell[1])
                errored += 1
                flipped += flips
            arrival = depart + latency + jitter_term
            if reorder_term is not None:
                arrival += reorder_term
                reordered += 1
            deliver((arrival, cell))
            if twice:
                duplicated += 1
                deliver((arrival + duplicate_lag, cell))

        self._cursor = cursor
        stats = self.stats
        stats.cells_sent += len(cells)
        stats.cells_delivered += len(deliveries)
        stats.cells_lost += lost
        stats.cells_errored += errored
        stats.bits_flipped += flipped
        stats.cells_overflowed += overflowed
        stats.cells_reordered += reordered
        stats.cells_duplicated += duplicated
        return deliveries, t
