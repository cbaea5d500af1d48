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

Chains step *per transmitted cell in wire order* regardless of what
downstream stages decide, so the channel's trajectory is a pure
function of the plan and the number of cells pushed through it --
which is exactly why a recorded run replays bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.channel.impairments import (
    BoundedQueue,
    CellLoss,
    DelayProcess,
    DuplicateProcess,
    GilbertElliottBitErrors,
)

__all__ = ["ChannelLink", "ChannelStats"]


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
        self._loss = CellLoss(plan)
        self._bit_errors = (
            GilbertElliottBitErrors(plan) if plan.bit_errors is not None
            else None
        )
        self._delay = DelayProcess(plan)
        self._duplicate = DuplicateProcess(plan)

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
        is when the next cell may enter.  One loop runs every stage;
        the Gilbert chains step inline on the processes' own draw
        streams and are written back at the end.
        """
        admit = self._queue.admit if self._queue.capacity is not None else None
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
            flip = errors.flip
            ber_good, ber_bad = errors.ber_good, errors.ber_bad
            state = errors.chain
            state_bad = state.bad
            state_enter, state_exit = state.p_enter_bad, state.p_exit_bad
            next_state = state.draws.__next__
        delay = self._delay
        latency, jitter = delay.latency, delay.jitter
        reorder_rate, reorder_span = delay.reorder_rate, delay.reorder_span
        next_jitter = delay.jitter_draws.__next__
        next_reorder = delay.reorder_draws.__next__
        duplicate_rate = self._duplicate.rate
        duplicate_lag = self._duplicate.lag
        next_duplicate = self._duplicate.draws.__next__
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
            dropped = False
            if burst is not None:
                dropped = burst_bad
                roll = next_burst()
                burst_bad = roll >= burst_exit if burst_bad else roll < burst_enter
            if loss_rate > 0.0 and next_loss() < loss_rate:
                dropped = True
            if dropped:
                lost += 1
                continue
            if errors is not None:
                ber = ber_bad if state_bad else ber_good
                roll = next_state()
                state_bad = roll >= state_exit if state_bad else roll < state_enter
                if ber > 0.0:
                    payload, flips = flip(cell[0], ber)
                    if flips:
                        cell = (payload, cell[1])
                        errored += 1
                        flipped += flips
            arrival = depart + latency
            if jitter > 0.0:
                arrival += next_jitter() * jitter
            if reorder_rate > 0.0 and next_reorder() < reorder_rate:
                arrival += next_reorder() * reorder_span
                reordered += 1
            deliver((arrival, cell))
            if duplicate_rate > 0.0 and next_duplicate() < duplicate_rate:
                duplicated += 1
                deliver((arrival + duplicate_lag, cell))

        if burst is not None:
            burst.bad = burst_bad
        if errors is not None:
            state.bad = state_bad
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
