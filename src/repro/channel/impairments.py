"""Pluggable link impairments, each owning a derived RNG stream.

Every process here is a small state machine driven once per
transmitted cell, in wire order, from its own
``numpy.random.default_rng(plan.derive(stream))`` generator.  Because
no two processes share a generator, the decisions of one impairment
never shift another's draw sequence -- turning jitter on cannot change
which cells the loss chain drops.  Retransmitted cells step the same
chains as first transmissions (the channel does not know about ARQ),
so a retransmission sees fresh channel state, exactly like a real
link.

The Gilbert and Gilbert-Elliott chains are the burst models Koopman's
checksum work and the Jepsen corruption study argue real links need:
errors cluster, and detection behaviour under clustered errors is the
measurement the independent-loss model cannot produce.

Processes that draw only uniforms take them from :func:`_uniforms`,
which draws ``_UNIFORM_BLOCK`` at a time: ``Generator.random(k)`` yields
the same doubles as ``k`` scalar ``random()`` calls, so every decision
is what per-cell calls would give.

Each process's methods decide one cell at a time.
:meth:`repro.channel.link.ChannelLink.send_frame` makes the same
decisions for a whole frame in one loop: it steps the chains inline
and reads the same ``draws`` streams, so a process's state is the same
whichever way its cells went through.
"""

from __future__ import annotations

from collections import deque
from itertools import chain

import numpy as np

__all__ = [
    "BoundedQueue",
    "CellLoss",
    "DelayProcess",
    "DuplicateProcess",
    "GilbertChain",
    "GilbertElliottBitErrors",
]

_UNIFORM_BLOCK = 256


def _uniforms(rng):
    """``rng.random()``, one ``next()`` at a time, drawn in blocks."""
    return chain.from_iterable(
        iter(lambda: rng.random(_UNIFORM_BLOCK).tolist(), None)
    )


class GilbertChain:
    """A two-state (good/bad) Markov chain, stepped once per cell.

    :meth:`step` returns the state that applies to the *current* cell,
    then draws exactly one uniform to decide the transition -- one draw
    per cell, always, so the chain's trajectory is a pure function of
    its seed and the number of cells seen.
    """

    def __init__(self, rng, p_enter_bad, p_exit_bad):
        self.draws = _uniforms(rng)
        self.p_enter_bad = float(p_enter_bad)
        self.p_exit_bad = float(p_exit_bad)
        self.bad = False

    def step(self):
        current = self.bad
        roll = next(self.draws)
        if self.bad:
            if roll < self.p_exit_bad:
                self.bad = False
        elif roll < self.p_enter_bad:
            self.bad = True
        return current


class CellLoss:
    """Cell loss: an optional Gilbert burst chain plus independent loss.

    A cell sent while the burst chain is in its bad state is always
    lost (the classic Gilbert model); survivors then face the
    memoryless ``loss_rate`` coin -- the paper's own model, retained as
    the baseline regime.
    """

    def __init__(self, plan):
        self.loss_rate = plan.loss_rate
        self.draws = _uniforms(np.random.default_rng(plan.derive("loss")))
        self.burst = None
        if plan.burst_loss is not None:
            self.burst = GilbertChain(
                np.random.default_rng(plan.derive("burst-loss")),
                *plan.burst_loss,
            )

    def lost(self):
        """Is the current cell lost?  (Steps both processes.)"""
        burst_lost = self.burst.step() if self.burst is not None else False
        independent_lost = (
            self.loss_rate > 0.0 and next(self.draws) < self.loss_rate
        )
        return burst_lost or independent_lost


class GilbertElliottBitErrors:
    """Gilbert-Elliott bit errors: per-state BER applied per cell.

    The chain steps once per cell; the applicable state's bit-error
    rate then flips a binomially-drawn number of distinct bit
    positions in the payload.  A zero BER skips the payload draws, but
    the chain itself always advances, keeping its trajectory aligned
    with the cell stream.
    """

    def __init__(self, plan):
        p_enter, p_exit, ber_good, ber_bad = plan.bit_errors
        self.chain = GilbertChain(
            np.random.default_rng(plan.derive("bit-error-state")),
            p_enter, p_exit,
        )
        self._rng = np.random.default_rng(plan.derive("bit-error-bits"))
        self.ber_good = ber_good
        self.ber_bad = ber_bad

    def corrupt(self, payload):
        """``(payload', flipped_bits)`` for the current cell."""
        bad = self.chain.step()
        ber = self.ber_bad if bad else self.ber_good
        if ber <= 0.0:
            return payload, 0
        return self.flip(payload, ber)

    def flip(self, payload, ber):
        """``(payload', flipped_bits)`` at bit-error rate ``ber`` > 0."""
        nbits = len(payload) * 8
        flips = int(self._rng.binomial(nbits, ber))
        if not flips:
            return payload, 0
        positions = self._rng.choice(nbits, size=flips, replace=False)
        mutated = bytearray(payload)
        for position in positions:
            mutated[int(position) >> 3] ^= 1 << (int(position) & 7)
        return bytes(mutated), flips


class BoundedQueue:
    """A deterministic bounded FIFO ahead of the wire.

    The queue is modelled by its departure times: occupancy at ``t``
    is the number of already-admitted cells that have not yet departed.
    Admission when full is an overflow drop -- the congestion regime.
    A plan without a capacity bypasses the queue entirely (cells enter
    the wire at their send time).
    """

    def __init__(self, plan):
        self.capacity = (
            int(plan.queue_capacity) if plan.queue_capacity is not None
            else None
        )
        self.service = plan.queue_service
        self._departures = deque()

    def admit(self, t):
        """Departure time of a cell arriving at ``t``, or None (drop)."""
        if self.capacity is None:
            return t
        departures = self._departures
        while departures and departures[0] <= t:
            departures.popleft()
        if len(departures) >= self.capacity:
            return None
        start = departures[-1] if departures else t
        depart = max(start, t) + self.service
        departures.append(depart)
        return depart


class DelayProcess:
    """Propagation latency, jitter, and explicit reordering.

    Every cell pays the base latency; a positive ``jitter`` adds a
    uniform draw, and with probability ``reorder_rate`` a cell is held
    back a further uniform ``[0, reorder_span)`` ticks -- enough to
    land after cells transmitted later, which is what makes frames
    interleave at the receiver.
    """

    def __init__(self, plan):
        self.latency = plan.latency
        self.jitter = plan.jitter
        self.reorder_rate = plan.reorder_rate
        self.reorder_span = plan.reorder_span
        self.jitter_draws = _uniforms(np.random.default_rng(plan.derive("jitter")))
        self.reorder_draws = _uniforms(np.random.default_rng(plan.derive("reorder")))

    def arrival(self, depart):
        """``(arrival_time, reordered?)`` for a cell leaving at ``depart``."""
        arrival = depart + self.latency
        if self.jitter > 0.0:
            arrival += next(self.jitter_draws) * self.jitter
        reordered = False
        if self.reorder_rate > 0.0:
            if next(self.reorder_draws) < self.reorder_rate:
                arrival += next(self.reorder_draws) * self.reorder_span
                reordered = True
        return arrival, reordered


class DuplicateProcess:
    """Cell duplication: a delivered cell arrives again, a bit later."""

    def __init__(self, plan):
        self.rate = plan.duplicate_rate
        self.lag = plan.duplicate_lag
        self.draws = _uniforms(np.random.default_rng(plan.derive("duplicate")))

    def duplicated(self):
        """Does the current delivered cell get a second copy?"""
        return self.rate > 0.0 and next(self.draws) < self.rate
