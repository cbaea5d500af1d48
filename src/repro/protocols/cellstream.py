"""Cell streams, loss processes, and AAL5 reassembly.

The splice engine enumerates splices combinatorially; this module
builds the *physical* story they abstract: a stream of ATM cells (with
AAL5 end-of-frame marking), a loss process that drops some of them,
and the receiver-side reassembler that turns whatever arrives back
into frames.  The Monte Carlo driver in :mod:`repro.core.montecarlo`
uses it to cross-validate the enumeration.

Loss processes:

* :class:`IndependentLoss` -- each cell dropped with probability ``p``
  (under which, notably, every splice of an adjacent pair is equally
  likely -- every splice keeps the same number of cells -- matching
  the paper's uniform treatment of substitutions);
* :class:`GilbertLoss` -- a two-state burst-loss channel;
* :class:`EarlyPacketDiscard` -- wraps another process and, once a
  cell of a frame is lost, drops the rest of that frame: the Section 7
  remedy that eliminates valid splices entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "AAL5Reassembler",
    "EarlyPacketDiscard",
    "GilbertLoss",
    "IndependentLoss",
    "MarkedCell",
    "apply_loss",
    "stream_cells",
]


@dataclass(frozen=True)
class MarkedCell:
    """A cell payload plus the AAL5 end-of-frame marking."""

    payload: bytes
    last: bool
    frame_index: int = -1


def stream_cells(units):
    """The wire cell sequence of a transfer's :class:`TransferUnit` list."""
    cells = []
    for frame_index, unit in enumerate(units):
        payloads = unit.frame.cells()
        final = len(payloads) - 1
        for cell_index, payload in enumerate(payloads):
            cells.append(
                MarkedCell(
                    payload=payload.tobytes(),
                    last=cell_index == final,
                    frame_index=frame_index,
                )
            )
    return cells


class IndependentLoss:
    """Drop each cell independently with probability ``p``."""

    def __init__(self, p):
        if not 0 <= p < 1:
            raise ValueError("loss probability must be in [0, 1)")
        self.p = p

    def keep_mask(self, n, rng):
        return rng.random(n) >= self.p


class GilbertLoss:
    """A two-state (good/bad) burst-loss channel.

    In the good state a cell survives unless it enters the bad state
    (probability ``p_bad``), and that cell is dropped too; the bad state
    drops every cell until recovery (probability ``p_recover`` per
    cell).  A burst is therefore at least 2 cells, and as the next
    good-state cell may enter the bad state again, the mean burst is
    ``(1 + 1/p_recover) / (1 - p_bad)`` cells.
    """

    def __init__(self, p_bad, p_recover):
        if not 0 < p_bad < 1 or not 0 < p_recover <= 1:
            raise ValueError("transition probabilities must be in (0, 1]")
        self.p_bad = p_bad
        self.p_recover = p_recover

    def keep_mask(self, n, rng):
        mask = np.ones(n, dtype=bool)
        bad = False
        draws = rng.random(n)
        for i in range(n):
            if bad:
                mask[i] = False
                bad = draws[i] >= self.p_recover
            else:
                if draws[i] < self.p_bad:
                    mask[i] = False
                    bad = True
        return mask


class EarlyPacketDiscard:
    """Wrap a loss process with per-frame tail dropping (Section 7)."""

    def __init__(self, inner):
        self.inner = inner

    def apply(self, cells, rng):
        mask = self.inner.keep_mask(len(cells), rng)
        discarding = False
        for i, cell in enumerate(cells):
            if discarding:
                mask[i] = False
            elif not mask[i]:
                discarding = True
            if cell.last:
                discarding = False
        return mask


def apply_loss(cells, model, rng):
    """Return the delivered subsequence of ``cells`` under ``model``."""
    if isinstance(model, EarlyPacketDiscard):
        mask = model.apply(cells, rng)
    else:
        mask = model.keep_mask(len(cells), rng)
    return [cell for cell, kept in zip(cells, mask) if kept]


class AAL5Reassembler:
    """Receiver-side AAL5 reassembly over a (possibly lossy) stream.

    Cells accumulate until a marked cell arrives, at which point the
    accumulated payloads form one candidate CPCS-PDU.  Real receivers
    bound the reassembly buffer; frames exceeding ``max_cells`` are
    discarded (and counted) rather than grown without limit.
    """

    def __init__(self, max_cells=1366):  # 65535-byte SDU limit
        self.max_cells = max_cells
        self._pending = []
        self.oversized_discards = 0

    def feed(self, cell):
        """Feed one delivered cell; returns a frame's cells or None."""
        return self.feed_payload(cell.payload, cell.last)

    def feed_payload(self, payload, last):
        """:meth:`feed` for a bare cell payload and its end-of-frame mark."""
        pending = self._pending
        pending.append(payload)
        if len(pending) > self.max_cells:
            pending.clear()
            self.oversized_discards += 1
            return None
        if last:
            self._pending = []
            return pending
        return None

    @property
    def pending_cells(self):
        return len(self._pending)
