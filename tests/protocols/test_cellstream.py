"""Tests for cell streams, loss processes and AAL5 reassembly."""

import numpy as np
import pytest

from repro.corpus.generators import generate
from repro.protocols.cellstream import (
    AAL5Reassembler,
    EarlyPacketDiscard,
    GilbertLoss,
    IndependentLoss,
    MarkedCell,
    apply_loss,
    stream_cells,
)
from repro.protocols.ftpsim import FileTransferSimulator


def reassemble(cells):
    """The frames an :class:`AAL5Reassembler` completes from ``cells``."""
    reassembler = AAL5Reassembler()
    frames = [reassembler.feed(cell) for cell in cells]
    return [frame for frame in frames if frame is not None]


@pytest.fixture
def units():
    return FileTransferSimulator().transfer(generate("english", 1200, 1))


class TestStreamCells:
    def test_marking_and_counts(self, units):
        cells = stream_cells(units)
        assert len(cells) == sum(u.frame.cell_count for u in units)
        marked = [c for c in cells if c.last]
        assert len(marked) == len(units)
        assert cells[-1].last

    def test_frame_indices(self, units):
        cells = stream_cells(units)
        assert cells[0].frame_index == 0
        assert cells[-1].frame_index == len(units) - 1


class TestLossProcesses:
    def test_independent_rate(self):
        model = IndependentLoss(0.3)
        rng = np.random.default_rng(0)
        mask = model.keep_mask(200_000, rng)
        assert abs((~mask).mean() - 0.3) < 0.01

    def test_independent_validation(self):
        with pytest.raises(ValueError):
            IndependentLoss(1.0)
        with pytest.raises(ValueError):
            IndependentLoss(-0.1)

    def test_zero_loss_keeps_everything(self, units):
        cells = stream_cells(units)
        delivered = apply_loss(cells, IndependentLoss(0.0),
                               np.random.default_rng(0))
        assert delivered == cells

    def test_gilbert_burstiness(self):
        # Losses cluster into runs.  The cell that enters the bad state
        # is dropped as well as the one or more cells spent in it, and
        # a run goes on while the next good-state cell enters it again,
        # so a run is at least 2 cells and its mean length is
        # (1 + 1/p_recover) / (1 - p_bad) = 6.12 cells here.
        rng = np.random.default_rng(1)
        model = GilbertLoss(p_bad=0.02, p_recover=0.2)
        losses = ~model.keep_mask(200_000, rng)
        edges = np.flatnonzero(np.diff(np.concatenate(([0], losses, [0]))))
        runs = edges[1::2] - edges[::2]
        expected = (1 + 1 / 0.2) / (1 - 0.02)
        assert abs(runs.mean() - expected) < 0.05 * expected
        assert runs.min() == 2
        assert 0.05 < losses.mean() < 0.2

    def test_gilbert_validation(self):
        with pytest.raises(ValueError):
            GilbertLoss(0, 0.5)
        with pytest.raises(ValueError):
            GilbertLoss(0.1, 0)

    def test_early_packet_discard_drops_frame_tails(self, units):
        cells = stream_cells(units)
        rng = np.random.default_rng(2)
        mask = EarlyPacketDiscard(IndependentLoss(0.2)).apply(cells, rng)
        # Within each frame, once dropped always dropped.
        position = 0
        for unit in units:
            n = unit.frame.cell_count
            frame_mask = mask[position : position + n]
            seen_drop = False
            for kept in frame_mask:
                if seen_drop:
                    assert not kept
                seen_drop = seen_drop or not kept
            position += n


class TestReassembler:
    def test_lossless_roundtrip(self, units):
        frames = reassemble(stream_cells(units))
        assert len(frames) == len(units)
        for frame, unit in zip(frames, units):
            assert b"".join(frame) == unit.frame.frame

    def test_splice_formed_when_marked_cell_lost(self, units):
        cells = stream_cells(units)
        # Drop exactly the first frame's marked cell.
        first_marked = next(i for i, c in enumerate(cells) if c.last)
        delivered = cells[:first_marked] + cells[first_marked + 1 :]
        frames = reassemble(delivered)
        assert len(frames) == len(units) - 1
        # The first reassembled "frame" is the splice of frames 0 and 1.
        expected = units[0].frame.cell_count - 1 + units[1].frame.cell_count
        assert len(frames[0]) == expected

    def test_oversize_guard(self):
        reassembler = AAL5Reassembler(max_cells=3)
        filler = [MarkedCell(bytes(48), last=False)] * 5
        for cell in filler:
            assert reassembler.feed(cell) is None
        assert reassembler.oversized_discards == 1
        assert reassembler.pending_cells < 3

    def test_pending_state(self):
        reassembler = AAL5Reassembler()
        reassembler.feed(MarkedCell(bytes(48), last=False))
        assert reassembler.pending_cells == 1
        frame = reassembler.feed(MarkedCell(bytes(48), last=True))
        assert frame is not None and len(frame) == 2
        assert reassembler.pending_cells == 0
