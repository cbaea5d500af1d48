"""Tests for the Monte Carlo drop-and-reassemble simulation."""

import pytest

from repro.core.engine import EngineOptions, SpliceEngine
from repro.core.montecarlo import MonteCarloTally, run_monte_carlo
from repro.corpus.generators import generate
from repro.protocols.cellstream import (
    EarlyPacketDiscard,
    GilbertLoss,
    IndependentLoss,
)
from repro.protocols.ftpsim import FileTransferSimulator
from repro.protocols.packetizer import ChecksumPlacement, PacketizerConfig

CONFIG = PacketizerConfig()
OPTIONS = EngineOptions.from_packetizer(CONFIG, aux_crcs=())


def transfer(kind, size, seed=3):
    return FileTransferSimulator(CONFIG).transfer(generate(kind, size, seed))


class TestBasics:
    def test_no_loss_delivers_everything_intact(self):
        units = transfer("english", 3000)
        tally = run_monte_carlo(units, IndependentLoss(0.0), OPTIONS, trials=2)
        assert tally.frames_received == 2 * len(units)
        assert tally.delivered_intact == tally.frames_received
        assert tally.corrupted_frames == 0

    def test_tally_sanity_and_addition(self):
        units = transfer("gmon", 8000)
        a = run_monte_carlo(units, IndependentLoss(0.2), OPTIONS, trials=5, seed=1)
        b = run_monte_carlo(units, IndependentLoss(0.2), OPTIONS, trials=5, seed=2)
        merged = a + b
        assert merged.frames_received == a.frames_received + b.frames_received
        assert merged.sanity_check()

    def test_deterministic_given_seed(self):
        units = transfer("gmon", 5000)
        a = run_monte_carlo(units, IndependentLoss(0.25), OPTIONS, trials=4, seed=7)
        b = run_monte_carlo(units, IndependentLoss(0.25), OPTIONS, trials=4, seed=7)
        assert a == b


class TestDetectionAccounting:
    def test_losses_produce_detections(self):
        units = transfer("gmon", 20_000)
        tally = run_monte_carlo(units, IndependentLoss(0.25), OPTIONS,
                                trials=20, seed=1)
        assert tally.cells_delivered < tally.cells_sent
        assert tally.detected_length > 0
        # On zero-heavy gmon data some splices are benign-identical.
        assert tally.frames_received > 0

    def test_transport_misses_are_crc_caught(self):
        # The paper: "There were no splices missed by both CRC and the
        # TCP checksum" -- at our scale undetected corruption never
        # survives the CRC.
        units = transfer("gmon", 30_000)
        tally = run_monte_carlo(units, IndependentLoss(0.25), OPTIONS,
                                trials=40, seed=2)
        assert tally.transport_missed >= 0
        assert tally.undetected_corruption == 0
        assert tally.detected_by_transport_only == 0  # CRC never the weak one

    def test_epd_eliminates_corruption(self):
        units = transfer("gmon", 20_000)
        tally = run_monte_carlo(
            units, EarlyPacketDiscard(IndependentLoss(0.25)), OPTIONS,
            trials=20, seed=3,
        )
        assert tally.corrupted_frames == 0
        assert tally.undetected_corruption == 0

    def test_rate_agrees_with_enumeration(self):
        # Statistical cross-check of the whole pipeline: the Monte
        # Carlo transport-miss rate over corrupted frames should agree
        # with the exact enumeration's within sampling noise.
        units = transfer("gmon", 60_000)
        tally = run_monte_carlo(units, IndependentLoss(0.25), OPTIONS,
                                trials=120, seed=4)
        wire = FileTransferSimulator(CONFIG).wire(generate("gmon", 60_000, 3))
        counters = SpliceEngine(OPTIONS).evaluate_stream(wire)
        assert tally.corrupted_frames > 50
        mc = tally.transport_miss_rate
        exact = counters.miss_rate_transport
        assert exact > 1.0  # gmon is a strong-signal corpus
        # Loose 3-sigma-ish binomial bound.
        import math

        sigma = 100 * math.sqrt(
            exact / 100 * (1 - exact / 100) / tally.corrupted_frames
        )
        assert abs(mc - exact) < max(4 * sigma, 2.0)


class TestTrailerPlacement:
    def test_trailer_spurious_rejections_observed(self):
        config = CONFIG.with_overrides(placement=ChecksumPlacement.TRAILER)
        options = EngineOptions.from_packetizer(config, aux_crcs=())
        units = FileTransferSimulator(config).transfer(bytes(20_000))
        tally = run_monte_carlo(units, IndependentLoss(0.25), options,
                                trials=30, seed=5)
        # All-zero payloads: splices deliver identical data, and the
        # trailer checksum (computed with the other packet's sequence
        # number) rejects them -- benign spurious rejections.
        assert tally.spurious_rejects > 0
        assert tally.undetected_corruption == 0


def test_tally_fields_complete():
    tally = MonteCarloTally()
    assert tally.corrupted_frames == 0
    assert tally.transport_miss_rate == 0.0
    assert tally.sanity_check()


class TestSpanTracking:
    def test_spans_accounted(self):
        units = transfer("gmon", 20_000)
        tally = run_monte_carlo(units, IndependentLoss(0.25), OPTIONS,
                                trials=20, seed=9)
        assert sum(tally.corrupted_by_span.values()) == tally.corrupted_frames
        if tally.corrupted_by_span:
            assert min(tally.corrupted_by_span) >= 2

    def test_bursty_loss_reaches_wider_spans(self):
        # Bursty losses can take out consecutive marked cells, forming
        # splices that span three or more original frames -- the case
        # the two-packet enumeration abstracts away.
        units = transfer("gmon", 40_000)
        tally = run_monte_carlo(units, GilbertLoss(0.05, 0.2), OPTIONS,
                                trials=80, seed=1)
        assert tally.corrupted_frames > 20
        assert max(tally.corrupted_by_span) >= 3

    def test_span_merge(self):
        units = transfer("gmon", 15_000)
        a = run_monte_carlo(units, IndependentLoss(0.3), OPTIONS, trials=10,
                            seed=1)
        b = run_monte_carlo(units, IndependentLoss(0.3), OPTIONS, trials=10,
                            seed=2)
        merged = a + b
        for span in set(a.corrupted_by_span) | set(b.corrupted_by_span):
            assert merged.corrupted_by_span[span] == (
                a.corrupted_by_span.get(span, 0) + b.corrupted_by_span.get(span, 0)
            )
