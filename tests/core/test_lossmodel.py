"""Tests for the loss-model weighting of the enumeration."""

import numpy as np
import pytest

from repro.core.engine import EngineOptions, SpliceEngine
from repro.core.enumeration import enumerate_splices
from repro.core.lossmodel import (
    selection_keep_patterns,
    splice_pattern_probabilities,
    weighted_splice_rates,
)
from repro.corpus.generators import generate
from repro.protocols.cellstream import GilbertLoss, IndependentLoss
from repro.protocols.ftpsim import FileTransferSimulator
from repro.protocols.packetizer import PacketizerConfig


class TestKeepPatterns:
    def test_shape_and_invariants(self):
        enum = enumerate_splices(7, 7)
        patterns = selection_keep_patterns(enum)
        assert patterns.shape == (923, 14)
        assert (patterns.sum(axis=1) == 7).all()  # n2 cells kept, always
        assert not patterns[:, 6].any()  # frame 1's marked cell dropped
        assert patterns[:, 13].all()  # frame 2's marked cell kept

    def test_asymmetric_pair(self):
        enum = enumerate_splices(7, 3)
        patterns = selection_keep_patterns(enum)
        assert patterns.shape == (enum.splices, 10)
        assert (patterns.sum(axis=1) == 3).all()

    def test_wire_mapping(self):
        # A splice keeping candidates [0, 1] of a (3, 3) pair keeps wire
        # positions [0, 1] or includes positions after the skipped
        # marked cell (index 2) for second-frame candidates.
        enum = enumerate_splices(3, 3)
        patterns = selection_keep_patterns(enum)
        for row, selection in zip(patterns, enum.selection):
            for candidate in selection:
                wire = candidate if candidate < 2 else candidate + 1
                assert row[wire]


class TestPatternProbabilities:
    def test_iid_uniform_over_splices(self):
        enum = enumerate_splices(7, 7)
        weights = splice_pattern_probabilities(enum, IndependentLoss(0.37))
        assert np.allclose(weights, weights[0])
        expected = (1 - 0.37) ** 7 * 0.37 ** 7
        assert weights[0] == pytest.approx(expected)

    def test_gilbert_matches_monte_carlo(self):
        enum = enumerate_splices(4, 4)
        model = GilbertLoss(0.15, 0.5)
        weights = splice_pattern_probabilities(enum, model)
        patterns = selection_keep_patterns(enum)
        # Pick the highest-weight pattern (contiguous drops) and verify
        # its probability by simulation.
        target_row = int(np.argmax(weights))
        target = patterns[target_row]
        rng = np.random.default_rng(0)
        trials = 150_000
        hits = sum(
            (model.keep_mask(8, rng) == target).all() for _ in range(trials)
        )
        assert weights[target_row] == pytest.approx(hits / trials, abs=4e-3)

    def test_gilbert_prefers_contiguous_drops(self):
        enum = enumerate_splices(7, 7)
        model = GilbertLoss(0.05, 0.3)
        weights = splice_pattern_probabilities(enum, model)
        patterns = selection_keep_patterns(enum)
        # The prefix-splice (drop a contiguous tail+head block) should
        # outweigh a maximally fragmented drop pattern.
        drops = ~patterns
        def fragmentation(row):
            return int(np.diff(drops[row].astype(int)).clip(min=0).sum())
        most_contiguous = min(range(len(weights)), key=fragmentation)
        most_fragmented = max(range(len(weights)), key=fragmentation)
        assert weights[most_contiguous] > 5 * weights[most_fragmented]

    def test_probabilities_sum_below_one(self):
        enum = enumerate_splices(5, 5)
        for model in (IndependentLoss(0.2), GilbertLoss(0.1, 0.4)):
            weights = splice_pattern_probabilities(enum, model)
            assert 0 < weights.sum() < 1  # splices are rare events

    def test_unsupported_model(self):
        enum = enumerate_splices(3, 3)
        with pytest.raises(TypeError):
            splice_pattern_probabilities(enum, object())


class TestWeightedRates:
    @pytest.fixture
    def units(self):
        return FileTransferSimulator().transfer(generate("gmon", 20_000, 3))

    def test_iid_conditional_equals_engine_rate(self, units):
        options = EngineOptions(aux_crcs=())
        rates = weighted_splice_rates(units, IndependentLoss(0.15), options)
        wire = FileTransferSimulator().wire(generate("gmon", 20_000, 3))
        counters = SpliceEngine(options).evaluate_stream(wire)
        assert rates["conditional_miss_pct"] == pytest.approx(
            counters.miss_rate_transport
        )

    def test_iid_conditional_independent_of_p(self, units):
        options = EngineOptions(aux_crcs=())
        a = weighted_splice_rates(units, IndependentLoss(0.05), options)
        b = weighted_splice_rates(units, IndependentLoss(0.4), options)
        assert a["conditional_miss_pct"] == pytest.approx(b["conditional_miss_pct"])
        assert a["p_transport_miss"] < b["p_transport_miss"]

    def test_gilbert_changes_conditional(self, units):
        options = EngineOptions(aux_crcs=())
        iid = weighted_splice_rates(units, IndependentLoss(0.2), options)
        burst = weighted_splice_rates(units, GilbertLoss(0.05, 0.3), options)
        assert burst["conditional_miss_pct"] != pytest.approx(
            iid["conditional_miss_pct"]
        )
        assert burst["pairs"] == iid["pairs"] > 0
