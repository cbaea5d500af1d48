"""Tests for sampled splice enumeration and the engine's sampling mode."""

import numpy as np
import pytest

from repro.core.engine import EngineOptions, SpliceEngine
from repro.core.enumeration import (
    enumerate_splices,
    sample_splices,
    structural_splice_count,
)
from repro.corpus.generators import generate
from repro.protocols.ftpsim import FileTransferSimulator
from repro.protocols.packetizer import PacketizerConfig


class TestSampleSplices:
    def test_small_shapes_fall_back_to_exact(self):
        enum = sample_splices(7, 7, 10_000)
        assert enum.splices == structural_splice_count(7, 7)

    def test_sampled_rows_are_valid_selections(self):
        enum = sample_splices(13, 13, 5_000)
        assert enum.splices == 5_000
        assert (np.diff(enum.selection, axis=1) > 0).all()
        assert enum.selection.min() >= 0
        assert enum.selection.max() < 24
        # No duplicates, no intact row.
        rows = {tuple(r) for r in enum.selection}
        assert len(rows) == 5_000
        assert tuple(range(12, 24)) not in rows

    def test_derived_arrays_consistent(self):
        enum = sample_splices(13, 13, 2_000)
        expected = (enum.selection >= 12).sum(axis=1) + 1
        assert (enum.substitution_len == expected).all()

    def test_cached(self):
        assert sample_splices(13, 13, 2_000) is sample_splices(13, 13, 2_000)

    def test_seed_changes_sample(self):
        a = sample_splices(13, 13, 2_000, seed=1)
        b = sample_splices(13, 13, 2_000, seed=2)
        assert not np.array_equal(a.selection, b.selection)


class TestEngineSampling:
    def test_sampling_unbiased_rate(self):
        # On a 7-cell corpus the sampled estimate should track the
        # exact rate closely.
        data = generate("gmon", 50_000, 3)
        wire = FileTransferSimulator().wire(data)
        exact = SpliceEngine(EngineOptions(aux_crcs=())).evaluate_stream(wire)
        sampled = SpliceEngine(
            EngineOptions(aux_crcs=(), sample_splices=400)
        ).evaluate_stream(wire)
        assert sampled.total < exact.total
        assert exact.miss_rate_transport > 1
        assert sampled.miss_rate_transport == pytest.approx(
            exact.miss_rate_transport, rel=0.5
        )

    def test_large_mss_runs_within_budget(self):
        config = PacketizerConfig(mss=1024)
        wire = FileTransferSimulator(config).wire(generate("english", 30_000, 1))
        options = EngineOptions.from_packetizer(
            config, sample_splices=2_000, aux_crcs=()
        )
        counters = SpliceEngine(options).evaluate_stream(wire)
        # 23-cell packets: exact enumeration would be ~2 * 10^12 rows.
        assert 0 < counters.total <= 2_000 * counters.pairs
        counters.sanity_check()

    def test_exact_mode_still_caps(self):
        config = PacketizerConfig(mss=1024)
        wire = FileTransferSimulator(config).wire(bytes(4000))
        engine = SpliceEngine(EngineOptions(aux_crcs=(), max_splices=1000))
        with pytest.raises(ValueError, match="max_splices"):
            engine.evaluate_stream(wire)
