"""Tests for the splice enumeration combinatorics."""

from math import comb

import numpy as np
import pytest

from repro.core.enumeration import (
    enumerate_splices,
    splice_count,
    structural_splice_count,
)


class TestCounts:
    def test_paper_7_cell_counts(self):
        # Section 4.6: C(2m-3, m-2) = 462 header-led splices for m = 7.
        assert splice_count(7) == 462
        assert structural_splice_count(7, 7) == comb(12, 6) - 1 == 923

    def test_structural_count_formula(self):
        for n1 in range(2, 8):
            for n2 in range(2, 8):
                enum = enumerate_splices(n1, n2)
                assert enum.splices == structural_splice_count(n1, n2)

    def test_tiny_frames_cannot_splice(self):
        assert enumerate_splices(1, 7).splices == 0
        assert enumerate_splices(7, 1).splices == 0
        assert splice_count(1) == 0

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            structural_splice_count(0, 5)


class TestSelectionMatrix:
    def test_rows_strictly_increasing(self):
        enum = enumerate_splices(5, 6)
        assert (np.diff(enum.selection, axis=1) > 0).all()

    def test_rows_unique(self):
        enum = enumerate_splices(5, 5)
        rows = {tuple(row) for row in enum.selection}
        assert len(rows) == enum.splices

    def test_indices_in_candidate_range(self):
        enum = enumerate_splices(4, 6)
        candidates = (4 - 1) + (6 - 1)
        assert enum.selection.min() >= 0
        assert enum.selection.max() < candidates

    def test_intact_second_frame_excluded(self):
        enum = enumerate_splices(7, 7)
        intact = tuple(range(6, 12))
        assert intact not in {tuple(row) for row in enum.selection}

    def test_header_led_rows_match_paper_count(self):
        enum = enumerate_splices(7, 7)
        assert int((enum.selection[:, 0] == 0).sum()) == splice_count(7)


class TestDerivedArrays:
    def test_substitution_length(self):
        enum = enumerate_splices(7, 7)
        # k = cells from the second packet, including the forced trailer.
        expected = (enum.selection >= 6).sum(axis=1) + 1
        assert (enum.substitution_len == expected).all()
        assert enum.substitution_len.min() == 1
        # k = 7 would be the intact second frame, which is excluded.
        assert enum.substitution_len.max() == 6

    def test_has_second_header(self):
        enum = enumerate_splices(7, 7)
        expected = (enum.selection == 6).any(axis=1)
        assert (enum.has_second_header == expected).all()
        # Roughly half of the header-led splices include the second
        # header (the paper's Section 5.3 case split).
        led = enum.selection[:, 0] == 0
        share = enum.has_second_header[led].mean()
        assert 0.3 < share < 0.7

    def test_slots_property(self):
        enum = enumerate_splices(7, 5)
        assert enum.slots == 4
        assert enum.n1 == 7 and enum.n2 == 5

    @pytest.mark.parametrize("n1, n2", [(7, 7), (7, 3), (3, 7), (1, 5)])
    def test_lengths_are_the_distinct_substitution_lengths(self, n1, n2):
        enum = enumerate_splices(n1, n2)
        assert enum.lengths == tuple(sorted(set(enum.substitution_len.tolist())))
        assert all(type(k) is int for k in enum.lengths)


class TestImports:
    def test_a_table_run_never_imports_numpy_ma(self):
        # np.unique imports numpy.ma; the engine reads each pair
        # shape's distinct substitution lengths off its enumeration.
        import subprocess
        import sys

        code = (
            "import sys; from repro.cli import main; "
            "code = main(['run', 'table1', '--no-cache', '--bytes', "
            "'20000']); sys.exit(code or ('numpy.ma' in sys.modules))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert "TCP miss %" in proc.stdout


class TestCaps:
    def test_max_splices_cap(self):
        with pytest.raises(ValueError, match="max_splices"):
            enumerate_splices(30, 30, max_splices=1000)

    def test_cache_returns_same_object(self):
        assert enumerate_splices(7, 7) is enumerate_splices(7, 7)
