"""Tests for the Internet checksum (RFC 1071) implementation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checksums.internet import (
    InternetChecksum,
    fold_carries,
    internet_checksum,
    internet_checksum_field,
    ones_complement_add,
    ones_complement_sum,
    word_sums,
)


def bytewise_sum(data):
    """Independent reference: one byte at a time, end-around carry per add.

    Even offsets are the high byte of their 16-bit word; an odd final
    byte is implicitly padded with zero (RFC 1071).
    """
    total = 0
    for index, byte in enumerate(data):
        total += byte << 8 if index % 2 == 0 else byte
        total = (total & 0xFFFF) + (total >> 16)
    return total


class TestFoldCarries:
    def test_small_value_unchanged(self):
        assert fold_carries(0x1234) == 0x1234

    def test_single_carry(self):
        assert fold_carries(0x1_0000) == 1

    def test_all_ones_preserved(self):
        # 0xFFFF is a representation of zero but folding does not
        # normalise it away.
        assert fold_carries(0xFFFF) == 0xFFFF

    def test_double_carry(self):
        # A value whose first fold produces another carry.
        assert fold_carries(0x3_FFFF) == fold_carries(0xFFFF + 3)

    def test_large_sum(self):
        # Folding is congruent to reduction mod 0xFFFF (with the
        # two-zeros caveat).
        value = 123456789
        assert fold_carries(value) % 0xFFFF == value % 0xFFFF

    def test_array_input(self):
        arr = np.array([0x1_0000, 0x1234, 0xFFFF], dtype=np.uint64)
        out = fold_carries(arr)
        assert out.tolist() == [1, 0x1234, 0xFFFF]

    @given(st.lists(st.integers(0, 2**64 - 1), max_size=20))
    @settings(max_examples=60)
    def test_array_path_matches_the_carry_loop(self, values):
        edges = [0, 1, 0xFFFF, 0x1_0000, 0x1_FFFE, 0xFFFF * 0xFFFF, 2**64 - 1]
        arr = np.array(values + edges, dtype=np.uint64)
        out = fold_carries(arr)
        assert out.dtype == np.uint32
        assert out.tolist() == [fold_carries(v) for v in values + edges]


class TestScalarChecksum:
    def test_rfc1071_example(self):
        # The worked example from RFC 1071 section 3.
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert internet_checksum(data) == 0xDDF2
        assert internet_checksum_field(data) == 0x220D

    def test_empty_data(self):
        assert internet_checksum(b"") == 0

    def test_odd_length_pads_with_zero(self):
        assert internet_checksum(b"\x12") == internet_checksum(b"\x12\x00")

    def test_zero_data_sums_to_zero(self):
        assert internet_checksum(bytes(100)) == 0

    def test_order_independence(self):
        # The weakness the paper studies: word order does not matter.
        a = internet_checksum(b"\x12\x34\x56\x78")
        b = internet_checksum(b"\x56\x78\x12\x34")
        assert a == b

    def test_verify_roundtrip(self):
        data = bytearray(b"the quick brown fox ")
        data += internet_checksum_field(data).to_bytes(2, "big")
        assert InternetChecksum().verify(data)

    def test_verify_detects_corruption(self):
        data = bytearray(b"the quick brown fox ")
        data += internet_checksum_field(data).to_bytes(2, "big")
        data[3] ^= 0x40
        assert not InternetChecksum().verify(data)

    def test_ones_complement_add(self):
        assert ones_complement_add(0xFFFF, 1) == 1
        assert ones_complement_add(0x8000, 0x8000) == 1  # end-around carry


class TestAgainstBytewiseReference:
    """``ones_complement_sum`` against :func:`bytewise_sum`."""

    @given(st.binary(max_size=300))
    @settings(max_examples=80)
    def test_random_inputs(self, data):
        assert ones_complement_sum(data) == bytewise_sum(data)

    def test_carry_heavy_input(self):
        # All-ones data maximises carries, the classic bug surface.
        data = b"\xff" * 101
        assert ones_complement_sum(data) == bytewise_sum(data) == 0xFF00

    def test_every_short_length(self):
        for length in range(17):
            data = bytes(range(1, length + 1))
            assert ones_complement_sum(data) == bytewise_sum(data), length


class TestDecomposability:
    """The partial-sum algebra the splice engine relies on."""

    @given(st.binary(max_size=96), st.binary(max_size=96))
    @settings(max_examples=50)
    def test_concatenation(self, a, b):
        if len(a) % 2:
            a += b"\x00"
        whole = ones_complement_sum(a + b)
        parts = fold_carries(word_sums(a) + word_sums(b))
        assert whole == parts

    def test_byte_swap_property(self):
        # RFC 1071's byte-order independence: byte-swapping the data
        # byte-swaps the sum.
        data = bytes(range(48))
        swapped = b"".join(
            data[i + 1 : i + 2] + data[i : i + 1] for i in range(0, 48, 2)
        )
        original = ones_complement_sum(data)
        assert ones_complement_sum(swapped) == (
            ((original & 0xFF) << 8) | (original >> 8)
        )


class TestVectorized:
    def test_cell_sums_match_scalar(self, rng):
        cells = rng.integers(0, 256, size=(20, 48)).astype(np.uint8)
        sums = InternetChecksum.cell_sums(cells)
        for i in range(20):
            assert InternetChecksum.fold(int(sums[i])) == ones_complement_sum(
                cells[i].tobytes()
            )

    def test_cell_sums_multidimensional(self, rng):
        cells = rng.integers(0, 256, size=(4, 5, 48)).astype(np.uint8)
        sums = InternetChecksum.cell_sums(cells)
        assert sums.shape == (4, 5)

    def test_cell_sums_rejects_odd_length(self):
        with pytest.raises(ValueError):
            InternetChecksum.cell_sums(np.zeros((3, 47), dtype=np.uint8))

    def test_fold_scalar_and_array_agree(self):
        values = np.array([0x12345, 0xFFFF0, 7], dtype=np.uint64)
        folded = InternetChecksum.fold(values)
        for raw, out in zip(values.tolist(), folded.tolist()):
            assert fold_carries(raw) == out
