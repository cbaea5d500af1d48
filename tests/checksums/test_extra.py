"""Tests for Fletcher-16, Adler-32 and XOR-16."""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checksums.extra import (
    Adler32,
    Fletcher16,
    Xor16,
    adler32,
    fletcher16,
    xor16,
)


class TestAdler32:
    @given(st.binary(max_size=500))
    @settings(max_examples=80)
    def test_matches_zlib(self, data):
        assert adler32(data) == zlib.adler32(data)

    def test_empty_is_one(self):
        assert adler32(b"") == 1

    def test_object_api(self):
        algorithm = Adler32()
        assert algorithm.compute(b"abc") == zlib.adler32(b"abc")
        assert algorithm.compute(b"abc") != 0


class TestFletcher16:
    def test_manual_case(self):
        # words [0x0102, 0x0304]: A = 0x0406, B = 2*0x0102 + 0x0304.
        sums = fletcher16(bytes([1, 2, 3, 4]))
        assert sums.a == 0x0406
        assert sums.b == (2 * 0x0102 + 0x0304) % 65535

    def test_odd_length_pads(self):
        assert fletcher16(b"\x05") == fletcher16(b"\x05\x00")

    def test_position_sensitivity(self):
        a = fletcher16(b"\x00\x01\x00\x02")
        b = fletcher16(b"\x00\x02\x00\x01")
        assert a.a == b.a and a.b != b.b

    def test_two_moduli_differ(self):
        data = b"\xff\xff" * 5
        assert Fletcher16(65535).compute(data) != Fletcher16(65536).compute(data)

    def test_invalid_modulus(self):
        with pytest.raises(ValueError):
            Fletcher16(1000)

    def test_packed_layout(self):
        value = Fletcher16().compute(b"\x00\x07")
        assert value == (0x0007 << 16) | 0x0007  # B == A for one word

    def test_empty(self):
        assert Fletcher16().compute(b"") == 0


class TestXor16:
    def test_parity_cancels_duplicates(self):
        assert xor16(b"\x12\x34\x12\x34") == 0

    def test_single_word(self):
        assert xor16(b"\xab\xcd") == 0xABCD

    def test_odd_length(self):
        assert xor16(b"\xab") == 0xAB00

    def test_empty(self):
        assert xor16(b"") == 0

    def test_weaker_than_sum(self):
        # XOR cannot count: doubling a word is invisible, while the
        # Internet checksum notices.
        from repro.checksums.internet import internet_checksum

        base = b"\x11\x22\x33\x44"
        doubled = b"\x11\x22\x11\x22\x33\x44\x11\x22"  # extra pair cancels
        assert xor16(base + b"\x55\x66\x55\x66") == xor16(base)
        assert internet_checksum(base + b"\x55\x66\x55\x66") != internet_checksum(base)

    def test_object_api(self):
        algorithm = Xor16()
        assert algorithm.compute(b"\xab\xcd") == 0xABCD


class TestRegistryIntegration:
    def test_new_algorithms_registered(self):
        from repro.checksums.registry import get_algorithm

        assert get_algorithm("adler32").compute(b"x") == zlib.adler32(b"x")
        assert get_algorithm("xor16").compute(b"\x01\x02") == 0x0102
        assert get_algorithm("fletcher16-65535").modulus == 65535
        assert get_algorithm("fletcher16-65536").modulus == 65536
