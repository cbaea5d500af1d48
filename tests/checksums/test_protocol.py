"""Every registered algorithm conforms to the ChecksumAlgorithm protocol.

The protocol's load-bearing clause is the *framing identity*: for any
algorithm ``a`` and message ``m``, ``a.verify(m + a.field(m))`` is
true, and flipping any message bit makes it false.  The artifact
store's integrity trailers and the splice engine's verdict logic both
assume exactly this.  The batch members (``compute_many`` and the
state algebra) are part of the same protocol; ``test_batch.py`` checks
that every algorithm has them and holds them bit-identical to
``compute``.
"""

import pytest

from repro.checksums import CRCEngine, ChecksumAlgorithm
from repro.checksums.registry import available_algorithms, get_algorithm

MESSAGES = [
    b"",
    b"x",                        # odd length
    b"ab",
    b"123456789",
    b"The quick brown fox jumps over the lazy dog" * 5,
    bytes(100),                  # all zeros
    bytes(101),
    bytes(range(256)),
]


@pytest.fixture(params=available_algorithms())
def algorithm(request):
    return get_algorithm(request.param)


class TestConformance:
    def test_structural_conformance(self, algorithm):
        assert isinstance(algorithm, ChecksumAlgorithm)

    def test_width_and_name(self, algorithm):
        assert isinstance(algorithm.width, int) and algorithm.width > 0
        assert isinstance(algorithm.name, str) and algorithm.name

    def test_compute_returns_bounded_int(self, algorithm):
        for message in MESSAGES:
            value = algorithm.compute(message)
            assert isinstance(value, int)
            assert 0 <= value < (1 << algorithm.width)

    def test_field_width(self, algorithm):
        for message in MESSAGES:
            field = algorithm.field(message)
            assert isinstance(field, bytes)
            assert len(field) == (algorithm.width + 7) // 8

    def test_framing_identity(self, algorithm):
        for message in MESSAGES:
            framed = message + algorithm.field(message)
            assert algorithm.verify(framed), (algorithm.name, len(message))

    def test_corruption_detected(self, algorithm):
        for message in MESSAGES:
            if not message or not any(message):
                continue  # all-zero data: nothing to flip meaningfully
            framed = bytearray(message + algorithm.field(message))
            framed[0] ^= 0x40
            assert not algorithm.verify(bytes(framed)), algorithm.name

    def test_verify_accepts_bytearray(self, algorithm):
        message = b"protocol-tolerates-bytes-like"
        framed = bytearray(message + algorithm.field(message))
        assert algorithm.verify(framed)


class TestCRCResidueSemantics:
    def test_verify_is_streaming_residue_check(self):
        """verify() needs no frame boundary: it streams message+CRC."""
        engine = get_algorithm("crc32-aal5")
        message = b"AAL5 CPCS payload"
        framed = message + engine.field(message)
        reg = engine.process(engine.register_init, framed)
        assert engine.verify(framed)
        assert reg == engine.residue_register()

    def test_crc10_pad_bits_enter_the_division(self):
        """The 10-bit CRC padded to 2 bytes still frames correctly."""
        engine = get_algorithm("crc10-atm")
        for message in MESSAGES:
            assert engine.verify(message + engine.field(message))

    def test_reflected_crc_ships_little_endian(self):
        engine = get_algorithm("crc32c")
        message = b"sctp chunk"
        assert engine.field(message) == engine.compute(message).to_bytes(
            4, "little"
        )


class TestRegistryKinds:
    def test_crc_engines_are_crcs(self):
        crcs = [n for n in available_algorithms()
                if isinstance(get_algorithm(n), CRCEngine)]
        assert set(crcs) == {
            "crc10-atm", "crc16-arc", "crc16-ccitt", "crc32-aal5", "crc32c"
        }
