"""Tests for the generic CRC engine, specs, and combine operators."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checksums.crc import (
    CRC10_ATM,
    CRC16_ARC,
    CRC16_CCITT,
    CRC32_AAL5,
    CRCEngine,
    CRCSpec,
    ZeroFeedOperator,
    reflect_bits,
)
from repro.checksums.registry import available_algorithms, get_algorithm

CHECK_INPUT = b"123456789"

#: The ATM cell header's HEC (CRC-8/I-432-1): CRC-8 over the first four
#: header octets, XORed with 0x55.
HEC_SPEC = CRCSpec("atm-hec", 8, 0x07, 0x00, False, False, 0x55)

#: Published check values from the CRC catalogue.
KNOWN_CHECKS = [
    (CRC32_AAL5, 0xFC891918),
    (CRC16_ARC, 0xBB3D),
    (CRC16_CCITT, 0x29B1),
    (CRC10_ATM, 0x199),
    (HEC_SPEC, 0xA1),
]

STD_CRC32 = CRCSpec("crc32", 32, 0x04C11DB7, 0xFFFFFFFF, True, True, 0xFFFFFFFF)

#: CRC-16/KERMIT: the 0x1021 polynomial reflected, which binascii's
#: non-reflected ``crc_hqx`` cannot feed.
KERMIT = CRCSpec("crc16-kermit", 16, 0x1021, 0x0000, True, True, 0x0000)

#: Every registered CRC, the ATM HEC, and the two specs above.
CONFORMANCE_SPECS = [
    get_algorithm(name).spec
    for name in available_algorithms()
    if isinstance(get_algorithm(name), CRCEngine)
] + [HEC_SPEC, STD_CRC32, KERMIT]

_ENGINES = {spec: CRCEngine(spec) for spec in CONFORMANCE_SPECS}


def step_fold(engine, reg, data):
    """The byte-at-a-time oracle: ``step`` folded over ``data``."""
    reg = int(reg)
    for byte in bytes(data):
        reg = engine.step(reg, byte)
    return reg


class TestReflect:
    def test_reflect_byte(self):
        assert reflect_bits(0b00000001, 8) == 0b10000000
        assert reflect_bits(0b10110000, 8) == 0b00001101

    def test_reflect_involution(self):
        for value in (0, 1, 0xABCD, 0xFFFF):
            assert reflect_bits(reflect_bits(value, 16), 16) == value


class TestSpecValidation:
    def test_rejects_wide_poly(self):
        with pytest.raises(ValueError):
            CRCSpec("bad", 16, 0x1_0000, 0, False, False, 0)

    def test_rejects_unsupported_width(self):
        with pytest.raises(ValueError):
            CRCSpec("bad", 4, 0x3, 0, False, False, 0)


class TestKnownValues:
    @pytest.mark.parametrize("spec,expected", KNOWN_CHECKS)
    def test_catalogue_check_values(self, spec, expected):
        assert CRCEngine(spec).compute(CHECK_INPUT) == expected

    def test_matches_zlib(self):
        # compute on this spec *is* zlib, so hold the byte loop to it.
        engine = CRCEngine(STD_CRC32)
        for data in (b"", b"a", CHECK_INPUT, bytes(100), b"x" * 1000):
            reg = step_fold(engine, engine.register_init, data)
            assert engine.finalize(reg) == zlib.crc32(data)

    def test_verify(self):
        engine = CRCEngine(CRC16_CCITT)
        assert engine.compute(CHECK_INPUT) == 0x29B1
        assert engine.compute(CHECK_INPUT) != 0x29B2


class TestRegisterAPI:
    def test_process_is_incremental(self):
        engine = CRCEngine(CRC32_AAL5)
        reg = engine.register_init
        reg = engine.process(reg, b"1234")
        reg = engine.process(reg, b"56789")
        assert engine.finalize(reg) == engine.compute(CHECK_INPUT)

    @pytest.mark.parametrize("spec", CONFORMANCE_SPECS, ids=lambda s: s.name)
    def test_residue_is_message_independent(self, spec):
        engine = CRCEngine(spec)
        residue = engine.residue_register()
        for message in (b"", b"abc", bytes(100), b"\xff" * 17, CHECK_INPUT):
            reg = engine.process(engine.register_init, message)
            reg = engine.process(reg, engine.field(message))
            assert reg == residue, message


class TestVectorized:
    @pytest.mark.parametrize("spec", [CRC32_AAL5, CRC16_ARC, CRC16_CCITT, CRC10_ATM])
    def test_process_cells_matches_scalar(self, spec, rng):
        engine = CRCEngine(spec)
        cells = rng.integers(0, 256, size=(10, 48)).astype(np.uint8)
        regs = engine.process_cells(cells)
        for i in range(10):
            assert int(regs[i]) == engine.process(0, cells[i].tobytes())

    def test_process_cells_with_init(self, rng):
        engine = CRCEngine(CRC32_AAL5)
        cells = rng.integers(0, 256, size=(4, 16)).astype(np.uint8)
        regs = engine.process_cells(cells, init=engine.register_init)
        for i in range(4):
            assert int(regs[i]) == engine.process(
                engine.register_init, cells[i].tobytes()
            )


class TestKernelConformance:
    """Both C-speed kernels against the ``step`` fold, on every spec."""

    def test_stdlib_feeds(self):
        fed = {spec.name for spec in CONFORMANCE_SPECS
               if _ENGINES[spec]._feed is not None}
        assert fed == {"crc32-aal5", "crc32", "crc16-ccitt"}

    @given(
        spec=st.sampled_from(CONFORMANCE_SPECS),
        reg=st.integers(0, 2**32 - 1),
        reg_type=st.sampled_from([int, np.uint32, np.int64, np.uint64]),
        data=st.binary(max_size=300),
        data_type=st.sampled_from([bytes, bytearray, memoryview]),
    )
    @settings(max_examples=300, deadline=None)
    def test_process_matches_step_fold(self, spec, reg, reg_type, data,
                                       data_type):
        engine = _ENGINES[spec]
        reg = reg_type(reg & engine.mask)
        expected = step_fold(engine, reg, data)
        assert engine.process(reg, data_type(data)) == expected
        assert engine.process(reg, b"") == int(reg)

    @given(
        spec=st.sampled_from(CONFORMANCE_SPECS),
        length=st.sampled_from([0, 1, 4, 44, 48]),
        lead=st.sampled_from([(), (1,), (5,), (2, 3)]),
        strided=st.booleans(),
        init_kind=st.sampled_from(["zero", "scalar", "per-row"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_process_cells_matches_step_fold(self, spec, length, lead,
                                             strided, init_kind, seed):
        engine = _ENGINES[spec]
        rng = np.random.default_rng(seed)
        if strided:
            # every other byte of a wider buffer: a non-contiguous view
            cells = rng.integers(0, 256, size=lead + (2 * length,),
                                 dtype=np.uint8)[..., ::2]
        else:
            cells = rng.integers(0, 256, size=lead + (length,), dtype=np.uint8)
        if init_kind == "zero":
            init = 0
        elif init_kind == "scalar":
            init = int(rng.integers(0, engine.mask, endpoint=True))
        else:
            init = rng.integers(0, engine.mask, size=lead, endpoint=True,
                                dtype=np.uint64).astype(np.uint32)
        images = engine.process_cells(cells, init=init)
        assert images.shape == lead and images.dtype == np.uint32
        inits = np.broadcast_to(np.asarray(init, dtype=np.uint32), lead)
        for index in np.ndindex(*lead):
            assert int(images[index]) == step_fold(
                engine, inits[index], cells[index].tobytes()
            )


class TestZeroFeedOperator:
    @pytest.mark.parametrize("spec", [CRC32_AAL5, CRC16_ARC, STD_CRC32, CRC10_ATM])
    @pytest.mark.parametrize("nbytes", [0, 1, 7, 48])
    def test_matches_explicit_zero_feed(self, spec, nbytes):
        engine = CRCEngine(spec)
        op = ZeroFeedOperator(engine, nbytes)
        for reg in (0, 1, 0x1234 & engine.mask, engine.mask):
            assert op.apply(reg) == engine.process(reg, bytes(nbytes))

    def test_apply_vec_matches_apply(self, rng):
        engine = CRCEngine(CRC32_AAL5)
        op = engine.zero_feed(48)
        regs = rng.integers(0, 2**32, size=100, dtype=np.uint64).astype(np.uint32)
        vec = op.apply_vec(regs)
        for reg, out in zip(regs.tolist(), vec.tolist()):
            assert op.apply(reg) == out

    def test_linearity(self):
        engine = CRCEngine(CRC32_AAL5)
        op = engine.zero_feed(13)
        a, b = 0x12345678, 0x0F0F0F0F
        assert op.apply(a ^ b) == op.apply(a) ^ op.apply(b)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            ZeroFeedOperator(CRCEngine(CRC16_ARC), -1)

    def test_cached(self):
        engine = CRCEngine(CRC16_ARC)
        assert engine.zero_feed(48) is engine.zero_feed(48)


def combined(engine, a, b):
    """The CRC of ``a || b`` from the registers of ``a`` and ``b``."""
    state = engine.combine(engine.prefix_state(a), engine.prefix_state(b), len(b))
    return engine.state_value(state)


class TestCombine:
    @given(st.binary(max_size=64), st.binary(max_size=64))
    @settings(max_examples=40)
    def test_combine_matches_zlib(self, a, b):
        engine = CRCEngine(STD_CRC32)
        assert combined(engine, a, b) == zlib.crc32(a + b)

    @pytest.mark.parametrize("spec", [CRC32_AAL5, CRC16_CCITT, CRC10_ATM])
    def test_combine_all_specs(self, spec, rng):
        engine = CRCEngine(spec)
        for _ in range(10):
            a = rng.integers(0, 256, size=int(rng.integers(0, 60))).astype(np.uint8).tobytes()
            b = rng.integers(0, 256, size=int(rng.integers(0, 60))).astype(np.uint8).tobytes()
            assert combined(engine, a, b) == engine.compute(a + b)


class TestErrorDetectionProperties:
    """The classical CRC guarantees the paper cites in Section 2."""

    def test_single_bit_errors_detected(self):
        engine = CRCEngine(CRC32_AAL5)
        data = bytearray(b"some reference frame data!")
        reference = engine.compute(data)
        for byte in range(len(data)):
            for bit in range(8):
                corrupted = bytearray(data)
                corrupted[byte] ^= 1 << bit
                assert engine.compute(corrupted) != reference

    def test_burst_errors_up_to_width_detected(self, rng):
        # CRC-32 detects all bursts spanning fewer than 32 bits.
        engine = CRCEngine(CRC32_AAL5)
        data = bytes(64)
        reference = engine.compute(data)
        for _ in range(200):
            start = int(rng.integers(0, 64 * 8 - 31))
            length = int(rng.integers(2, 32))
            pattern = int(rng.integers(1, 2 ** (length - 2) + 1)) | (
                1 | (1 << (length - 1))
            )
            corrupted = int.from_bytes(data, "big") ^ (
                pattern << (64 * 8 - start - length)
            )
            assert engine.compute(corrupted.to_bytes(64, "big")) != reference

    def test_odd_bit_errors_detected_crc32(self, rng):
        # The CRC-32 polynomial does not contain (x+1), but three
        # random flips are still essentially always caught; use the
        # exhaustive 3-bit check on a short message instead.
        engine = CRCEngine(CRC32_AAL5)
        data = bytes(4)
        reference = engine.compute(data)
        for _ in range(200):
            positions = rng.choice(32, size=3, replace=False)
            value = 0
            for position in positions:
                value ^= 1 << int(position)
            assert engine.compute(value.to_bytes(4, "big")) != reference

    def test_two_bit_errors_within_window_detected(self, rng):
        engine = CRCEngine(CRC16_CCITT)
        data = bytes(128)
        reference = engine.compute(data)
        for _ in range(200):
            i = int(rng.integers(0, 128 * 8))
            j = int(rng.integers(0, 128 * 8))
            if i == j:
                continue
            value = (1 << i) | (1 << j)
            assert engine.compute(value.to_bytes(128, "big")) != reference


def test_crc32c_check_value():
    # The Castagnoli polynomial's catalogue check value.
    from repro.checksums.crc import CRC32C

    assert CRCEngine(CRC32C).compute(CHECK_INPUT) == 0xE3069283


def test_crc32c_registered():
    from repro.checksums.registry import get_algorithm

    engine = get_algorithm("crc32c")
    assert engine.spec.poly == 0x1EDC6F41
