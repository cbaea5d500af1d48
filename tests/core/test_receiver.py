"""Conformance of the scalar receiver stack (``repro.core.reference``).

Every packetizer configuration the simulators run is held to the same
contract: an intact frame passes :func:`frame_acceptable`; with the
AAL5 CRC on, a single flipped bit anywhere in the frame fails it; with
the CRC off, a single flipped bit anywhere in the bytes the transport
checksum covers still fails it.  The integer word sums are checked
against the NumPy ones they replaced.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.checksums.internet import fold_carries, word_sums
from repro.core.engine import EngineOptions
from repro.core.reference import _ones_sum, frame_acceptable
from repro.corpus.generators import generate
from repro.protocols.ftpsim import FileTransferSimulator
from repro.protocols.ip import IP_HEADER_LEN
from repro.protocols.packetizer import ChecksumPlacement, PacketizerConfig

CONFIGS = {
    "tcp-header": PacketizerConfig(),
    "tcp-trailer": PacketizerConfig(placement=ChecksumPlacement.TRAILER),
    "fletcher255": PacketizerConfig(algorithm="fletcher255"),
    "fletcher256": PacketizerConfig(algorithm="fletcher256"),
    "tcp-not-inverted": PacketizerConfig(invert=False),
    "unfilled-ip-header": PacketizerConfig(fill_ip_header=False),
}


def frames_of(config):
    """A three-packet transfer: two full MSS packets and a runt."""
    data = generate("english", 2 * config.mss + 88, 5)
    return [
        (unit.frame.frame, len(unit.packet.ip_packet))
        for unit in FileTransferSimulator(config).transfer(data)
    ]


def flipped(frame, bit):
    mutated = bytearray(frame)
    mutated[bit >> 3] ^= 1 << (bit & 7)
    return bytes(mutated)


@pytest.fixture(params=sorted(CONFIGS))
def case(request):
    config = CONFIGS[request.param]
    options = EngineOptions.from_packetizer(config, aux_crcs=())
    return options, frames_of(config)


class TestFrameAcceptable:
    def test_intact_frames_pass(self, case):
        options, frames = case
        assert len(frames) == 3
        for frame, iplen in frames:
            assert frame_acceptable(frame, options) == (True, iplen)
            assert frame_acceptable(frame, options, use_crc=False) == (True, iplen)

    def test_every_single_bit_flip_fails_with_crc(self, case):
        options, frames = case
        for frame, _ in frames:
            for bit in range(len(frame) * 8):
                assert frame_acceptable(flipped(frame, bit), options) == (
                    False, 0
                ), bit

    def test_every_covered_flip_fails_without_crc(self, case):
        options, frames = case
        start = 0 if options.legacy_coverage else IP_HEADER_LEN
        for frame, iplen in frames:
            for bit in range(start * 8, iplen * 8):
                verdict = frame_acceptable(
                    flipped(frame, bit), options, use_crc=False
                )
                assert verdict == (False, 0), bit

    def test_whole_cells_and_length_window(self, case):
        options, frames = case
        frame, _ = frames[0]
        assert frame_acceptable(frame[:-1], options) == (False, 0)
        assert frame_acceptable(frame + bytes(48), options) == (False, 0)
        assert frame_acceptable(b"", options) == (False, 0)


class TestOnesSum:
    """``_ones_sum`` equals ``fold_carries(word_sums(buf))`` exactly."""

    def test_matches_numpy_word_sums(self):
        rng = np.random.default_rng(11)
        for length in list(range(0, 70)) + [275, 276, 1500, 1501]:
            for fill in ("random", "zeros", "ones"):
                if fill == "random":
                    buf = rng.integers(0, 256, length, dtype=np.uint8).tobytes()
                else:
                    buf = (b"\x00" if fill == "zeros" else b"\xff") * length
                assert _ones_sum(buf) == fold_carries(word_sums(buf)), (
                    length, fill
                )


class TestScalarPaths:
    def test_tcp_paths_call_no_numpy(self):
        # The channel receiver judges every frame it reassembles; on the
        # TCP configurations that must stay plain integer arithmetic.
        def numpy_calls(frame, options):
            seen = []

            def watch(frame_obj, event, arg):
                if event == "c_call":
                    module = getattr(arg, "__module__", None) or ""
                    owner = type(getattr(arg, "__self__", None)).__module__
                    if module.startswith("numpy") or owner.startswith("numpy"):
                        seen.append(arg)
                elif event == "call":
                    if "numpy" in frame_obj.f_code.co_filename:
                        seen.append(frame_obj.f_code.co_name)

            sys.setprofile(watch)
            try:
                frame_acceptable(frame, options)
                frame_acceptable(flipped(frame, 8 * 30), options, use_crc=False)
            finally:
                sys.setprofile(None)
            return seen

        for name in ("tcp-header", "tcp-trailer", "tcp-not-inverted",
                     "unfilled-ip-header"):
            config = CONFIGS[name]
            options = EngineOptions.from_packetizer(config, aux_crcs=())
            for frame, _ in frames_of(config):
                assert numpy_calls(frame, options) == [], name


def test_simulators_share_one_receiver():
    import repro.channel.arq as arq
    import repro.core.biterrors as biterrors
    import repro.core.montecarlo as montecarlo
    import repro.core.reference as reference

    assert arq.frame_acceptable is reference.frame_acceptable
    for check in ("_aal5_length", "_header_ok", "_transport_ok", "_crc32_ok"):
        assert getattr(montecarlo, check) is getattr(reference, check)
    for check in ("_transport_ok", "_crc32_ok"):
        assert getattr(biterrors, check) is getattr(reference, check)
