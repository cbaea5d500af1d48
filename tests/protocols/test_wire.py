"""``Packetizer.wire`` against the per-packet builder it replaced.

``ReferencePacketizer`` is the packetizer as it was written before the
array builder: one Python loop iteration per packet, the headers from
``build_ipv4_header``/``build_tcp_header``, the check value from
``word_sums`` or ``Fletcher8.check_bytes`` on each segment, and then
``build_aal5_frame`` per packet.  ``wire`` must match it byte for byte
on every packetizer config, and the ``packetize``/``transfer`` objects
sliced out of its arrays must match field by field.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checksums.fletcher import Fletcher8
from repro.checksums.internet import word_sums
from repro.protocols.aal5 import CELL_PAYLOAD, build_aal5_frame
from repro.protocols.ftpsim import FileTransferSimulator
from repro.protocols.ip import IP_HEADER_LEN, build_ipv4_header
from repro.protocols.packetizer import (
    ChecksumPlacement,
    Packetizer,
    PacketizerConfig,
    TCPPacket,
)
from repro.protocols.tcp import (
    FLAG_ACK,
    TCP_CHECKSUM_OFFSET,
    TCP_HEADER_LEN,
    build_tcp_header,
    pseudo_header_word_sum,
    solve_sum_to_target,
)
from repro.telemetry.core import collect

TRAILER = ChecksumPlacement.TRAILER

#: Every packetizer config: each algorithm in both placements, and the
#: two ablations.
CONFIGS = {
    **{
        "%s-%s" % (algorithm, placement.value): dict(
            algorithm=algorithm, placement=placement
        )
        for algorithm in ("tcp", "fletcher255", "fletcher256", "none")
        for placement in ChecksumPlacement
    },
    "tcp-non-inverted": dict(invert=False),
    "tcp-trailer-non-inverted": dict(invert=False, placement=TRAILER),
    "tcp-unfilled-ip": dict(fill_ip_header=False),
}

MSS = (1, 2, 7, 100, 255, 256, 257, 536, 1024)


class ReferencePacketizer:
    """The per-packet builder: one header, sum and frame per packet."""

    def __init__(self, config):
        self.config = config
        if config.algorithm.startswith("fletcher"):
            self._fletcher = Fletcher8(int(config.algorithm[-3:]))

    def packetize(self, data, seq, ipid):
        data = bytes(data)
        packets = []
        for start in range(0, len(data), self.config.mss):
            chunk = data[start : start + self.config.mss]
            packets.append(self.build_packet(chunk, seq, ipid))
            seq = (seq + len(chunk)) & 0xFFFFFFFF
            ipid = (ipid + 1) & 0xFFFF
        return packets

    def build_packet(self, chunk, seq, ipid):
        config = self.config
        trailer = config.placement is TRAILER
        wire_payload = chunk + bytes(2) if trailer else chunk
        tcp_len = TCP_HEADER_LEN + len(wire_payload)
        header = build_tcp_header(
            config.sport, config.dport, seq, ack=1, flags=FLAG_ACK,
            window=config.window,
        )
        segment = bytearray(header + wire_payload)
        ip_header = build_ipv4_header(
            total_length=IP_HEADER_LEN + tcp_len,
            ident=ipid if config.fill_ip_header else 0,
            src=config.src,
            dst=config.dst,
            tos=0,
            ttl=64 if config.fill_ip_header else 0,
            flags_fragment=0x4000 if config.fill_ip_header else 0,
            fill_checksum=config.fill_ip_header,
        )
        if config.fill_ip_header:
            self.fill_check_value(segment, tcp_len)
        else:
            total = word_sums(ip_header) + word_sums(segment)
            offset = IP_HEADER_LEN + TCP_CHECKSUM_OFFSET
            value = solve_sum_to_target(total, offset)
            segment[TCP_CHECKSUM_OFFSET : TCP_CHECKSUM_OFFSET + 2] = (
                value.to_bytes(2, "big")
            )
        return TCPPacket(
            ip_packet=ip_header + bytes(segment), payload=chunk, seq=seq,
            ipid=ipid, config=config,
        )

    def fill_check_value(self, segment, tcp_len):
        config = self.config
        if config.algorithm == "none":
            return
        trailer = config.placement is TRAILER
        offset = tcp_len - 2 if trailer else TCP_CHECKSUM_OFFSET
        if config.algorithm == "tcp":
            total = pseudo_header_word_sum(config.src, config.dst, tcp_len)
            total += word_sums(segment)
            value = solve_sum_to_target(total, offset)
            if not config.invert and not trailer:
                value ^= 0xFFFF
            segment[offset : offset + 2] = value.to_bytes(2, "big")
        else:
            x, y = self._fletcher.check_bytes(segment, offset)
            segment[offset] = x
            segment[offset + 1] = y

    def transfer(self, data, seq, ipid):
        return [
            (packet, build_aal5_frame(packet.ip_packet))
            for packet in self.packetize(data, seq, ipid)
        ]


def assert_matches_reference(kwargs, data, seq, ipid):
    config = PacketizerConfig(initial_seq=seq, initial_ipid=ipid, **kwargs)
    reference = ReferencePacketizer(config).transfer(data, seq, ipid)

    groups = Packetizer(config).wire(data)
    mss = config.mss
    lengths = [mss] * (len(data) // mss) + ([len(data) % mss] if len(data) % mss else [])
    assert [len(g.frames) for g in groups] == [
        n for n in (len(data) // mss, len(data) % mss and 1) if n
    ]
    frames = []
    for group in groups:
        assert group.frames.dtype == np.uint8
        assert group.frames.shape[2] == CELL_PAYLOAD
        assert not group.frames.flags.writeable
        with pytest.raises(ValueError):
            group.frames[0, 0, 0] = 1
        frames += [(row.tobytes(), group.iplen) for row in group.frames]
    assert frames == [
        (frame.frame, len(packet.ip_packet)) for packet, frame in reference
    ]
    assert [len(packet.payload) for packet, _ in reference] == lengths

    packets = Packetizer(config).packetize(data)
    units = FileTransferSimulator(config).transfer(data)
    assert len(packets) == len(units) == len(reference)
    for packet, unit, (ref_packet, ref_frame) in zip(packets, units, reference):
        for got in (packet, unit.packet):
            assert got == ref_packet
            assert (got.ip_packet, got.payload, got.seq, got.ipid) == (
                ref_packet.ip_packet, ref_packet.payload, ref_packet.seq,
                ref_packet.ipid,
            )
        assert unit.frame == ref_frame
        assert (unit.frame.frame, unit.frame.crc) == (ref_frame.frame, ref_frame.crc)


@pytest.mark.parametrize("mss", MSS)
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_every_config_and_mss_matches_reference(name, mss):
    rng = np.random.default_rng(mss)
    for size in sorted({0, 1, max(mss - 1, 0), mss, mss + 1, 3 * mss, 2 * mss + 7}):
        for data in (bytes(size), rng.integers(0, 256, size, np.uint8).tobytes()):
            assert_matches_reference(CONFIGS[name], data, 1, 1)
            # Both counters wrap inside the file.
            assert_matches_reference(
                CONFIGS[name], data, 2**32 - mss - 1, 0xFFFF
            )


@st.composite
def transfers(draw):
    kwargs = dict(CONFIGS[draw(st.sampled_from(sorted(CONFIGS)))])
    mss = draw(st.sampled_from(MSS))
    kwargs["mss"] = mss
    size = draw(
        st.one_of(
            st.sampled_from([0, 1, mss - 1, mss, mss + 1]),
            st.integers(2, 6).map(lambda k: k * mss),
            st.integers(0, 2 * mss + 3).map(lambda n: n | 1),
        )
    )
    fill = draw(st.sampled_from(["random", "zero", "ones"]))
    if fill == "random":
        data = draw(st.binary(min_size=size, max_size=size))
    else:
        data = (b"\x00" if fill == "zero" else b"\xff") * size
    seq = draw(st.one_of(
        st.integers(2**32 - 4 * mss, 2**32 - 1), st.integers(0, 2**32 - 1)
    ))
    ipid = draw(st.one_of(st.just(0xFFFF), st.integers(0, 0xFFFF)))
    return kwargs, data, seq, ipid


@settings(max_examples=150, deadline=None)
@given(transfers())
def test_wire_matches_reference_byte_for_byte(case):
    assert_matches_reference(*case)


def test_wire_opens_one_span():
    with collect() as telemetry:
        Packetizer().wire(bytes(1000))
    spans = telemetry.snapshot()["spans"]
    assert [(node["name"], node["count"]) for node in spans] == [
        ("protocols.wire", 1)
    ]


def test_groups_are_full_then_runt():
    groups = Packetizer().wire(bytes(1000))
    assert [(len(g.frames), g.iplen) for g in groups] == [(3, 296), (1, 272)]
    assert Packetizer().wire(b"") == ()
    (only,) = Packetizer().wire(bytes(512))
    assert (len(only.frames), only.iplen) == (2, 296)
