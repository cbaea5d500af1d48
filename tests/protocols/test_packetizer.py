"""Tests for the file-to-packet-stream packetizer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checksums.fletcher import Fletcher8
from repro.checksums.internet import fold_carries, word_sums
from repro.protocols.aal5 import reassemble_frame
from repro.protocols.ip import parse_ipv4_header, validate_ipv4_header
from repro.protocols.packetizer import (
    ChecksumPlacement,
    Packetizer,
    PacketizerConfig,
    TCPPacket,
)
from repro.protocols.tcp import (
    parse_tcp_header,
    pseudo_header_word_sum,
    verify_tcp_checksum,
)


class TestSegmentation:
    def test_mss_segmentation(self):
        packets = Packetizer().packetize(bytes(1000))
        assert [len(p.payload) for p in packets] == [256, 256, 256, 232]

    def test_empty_data_yields_no_packets(self):
        assert Packetizer().packetize(b"") == []

    def test_sequence_advances_by_payload(self):
        packets = Packetizer().packetize(bytes(600))
        assert [p.seq for p in packets] == [1, 257, 513]

    def test_ipid_advances_by_one(self):
        packets = Packetizer().packetize(bytes(600))
        assert [p.ipid for p in packets] == [1, 2, 3]

    def test_initial_values_overridable(self):
        packets = Packetizer().packetize(bytes(10), initial_seq=99,
                                         initial_ipid=1000)
        assert packets[0].seq == 99 and packets[0].ipid == 1000

    def test_ip_total_length(self):
        packet = Packetizer().packetize(bytes(100))[0]
        assert parse_ipv4_header(packet.ip_packet).total_length == 140
        assert packet.total_length == 140

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PacketizerConfig(mss=0)
        with pytest.raises(ValueError):
            PacketizerConfig(algorithm="md5")


class TestMssBounds:
    # The IPv4 total length and the AAL5 Length field are 16 bits wide.
    @pytest.mark.parametrize(
        "placement, largest",
        [(ChecksumPlacement.HEADER, 65495), (ChecksumPlacement.TRAILER, 65493)],
    )
    def test_largest_packet_fits_16_bit_lengths(self, placement, largest):
        config = PacketizerConfig(mss=largest, placement=placement)
        with pytest.raises(ValueError, match="65535"):
            PacketizerConfig(mss=largest + 1, placement=placement)
        (group,) = Packetizer(config).wire(bytes(largest))
        assert group.iplen == 0xFFFF
        frame = group.frames[0].tobytes()
        assert frame[2:4] == frame[-6:-4] == b"\xff\xff"
        assert reassemble_frame(group.frames[0]) == frame[:0xFFFF]


class TestHeaderPlacementTCP:
    @given(st.integers(1, 600))
    @settings(max_examples=30)
    def test_every_packet_verifies(self, size):
        config = PacketizerConfig()
        data = bytes(i % 251 for i in range(size))
        for packet in Packetizer(config).packetize(data):
            assert verify_tcp_checksum(config.src, config.dst, packet.tcp_segment)

    def test_ip_header_valid(self):
        packet = Packetizer().packetize(b"x" * 50)[0]
        assert validate_ipv4_header(packet.ip_packet)

    def test_tcp_header_fields(self):
        config = PacketizerConfig(sport=2021, dport=8080)
        packet = Packetizer(config).packetize(b"x" * 50)[0]
        tcp = parse_tcp_header(packet.tcp_segment)
        assert tcp.sport == 2021 and tcp.dport == 8080
        assert tcp.data_offset == 5


class TestTrailerPlacement:
    @pytest.mark.parametrize("size", [1, 2, 3, 100, 255, 256])
    def test_appended_sum_verifies(self, size):
        config = PacketizerConfig(placement=ChecksumPlacement.TRAILER)
        packet = Packetizer(config).packetize(bytes(range(size % 251 + 1)) * size)[0]
        segment = packet.tcp_segment
        total = pseudo_header_word_sum(config.src, config.dst, len(segment))
        total += word_sums(segment)
        assert fold_carries(total) == 0xFFFF

    def test_header_field_left_zero(self):
        config = PacketizerConfig(placement=ChecksumPlacement.TRAILER)
        packet = Packetizer(config).packetize(b"hello")[0]
        assert packet.tcp_segment[16:18] == b"\x00\x00"

    def test_two_bytes_appended(self):
        config = PacketizerConfig(placement=ChecksumPlacement.TRAILER)
        packet = Packetizer(config).packetize(b"hello")[0]
        assert len(packet.tcp_segment) == 20 + 5 + 2
        assert packet.payload == b"hello"


class TestFletcherPlacements:
    @pytest.mark.parametrize("algorithm", ["fletcher255", "fletcher256"])
    @pytest.mark.parametrize("placement", list(ChecksumPlacement))
    def test_segment_sums_to_zero(self, algorithm, placement):
        config = PacketizerConfig(algorithm=algorithm, placement=placement)
        fletcher = Fletcher8(int(algorithm[-3:]))
        for packet in Packetizer(config).packetize(bytes(range(250)) * 3):
            assert fletcher.verify(packet.tcp_segment)


class TestAblations:
    def test_non_inverted_stores_plain_sum(self):
        config = PacketizerConfig(invert=False)
        packet = Packetizer(config).packetize(b"q" * 64)[0]
        segment = bytearray(packet.tcp_segment)
        stored = int.from_bytes(segment[16:18], "big")
        segment[16:18] = b"\x00\x00"
        total = pseudo_header_word_sum(config.src, config.dst, len(segment))
        total += word_sums(segment)
        assert fold_carries(total) == stored

    def test_unfilled_ip_header_legacy_mode(self):
        config = PacketizerConfig(fill_ip_header=False)
        packet = Packetizer(config).packetize(b"q" * 64)[0]
        header = parse_ipv4_header(packet.ip_packet)
        assert header.checksum == 0
        assert header.ident == 0
        assert header.ttl == 0
        # Legacy coverage: the whole IP packet sums to 0xFFFF with no
        # pseudo-header.
        assert fold_carries(word_sums(packet.ip_packet)) == 0xFFFF

    def test_legacy_zero_payload_header_cell_is_zero_congruent(self):
        # The Section 6.2 mechanism: for an all-zero payload, the header
        # cell itself becomes a non-zero cell whose checksum is zero.
        config = PacketizerConfig(fill_ip_header=False)
        packet = Packetizer(config).packetize(bytes(256))[0]
        cell0 = packet.ip_packet[:48]
        assert any(cell0)
        assert fold_carries(word_sums(cell0)) in (0x0000, 0xFFFF)

    def test_legacy_mode_only_supports_standard_tcp(self):
        with pytest.raises(ValueError):
            PacketizerConfig(fill_ip_header=False, algorithm="fletcher255")
        with pytest.raises(ValueError):
            PacketizerConfig(fill_ip_header=False,
                             placement=ChecksumPlacement.TRAILER)
        with pytest.raises(ValueError):
            PacketizerConfig(fill_ip_header=False, invert=False)

    def test_none_algorithm_leaves_field_zero(self):
        config = PacketizerConfig(algorithm="none")
        packet = Packetizer(config).packetize(b"q" * 64)[0]
        assert packet.tcp_segment[16:18] == b"\x00\x00"


class TestConfigOverrides:
    def test_with_overrides_copies(self):
        base = PacketizerConfig()
        changed = base.with_overrides(mss=512)
        assert changed.mss == 512 and base.mss == 256
        assert changed.algorithm == base.algorithm

    def test_packet_is_immutable_record(self):
        packet = Packetizer().packetize(b"abc")[0]
        assert isinstance(packet, TCPPacket)
        with pytest.raises(AttributeError):
            packet.seq = 5


class TestSequenceWrap:
    def test_seq_wraps_mod_2_32(self):
        packets = Packetizer().packetize(
            bytes(600), initial_seq=2**32 - 100
        )
        assert packets[0].seq == 2**32 - 100
        assert packets[1].seq == (2**32 - 100 + 256) % 2**32
        for packet in packets:
            assert verify_tcp_checksum(
                PacketizerConfig().src, PacketizerConfig().dst,
                packet.tcp_segment,
            )

    def test_ipid_wraps_mod_2_16(self):
        packets = Packetizer().packetize(bytes(600), initial_ipid=0xFFFF)
        assert [p.ipid for p in packets] == [0xFFFF, 0, 1]
