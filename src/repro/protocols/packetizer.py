"""Turn file bytes into the paper's simulated TCP/IP packet stream.

The paper's simulator fills TCP and IP headers "as if the file transfer
were being done over the loopback interface": for each packet the TCP
sequence number advances by the data length and the IP ID by one, and
the segment size is 256 bytes except for runts at file ends.

The packetizer supports every configuration the paper evaluates:

* checksum algorithm -- standard TCP (``"tcp"``), Fletcher mod-255 or
  mod-256 (``"fletcher255"`` / ``"fletcher256"``), or ``"none"``;
* checksum placement -- the conventional header field, or the paper's
  trailer placement where the header field stays zero and the check
  value is appended to the TCP data (Section 5.3);
* the Section 6.3 ablation (store the sum instead of its complement);
* the Section 6.2 ablation (``fill_ip_header=False``): a reconstruction
  of the SIGCOMM '95 simulator bug.  The legacy simulator left the
  mutable IP header bytes (TOS, ID, flags, TTL, header checksum) zero
  and checksummed the buffer from the start of the IP header with no
  pseudo-header, so an error-free packet summed to zero *including its
  header cell*.  For packets with all-zero payloads the header cell is
  then a non-zero cell whose checksum is zero -- interchangeable with
  the zero data cells around it, which is precisely the failure class
  Section 6.2 describes (filling in the header cured it by three orders
  of magnitude).

A file's packets differ only in IP ID, sequence number and check
values, so :meth:`Packetizer.wire` builds them all at once: the headers
from a template built once per config, the check values from per-row
NumPy word sums, and the AAL5 framing around them, one array per packet
length.  :meth:`Packetizer.packetize` slices :class:`TCPPacket` objects
out of the same arrays.  :class:`PacketizerConfig` and
:class:`ChecksumPlacement` are defined in the NumPy-free
:mod:`repro.protocols.config` and re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.checksums.fletcher import (
    FletcherSums,
    fletcher8_cells,
    fletcher_check_bytes,
)
from repro.checksums.internet import (
    MOD_MASK,
    InternetChecksum,
    fold_carries,
    word_sums,
)
from repro.protocols.aal5 import (
    AAL5_TRAILER_LEN,
    CELL_PAYLOAD,
    aal5_crc_engine,
    cells_needed,
)
from repro.protocols.config import ChecksumPlacement, PacketizerConfig
from repro.protocols.ip import IP_HEADER_LEN, build_ipv4_header
from repro.protocols.tcp import (
    FLAG_ACK,
    TCP_CHECKSUM_OFFSET,
    TCP_HEADER_LEN,
    build_tcp_header,
    pseudo_header_word_sum,
    solve_sum_to_target,
)
from repro.telemetry.core import current as _telemetry

__all__ = [
    "ChecksumPlacement",
    "Packetizer",
    "PacketizerConfig",
    "TCPPacket",
    "WireGroup",
]

#: IP and TCP header bytes ahead of every payload.
_HEADERS_LEN = IP_HEADER_LEN + TCP_HEADER_LEN

#: Offset of the TCP checksum field in the IP packet.
_TCP_FIELD = IP_HEADER_LEN + TCP_CHECKSUM_OFFSET

#: Length of the CRC-32 at the end of an AAL5 frame.
_CRC_LEN = 4


@dataclass(frozen=True)
class TCPPacket:
    """One simulated IP packet of the transfer."""

    ip_packet: bytes
    payload: bytes
    seq: int
    ipid: int
    config: PacketizerConfig = field(repr=False)

    @property
    def total_length(self):
        return len(self.ip_packet)

    @property
    def tcp_segment(self):
        """The TCP header plus data (including any trailer check bytes)."""
        return self.ip_packet[IP_HEADER_LEN:]


class WireGroup(NamedTuple):
    """Same-length packets of one file, framed for the wire.

    ``frames`` is a read-only ``(packets, cells, 48)`` uint8 array of
    AAL5 frames; ``iplen`` is each packet's IP length, which is also
    the frames' AAL5 Length field.
    """

    frames: np.ndarray
    iplen: int


class Packetizer:
    """Builds the packet stream for one simulated file transfer."""

    def __init__(self, config=None):
        self.config = config = config or PacketizerConfig()
        self._trailer = 2 if config.placement is ChecksumPlacement.TRAILER else 0
        fill = config.fill_ip_header
        # Every header byte but the total length, IP ID, IP checksum,
        # sequence number and TCP check value is the same in every
        # packet of every file.
        header = build_ipv4_header(
            total_length=0,
            ident=0,
            src=config.src,
            dst=config.dst,
            tos=0,
            ttl=64 if fill else 0,
            flags_fragment=0x4000 if fill else 0,
            fill_checksum=False,
        ) + build_tcp_header(
            config.sport,
            config.dport,
            0,
            ack=1,
            flags=FLAG_ACK,
            window=config.window,
        )
        self._template = np.frombuffer(header, dtype=np.uint8)
        self._ip_sum = word_sums(header[:IP_HEADER_LEN])
        self._pseudo = pseudo_header_word_sum(config.src, config.dst, 0)
        self._crc = aal5_crc_engine()

    def wire(self, data, initial_seq=None, initial_ipid=None):
        """One file's packets as AAL5 frames, grouped by length.

        Returns a tuple of at most two :class:`WireGroup`: the full-MSS
        packets, then the runt carrying the last ``len(data) % mss``
        bytes.  From packet to packet the sequence number advances by
        the payload length and the IP ID by one.
        """
        config = self.config
        seq = config.initial_seq if initial_seq is None else initial_seq
        ipid = config.initial_ipid if initial_ipid is None else initial_ipid
        buf = np.frombuffer(data, dtype=np.uint8)
        full = len(buf) // config.mss
        groups = []
        with _telemetry().span("protocols.wire"):
            if full:
                chunks = buf[: full * config.mss].reshape(full, config.mss)
                groups.append(self._group(chunks, seq, ipid))
            if len(buf) % config.mss:
                runt = buf[full * config.mss :][None]
                groups.append(
                    self._group(runt, seq + full * config.mss, ipid + full)
                )
        return tuple(groups)

    def _group(self, chunks, seq, ipid):
        """The :class:`WireGroup` of ``len(chunks)`` consecutive packets."""
        count, length = chunks.shape
        iplen = _HEADERS_LEN + length + self._trailer
        frames = np.zeros((count, cells_needed(iplen) * CELL_PAYLOAD), np.uint8)
        frames[:, :_HEADERS_LEN] = self._template
        frames[:, _HEADERS_LEN : _HEADERS_LEN + length] = chunks
        length_field = (iplen >> 8, iplen & 0xFF)
        frames[:, 2:4] = length_field
        rows = np.arange(count, dtype=np.uint64)
        seqs = (seq + length * rows) & 0xFFFFFFFF
        frames[:, IP_HEADER_LEN + 4 : IP_HEADER_LEN + 8] = _big_endian(seqs, 4)
        if self.config.fill_ip_header:
            # The IP header's words sum to the template's plus the total
            # length and the IP ID.
            idents = (ipid + rows) & 0xFFFF
            frames[:, 4:6] = _big_endian(idents, 2)
            ip_sums = fold_carries(self._ip_sum + iplen + idents)
            frames[:, 10:12] = _big_endian(ip_sums ^ MOD_MASK, 2)
        self._fill_check_values(frames, iplen)
        frames[:, -AAL5_TRAILER_LEN + 2 : -_CRC_LEN] = length_field
        # One zlib-fed CRC per frame: a compute_many call costs more than
        # that at every file size the corpora hold.
        size = frames.shape[1]
        compute = self._crc.compute
        with memoryview(frames.reshape(-1)) as flat:
            crcs = [
                compute(flat[start : start + size - _CRC_LEN])
                for start in range(0, count * size, size)
            ]
        frames[:, -_CRC_LEN:] = _big_endian(np.array(crcs, dtype=np.uint64), 4)
        frames.flags.writeable = False
        return WireGroup(frames.reshape(count, -1, CELL_PAYLOAD), iplen)

    def _fill_check_values(self, frames, iplen):
        """Solve and embed every row's transport check value."""
        config = self.config
        if config.algorithm == "none":
            return
        field_at = iplen - 2 if self._trailer else _TCP_FIELD
        if config.algorithm == "tcp":
            # Legacy (Section 6.2) coverage is the whole IP packet with
            # no pseudo-header: an intact packet sums to 0xFFFF from
            # byte 0, making its header cell zero-congruent whenever
            # the payload is zero-congruent.  An odd packet reads one
            # zero byte of frame padding, as RFC 1071 pads.
            start = IP_HEADER_LEN if config.fill_ip_header else 0
            total = InternetChecksum.cell_sums(frames[:, start : iplen + iplen % 2])
            if config.fill_ip_header:
                total += self._pseudo + iplen - IP_HEADER_LEN
            value = solve_sum_to_target(total, field_at - start)
            if not config.invert and not self._trailer:
                # Section 6.3 ablation: store the sum itself rather than
                # its complement.  The verifier must then compare the
                # recomputed sum against the stored field.
                value ^= MOD_MASK
            frames[:, field_at : field_at + 2] = _big_endian(value, 2)
        else:
            modulus = int(config.algorithm[-3:])
            a, b = fletcher8_cells(frames[:, IP_HEADER_LEN:iplen], modulus)
            x, y = fletcher_check_bytes(
                FletcherSums(a, b), iplen - field_at - 2, modulus
            )
            frames[:, field_at] = x
            frames[:, field_at + 1] = y

    def framed(self, data, initial_seq=None, initial_ipid=None):
        """Yield ``(TCPPacket, AAL5 frame bytes)`` for each packet.

        Both are sliced out of :meth:`wire`'s arrays.
        """
        config = self.config
        data = bytes(data)
        seq = config.initial_seq if initial_seq is None else initial_seq
        ipid = config.initial_ipid if initial_ipid is None else initial_ipid
        start = 0
        for group in self.wire(data, seq, ipid):
            count, cells, _ = group.frames.shape
            size = cells * CELL_PAYLOAD
            length = group.iplen - _HEADERS_LEN - self._trailer
            with memoryview(group.frames.reshape(-1)) as flat:
                for offset in range(0, count * size, size):
                    frame = bytes(flat[offset : offset + size])
                    packet = TCPPacket(
                        ip_packet=frame[: group.iplen],
                        payload=data[start : start + length],
                        seq=seq,
                        ipid=ipid,
                        config=config,
                    )
                    yield packet, frame
                    start += length
                    seq = (seq + length) & 0xFFFFFFFF
                    ipid = (ipid + 1) & 0xFFFF

    def packetize(self, data, initial_seq=None, initial_ipid=None):
        """Segment ``data`` into packets, one per MSS-sized chunk."""
        return [packet for packet, _ in self.framed(data, initial_seq, initial_ipid)]


def _big_endian(values, width):
    """``(len(values), width)`` uint8 big-endian bytes of ``values``."""
    return values.astype(">u%d" % width).view(np.uint8).reshape(-1, width)
