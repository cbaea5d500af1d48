"""Protocol substrate: IPv4, TCP, ATM cells and AAL5 framing.

The paper simulates FTP file transfers over TCP/IP carried in AAL5 over
ATM.  This package builds the bytes that go "on the wire":

- :mod:`repro.protocols.ip` -- IPv4 header construction, parsing and
  header-checksum validation.
- :mod:`repro.protocols.tcp` -- TCP header construction/parsing and the
  pseudo-header checksum, for both the standard header placement and
  the paper's trailer placement, and for Fletcher check bytes.
- :mod:`repro.protocols.atm` -- the 53-byte ATM cell model, including
  the HEC (CRC-8) header check and the AAL5 last-cell marking.
- :mod:`repro.protocols.aal5` -- AAL5 CPCS framing: padding, the 8-byte
  trailer with length and CRC-32, segmentation and reassembly.
- :mod:`repro.protocols.packetizer` -- turns a file into the paper's
  packet stream (seq += payload, IP ID += 1, 256-byte segments) under a
  configurable checksum algorithm/placement, all of a file's AAL5
  frames in one array pass (``Packetizer.wire``).
- :mod:`repro.protocols.ftpsim` -- the simulated FTP transfer driving
  the splice experiments.
"""

from repro.protocols.aal5 import (
    AAL5_TRAILER_LEN,
    CELL_PAYLOAD,
    AAL5Error,
    AAL5Frame,
    build_aal5_frame,
    reassemble_frame,
)
from repro.protocols.atm import AtmCell, AtmCellHeader, cells_for_frame
from repro.protocols.ip import (
    IP_HEADER_LEN,
    IPv4Header,
    build_ipv4_header,
    parse_ipv4_header,
    validate_ipv4_header,
)
from repro.protocols.packetizer import (
    ChecksumPlacement,
    Packetizer,
    PacketizerConfig,
    TCPPacket,
    WireGroup,
)
from repro.protocols.ftpsim import FileTransferSimulator, TransferUnit
from repro.protocols.tcp import (
    TCP_HEADER_LEN,
    TCPHeader,
    build_tcp_header,
    parse_tcp_header,
    pseudo_header_word_sum,
    tcp_checksum_field,
    verify_tcp_checksum,
)

__all__ = [
    "AAL5Error",
    "AAL5Frame",
    "AAL5_TRAILER_LEN",
    "AtmCell",
    "AtmCellHeader",
    "CELL_PAYLOAD",
    "ChecksumPlacement",
    "FileTransferSimulator",
    "IP_HEADER_LEN",
    "IPv4Header",
    "Packetizer",
    "PacketizerConfig",
    "TCPHeader",
    "TCPPacket",
    "TCP_HEADER_LEN",
    "TransferUnit",
    "WireGroup",
    "build_aal5_frame",
    "build_ipv4_header",
    "build_tcp_header",
    "cells_for_frame",
    "parse_ipv4_header",
    "parse_tcp_header",
    "pseudo_header_word_sum",
    "reassemble_frame",
    "tcp_checksum_field",
    "validate_ipv4_header",
    "verify_tcp_checksum",
]
