"""Protocol substrate: IPv4, TCP and AAL5 framing into ATM cells.

The paper simulates FTP file transfers over TCP/IP carried in AAL5 over
ATM.  This package builds the bytes that go "on the wire":

- :mod:`repro.protocols.ip` -- IPv4 header construction, parsing and
  header-checksum validation.
- :mod:`repro.protocols.tcp` -- TCP header construction/parsing and the
  pseudo-header checksum, for both the standard header placement and
  the paper's trailer placement, and for Fletcher check bytes.
- :mod:`repro.protocols.aal5` -- AAL5 CPCS framing: padding, the 8-byte
  trailer with length and CRC-32, segmentation into 48-byte cell
  payloads and reassembly.
- :mod:`repro.protocols.config` -- the packetizer configuration
  (algorithm, placement, ablations), importable without NumPy.
- :mod:`repro.protocols.packetizer` -- turns a file into the paper's
  packet stream (seq += payload, IP ID += 1, 256-byte segments) under a
  configurable checksum algorithm/placement, all of a file's AAL5
  frames in one array pass (``Packetizer.wire``).
- :mod:`repro.protocols.ftpsim` -- the simulated FTP transfer driving
  the splice experiments.

Exports resolve lazily (PEP 562), like :mod:`repro.core`: importing
:mod:`repro.protocols.config` to name a configuration must not import
the NumPy frame builders.
"""

from __future__ import annotations

import importlib

#: Public name -> defining submodule, resolved on first attribute use.
_EXPORTS = {
    "AAL5Error": "repro.protocols.aal5",
    "AAL5Frame": "repro.protocols.aal5",
    "AAL5_TRAILER_LEN": "repro.protocols.aal5",
    "CELL_PAYLOAD": "repro.protocols.aal5",
    "ChecksumPlacement": "repro.protocols.config",
    "FileTransferSimulator": "repro.protocols.ftpsim",
    "IP_HEADER_LEN": "repro.protocols.ip",
    "IPv4Header": "repro.protocols.ip",
    "Packetizer": "repro.protocols.packetizer",
    "PacketizerConfig": "repro.protocols.config",
    "TCPHeader": "repro.protocols.tcp",
    "TCPPacket": "repro.protocols.packetizer",
    "TCP_HEADER_LEN": "repro.protocols.tcp",
    "TransferUnit": "repro.protocols.ftpsim",
    "WireGroup": "repro.protocols.packetizer",
    "build_aal5_frame": "repro.protocols.aal5",
    "build_ipv4_header": "repro.protocols.ip",
    "build_tcp_header": "repro.protocols.tcp",
    "parse_ipv4_header": "repro.protocols.ip",
    "parse_tcp_header": "repro.protocols.tcp",
    "pseudo_header_word_sum": "repro.protocols.tcp",
    "reassemble_frame": "repro.protocols.aal5",
    "tcp_checksum_field": "repro.protocols.tcp",
    "validate_ipv4_header": "repro.protocols.ip",
    "verify_tcp_checksum": "repro.protocols.tcp",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            "module %r has no attribute %r" % (__name__, name)
        )
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: resolve each name at most once
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
