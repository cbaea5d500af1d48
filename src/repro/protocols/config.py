"""The packetizer's configuration: checksum algorithm, placement, ablations.

These names live apart from :mod:`repro.protocols.packetizer`, which
builds frames with NumPy, so that a sweep whose shards all come from
the store can name its configuration (and key its shards by it)
without importing NumPy.  The packetizer re-exports both.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from repro.protocols.ip import IP_HEADER_LEN
from repro.protocols.tcp import TCP_HEADER_LEN

__all__ = ["ChecksumPlacement", "PacketizerConfig"]


class ChecksumPlacement(enum.Enum):
    """Where the transport check value lives in the packet."""

    HEADER = "header"
    TRAILER = "trailer"


@dataclass(frozen=True)
class PacketizerConfig:
    """Configuration of the simulated transfer's packet construction."""

    mss: int = 256
    algorithm: str = "tcp"
    placement: ChecksumPlacement = ChecksumPlacement.HEADER
    invert: bool = True
    fill_ip_header: bool = True
    src: str = "127.0.0.1"
    dst: str = "127.0.0.1"
    sport: int = 20
    dport: int = 54321
    initial_seq: int = 1
    initial_ipid: int = 1
    window: int = 4096

    def __post_init__(self):
        if self.mss < 1:
            raise ValueError("mss must be positive")
        iplen = IP_HEADER_LEN + TCP_HEADER_LEN + self.mss
        if self.placement is ChecksumPlacement.TRAILER:
            iplen += 2
        if iplen > 0xFFFF:
            raise ValueError(
                "mss %d makes %d-byte IP packets; the IPv4 total length "
                "and the AAL5 Length field stop at 65535" % (self.mss, iplen)
            )
        if self.algorithm not in ("tcp", "fletcher255", "fletcher256", "none"):
            raise ValueError("unknown checksum algorithm %r" % self.algorithm)
        if not self.fill_ip_header and (
            self.algorithm != "tcp"
            or self.placement is not ChecksumPlacement.HEADER
            or not self.invert
        ):
            raise ValueError(
                "the legacy unfilled-IP-header mode (Section 6.2) models the "
                "original TCP header-checksum simulator only"
            )

    def with_overrides(self, **kwargs):
        """A copy of this config with fields replaced."""
        return replace(self, **kwargs)
