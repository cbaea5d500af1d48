"""How the splice engine judges splices: :class:`EngineOptions`.

These options live apart from :mod:`repro.core.engine`, which imports
NumPy, so that a sweep whose shards all come from the store can key its
shards by them without importing the engine.  The engine re-exports
the class.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.protocols.config import ChecksumPlacement

__all__ = ["EngineOptions"]


@dataclass(frozen=True)
class EngineOptions:
    """How the engine should judge splices.

    ``algorithm``/``placement``/``invert`` must match the packetizer
    configuration the frames were built with (use
    :meth:`from_packetizer`); ``require_ip_checksum`` follows the
    Section 6.2 ablation; ``aux_crcs`` names additional CRC engines run
    in place of the AAL5 CRC-32 for observable-rate uniformity checks.
    """

    algorithm: str = "tcp"
    placement: ChecksumPlacement = ChecksumPlacement.HEADER
    invert: bool = True
    require_ip_checksum: bool = True
    legacy_coverage: bool = False
    aux_crcs: tuple = ("crc16-ccitt",)
    max_splices: int = 2_000_000
    batch_elements: int = 2_000_000
    #: 0 = exact enumeration; otherwise pairs whose splice count
    #: exceeds this are evaluated over a uniform sample of this size
    #: (rates stay unbiased; totals reflect the sample).
    sample_splices: int = 0

    @classmethod
    def from_packetizer(cls, config, **overrides):
        """Options consistent with a :class:`PacketizerConfig`."""
        fields = dict(
            algorithm=config.algorithm,
            placement=config.placement,
            invert=config.invert,
            require_ip_checksum=config.fill_ip_header,
            legacy_coverage=not config.fill_ip_header,
        )
        fields.update(overrides)
        return cls(**fields)
