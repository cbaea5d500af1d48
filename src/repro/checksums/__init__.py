"""Checksum and CRC algorithms studied by the paper.

This package implements every check-code the paper evaluates, plus the
partial-sum algebra that lets the splice engine evaluate millions of
candidate splices without re-summing bytes:

- :mod:`repro.checksums.internet` -- the 16-bit ones-complement Internet
  checksum used by IP, TCP and UDP (RFC 1071), with vectorized per-cell
  partial sums and incremental-update helpers.
- :mod:`repro.checksums.fletcher` -- Fletcher's checksum in both the
  ones-complement (mod 255) and twos-complement (mod 256) variants the
  paper compares, including the positional (A, B) cell decomposition.
- :mod:`repro.checksums.crc` -- a generic table-driven CRC engine
  (any width/polynomial/reflection), the specific CRCs the paper uses
  (CRC-32 for AAL5, CRC-16, CRC-CCITT, CRC-10 for ATM OAM), and GF(2)
  zero-feed operators that combine per-cell CRC images in O(1) per cell.
- :mod:`repro.checksums.batch` -- the optional batch capability tier
  (``compute_many`` / ``prefix_state`` / ``combine``) behind the
  vectorized splice engine.
- :mod:`repro.checksums.registry` -- name-based lookup of algorithms.
"""

from repro.checksums.batch import (
    BatchChecksumAlgorithm,
    block_matrix,
    swap16,
)
from repro.checksums.internet import (
    InternetChecksum,
    fold_carries,
    internet_checksum,
    internet_checksum_field,
    ones_complement_add,
    ones_complement_sum,
    update_checksum_field,
    word_sums,
)
from repro.checksums.fletcher import (
    Fletcher8,
    FletcherSums,
    fletcher8,
    fletcher8_cells,
    fletcher_check_bytes,
    fletcher_combine,
)
from repro.checksums.crc import (
    CRC10_ATM,
    CRC16_ARC,
    CRC16_CCITT,
    CRC32_AAL5,
    CRCEngine,
    CRCSpec,
    ZeroFeedOperator,
    crc_combine,
)
from repro.checksums.registry import (
    ChecksumAlgorithm,
    available_algorithms,
    get_algorithm,
    supports_batch,
)

__all__ = [
    "BatchChecksumAlgorithm",
    "CRC10_ATM",
    "CRC16_ARC",
    "CRC16_CCITT",
    "CRC32_AAL5",
    "CRCEngine",
    "CRCSpec",
    "ChecksumAlgorithm",
    "Fletcher8",
    "FletcherSums",
    "InternetChecksum",
    "ZeroFeedOperator",
    "available_algorithms",
    "block_matrix",
    "crc_combine",
    "fletcher8",
    "fletcher8_cells",
    "fletcher_check_bytes",
    "fletcher_combine",
    "fold_carries",
    "get_algorithm",
    "internet_checksum",
    "internet_checksum_field",
    "ones_complement_add",
    "ones_complement_sum",
    "supports_batch",
    "swap16",
    "update_checksum_field",
    "word_sums",
]
