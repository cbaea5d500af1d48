"""Checksum and CRC algorithms studied by the paper.

This package implements every check-code the paper evaluates, plus the
partial-sum algebra that lets the splice engine evaluate millions of
candidate splices without re-summing bytes:

- :mod:`repro.checksums.internet` -- the 16-bit ones-complement Internet
  checksum used by IP, TCP and UDP (RFC 1071), with vectorized per-cell
  partial sums.
- :mod:`repro.checksums.fletcher` -- Fletcher's checksum in both the
  ones-complement (mod 255) and twos-complement (mod 256) variants the
  paper compares, including the positional (A, B) cell decomposition.
- :mod:`repro.checksums.crc` -- a generic table-driven CRC engine
  (any width/polynomial/reflection), the specific CRCs the paper uses
  (CRC-32 for AAL5, CRC-16, CRC-CCITT, CRC-10 for ATM OAM), and GF(2)
  zero-feed operators that combine per-cell CRC images in O(1) per cell.
- :mod:`repro.checksums.extra` -- Fletcher-16 (32-bit), Adler-32 and
  the XOR-16 parity word.
- :mod:`repro.checksums.registry` -- name-based lookup of algorithms
  and the one :class:`ChecksumAlgorithm` protocol they all implement:
  ``compute``/``field``/``verify`` on one buffer, ``compute_many`` on
  a matrix of buffers, and ``prefix_state``/``combine``/``state_value``
  for the partial states a splice joins.
- :mod:`repro.checksums.batch` -- the array helpers those members share.

Exports resolve lazily (PEP 562), like :mod:`repro.core`, and the
modules behind them import NumPy only inside the functions that build
or reduce arrays, when they run.  So the registry and a CRC engine's
scalar ``compute``/``verify`` -- the store's CRC-32 trailer check --
load no NumPy, and neither does a warm ``--cache`` hit.
"""

from __future__ import annotations

import importlib
from typing import Any, List

#: Public name -> defining submodule, resolved on first attribute use.
_EXPORTS = {
    "CRC10_ATM": "repro.checksums.crc",
    "CRC16_ARC": "repro.checksums.crc",
    "CRC16_CCITT": "repro.checksums.crc",
    "CRC32_AAL5": "repro.checksums.crc",
    "CRCEngine": "repro.checksums.crc",
    "CRCSpec": "repro.checksums.crc",
    "ChecksumAlgorithm": "repro.checksums.registry",
    "Fletcher8": "repro.checksums.fletcher",
    "FletcherSums": "repro.checksums.fletcher",
    "InternetChecksum": "repro.checksums.internet",
    "ZeroFeedOperator": "repro.checksums.crc",
    "available_algorithms": "repro.checksums.registry",
    "block_matrix": "repro.checksums.batch",
    "fletcher8": "repro.checksums.fletcher",
    "fletcher8_cells": "repro.checksums.fletcher",
    "fletcher_check_bytes": "repro.checksums.fletcher",
    "fletcher_combine": "repro.checksums.fletcher",
    "fold_carries": "repro.checksums.internet",
    "get_algorithm": "repro.checksums.registry",
    "internet_checksum": "repro.checksums.internet",
    "internet_checksum_field": "repro.checksums.internet",
    "ones_complement_add": "repro.checksums.internet",
    "ones_complement_sum": "repro.checksums.internet",
    "swap16": "repro.checksums.batch",
    "word_sums": "repro.checksums.internet",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    module_name = _EXPORTS.get(name)
    if module_name is None:
        # ``from repro.checksums import crc`` style submodule access.
        try:
            return importlib.import_module("%s.%s" % (__name__, name))
        except ModuleNotFoundError:
            raise AttributeError(
                "module %r has no attribute %r" % (__name__, name)
            ) from None
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: resolve each name at most once
    return value


def __dir__() -> List[str]:
    return sorted({*globals(), *_EXPORTS})
