"""Whole-filesystem transforms used by the paper's counterfactuals.

* :func:`compress_filesystem` -- the Section 5.1 experiment: compress
  every file, which restores a near-uniform byte distribution and with
  it the expected 2^-16 TCP miss rate.  The paper used UNIX
  ``compress`` (LZW); we use DEFLATE, which serves the same purpose
  (any competent entropy coder produces near-uniform output).
* :func:`add_constant_to_words` -- the Section 6.1 thought experiment
  ("is zero special?"): adding a constant to every 16-bit word permutes
  the checksum distribution without changing match probabilities.
"""

from __future__ import annotations

import zlib

from repro.corpus.filesystem import Filesystem, SyntheticFile

__all__ = ["add_constant_to_words", "compress_filesystem"]


def compress_filesystem(fs, level=6):
    """A copy of ``fs`` with every file DEFLATE-compressed."""
    out = Filesystem(name=fs.name + "-compressed")
    for file in fs:
        out.add(
            SyntheticFile(
                name=file.name + ".z",
                data=zlib.compress(file.data, level),
                kind=file.kind + "+compressed",
            )
        )
    return out


def add_constant_to_words(fs, constant):
    """A copy of ``fs`` with ``constant`` added to every 16-bit word.

    Odd-length files keep their final byte unchanged.  Used to verify
    the paper's claim that zero's high frequency, not its being the
    additive identity, drives the failure rate.
    """
    import numpy as np

    constant &= 0xFFFF
    out = Filesystem(name=fs.name + "+%#06x" % constant)
    for file in fs:
        buf = np.frombuffer(file.data, dtype=np.uint8)
        even = buf.size - (buf.size % 2)
        words = buf[:even].reshape(-1, 2).astype(np.uint16)
        values = ((words[:, 0].astype(np.uint32) << 8) | words[:, 1]) + constant
        values &= 0xFFFF
        shifted = np.empty_like(words)
        shifted[:, 0] = values >> 8
        shifted[:, 1] = values & 0xFF
        data = shifted.astype(np.uint8).tobytes() + file.data[even:]
        out.add(SyntheticFile(name=file.name, data=data, kind=file.kind))
    return out
