"""Vectorized batch kernels behind the splice hot path.

This module is the numerical core of the splice engine: the engine
proper (:mod:`repro.core.engine`) stays an orchestrator and every
per-cell reduction lives here, built on the checksums layer's batch tier
(:mod:`repro.checksums.batch`).

Three families of machinery:

* **Range kernels** -- :func:`range_word_sums` / :func:`range_fletcher`
  / :func:`fold16` reduce whole ``(..., 48)`` cell arrays in one NumPy
  pass per coverage window.

* **Per-slot CRC operators** -- :class:`CellCrcFold` unrolls the affine
  register recurrence ``reg' = Z^48(reg) XOR c_cell`` across all slots:

      ``reg = Z^{48*slots + tail}(init)
              XOR_j Z^{48*(slots-1-j) + tail}(c_j)  XOR  c_trailer``

  and applies every slot's operator to every cell image in one table
  gather, so a cell's contribution in each slot is known before any
  splice is formed.

* **Part partials** -- :func:`part_partials` folds those per-slot
  contributions over the first-frame and second-frame parts of an
  enumeration (see :class:`~repro.core.enumeration.SpliceEnumeration`).
  Every verdict is a sum, XOR or AND over slots, so it splits at the
  frame boundary, and the engine judges each splice with one combine
  of two partials instead of one gather per slot.
"""

from __future__ import annotations

import numpy as np

from repro.protocols.aal5 import CELL_PAYLOAD

__all__ = [
    "CellCrcFold",
    "fold16",
    "part_partials",
    "range_fletcher",
    "range_word_sums",
]


def range_word_sums(arr, lo, hi):
    """Unfolded 16-bit word sums of ``arr[..., lo:hi]`` (``lo`` even)."""
    if hi <= lo:
        return np.zeros(arr.shape[:-1], dtype=np.uint64)
    seg = arr[..., lo:hi]
    if seg.shape[-1] % 2:
        pad = np.zeros(seg.shape[:-1] + (1,), dtype=np.uint8)
        seg = np.concatenate([seg, pad], axis=-1)
    words = np.ascontiguousarray(seg).view(">u2")
    return words.sum(axis=-1, dtype=np.uint64)


def range_fletcher(arr, lo, hi, modulus):
    """Local Fletcher (A, B) over ``arr[..., lo:hi]``; B ends at ``hi``."""
    shape = arr.shape[:-1]
    if hi <= lo:
        zero = np.zeros(shape, dtype=np.int64)
        return zero, zero.copy()
    seg = arr[..., lo:hi].astype(np.int64)
    a = seg.sum(axis=-1) % modulus
    weights = np.arange(hi - lo, 0, -1, dtype=np.int64)
    b = (seg * weights).sum(axis=-1) % modulus
    return a, b


def fold16(values):
    """Fold accumulated word sums down to 16 bits, vectorized."""
    values = values.astype(np.uint64, copy=True)
    while (values >> np.uint64(16)).any():
        values = (values & np.uint64(0xFFFF)) + (values >> np.uint64(16))
    return values


#: Most elements one :func:`part_partials` gather may hold.  Exact
#: enumerations of the paper's packet sizes fit in one gather; sampled
#: enumerations of large frames, whose parts are nearly all distinct,
#: are gathered in blocks so the intermediate stays bounded.
_PART_GATHER_ELEMENTS = 1 << 20


def part_partials(per_slot, parts, reduce):
    """Per-part partials: ``reduce`` over the slots each part occupies.

    ``per_slot`` is a ``(slots, cells, B)`` array holding what each cell
    contributes when it sits in each slot; its last cell must hold the
    identity of ``reduce`` (zero for sums and XOR, True for AND).
    ``parts`` is a ``(K, slots)`` matrix of cell indices with ``-1`` in
    the slots a part does not occupy, which therefore read the identity.
    Returns the ``(K, B)`` partials: one gather and one reduction per
    block of parts.
    """
    slots = np.arange(parts.shape[1])
    step = max(1, _PART_GATHER_ELEMENTS // max(len(slots) * per_slot.shape[-1], 1))
    if len(parts) <= step:
        return reduce(per_slot[slots, parts], axis=1)
    return np.concatenate(
        [
            reduce(per_slot[slots, parts[start : start + step]], axis=1)
            for start in range(0, len(parts), step)
        ]
    )


class CellCrcFold:
    """Per-slot zero-feed operators of cell CRC images.

    Feeding ``slots`` candidate cells and then a ``tail``-byte trailer
    chunk from the preset register unrolls, by GF(2) linearity, to the
    XOR form in the module docstring.  The per-slot operators
    ``Z^{48*(slots-1-j) + tail}`` are built once (their tables are
    cached on the CRC engine) and stacked, so :meth:`slot_images`
    applies all of them to every cell image in one gather; :attr:`const`
    is the preset register's term ``Z^{48*slots + tail}(init)``.
    """

    def __init__(self, engine, slots, tail, span=CELL_PAYLOAD):
        self.const = np.uint32(
            engine.zero_feed(span * slots + tail).apply(engine.register_init)
        )
        ops = [engine.zero_feed(span * (slots - 1 - j) + tail) for j in range(slots)]
        nbytes = (engine.width + 7) // 8
        # Block j * nbytes + k maps register byte k through slot j's operator.
        tables = [table for op in ops for table in op.tables]
        self._tables = np.concatenate(tables) if tables else np.zeros(0, np.uint32)
        self._shifts = np.arange(0, 8 * nbytes, 8, dtype=np.uint32)[:, None, None]
        self._offsets = 256 * np.arange(slots * nbytes).reshape(slots, nbytes, 1, 1)

    def slot_images(self, images):
        """``(slots, cells, B)``: each slot's operator on ``images``.

        ``images`` is the ``(cells, B)`` uint32 array of cell images.
        """
        octets = (images >> self._shifts) & np.uint32(0xFF)
        gathered = np.take(self._tables, octets + self._offsets)
        return np.bitwise_xor.reduce(gathered, axis=1)
