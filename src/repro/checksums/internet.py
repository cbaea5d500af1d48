"""The Internet checksum (RFC 1071) and its partial-sum algebra.

The TCP/IP checksum is the 16-bit ones-complement sum of the data taken
as big-endian 16-bit words; the stored header field is the ones
complement of that sum, so a receiver summing an intact segment
(including the stored field) obtains ``0xFFFF``.

Two properties of the sum drive the paper's methodology and this
implementation:

* **Decomposability** -- the sum of a packet equals the ones-complement
  sum of the sums of its pieces, as long as each piece starts on an even
  byte offset.  The splice engine exploits this: it computes one 48-byte
  partial sum per ATM cell and evaluates every candidate splice as a sum
  of per-cell partials.
* **Order independence** -- the sum of a set of 16-bit words does not
  depend on their order, which is precisely the weakness the paper's
  splice error model probes.

All bulk operations are vectorized with NumPy, imported by the
functions that use it; the scalar entry points accept any bytes-like
object.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.checksums.batch import block_matrix, swap16

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "MOD_MASK",
    "InternetChecksum",
    "fold_carries",
    "internet_checksum",
    "internet_checksum_field",
    "ones_complement_add",
    "ones_complement_sum",
    "word_sums",
]

#: All-ones 16-bit mask; ``0xFFFF`` and ``0x0000`` both represent zero in
#: ones-complement arithmetic (the "two zeros" the paper discusses).
MOD_MASK = 0xFFFF


def fold_carries(value):
    """Fold a (possibly very wide) unsigned sum down to 16 bits.

    Repeatedly adds the high bits back into the low 16 bits, which is
    how deferred end-around-carry ones-complement addition is realised
    on twos-complement hardware.  Accepts Python ints or NumPy arrays.
    Each step keeps the value modulo 0xFFFF and a non-zero value never
    folds to zero, so arrays take the closed form: 0 stays 0, anything
    else lands on its residue in ``1..0xFFFF``.
    """
    if not isinstance(value, int):
        import numpy as np

        if isinstance(value, np.ndarray):
            value = value.astype(np.uint64)
            folded = (value - np.uint64(1)) % np.uint64(MOD_MASK) + np.uint64(1)
            folded[value == 0] = 0
            return folded.astype(np.uint32)
        value = int(value)
    while value >> 16:
        value = (value & MOD_MASK) + (value >> 16)
    return value


def ones_complement_add(a, b):
    """Ones-complement 16-bit addition with end-around carry."""
    return fold_carries(int(a) + int(b))


def word_sums(data):
    """Return the plain (unfolded) integer sum of big-endian 16-bit words.

    Odd-length data is conceptually padded with a trailing zero byte, as
    RFC 1071 specifies.
    """
    import numpy as np

    buf = np.frombuffer(bytes(data), dtype=np.uint8)
    if buf.size % 2:
        buf = np.concatenate([buf, np.zeros(1, dtype=np.uint8)])
    words = buf.reshape(-1, 2).astype(np.uint64)
    return int((words[:, 0] << np.uint64(8) | words[:, 1]).sum())


def ones_complement_sum(data):
    """The 16-bit ones-complement sum of ``data`` (not inverted)."""
    return fold_carries(word_sums(data))


def internet_checksum(data):
    """Alias of :func:`ones_complement_sum` under its common name."""
    return ones_complement_sum(data)


def internet_checksum_field(data):
    """The value stored in a header checksum field.

    RFC 1071: the ones complement of the ones-complement sum, so that a
    verifier summing the data *with* the stored field obtains ``0xFFFF``.
    """
    return ones_complement_sum(data) ^ MOD_MASK


class InternetChecksum:
    """Object API over the Internet checksum, including vectorized forms.

    Instances are stateless; the class conforms to the registry's
    :class:`~repro.checksums.registry.ChecksumAlgorithm` protocol and
    adds the vectorized ``cell_sums`` used by the splice engine.
    """

    name: str = "internet"
    width: int = 16

    def compute(self, data) -> int:
        """16-bit ones-complement sum of ``data``."""
        return ones_complement_sum(data)

    def field(self, data) -> bytes:
        """Check-field bytes to append to ``data`` (RFC 1071).

        The sum is position-independent only across *even* byte
        offsets, so for odd-length data the two field bytes are swapped
        to land in the byte lanes the verifier's word framing assigns
        them -- either way ``verify(data + field(data))`` holds.  (Use
        :func:`internet_checksum_field` for the integer form.)
        """
        value = internet_checksum_field(data)
        return value.to_bytes(2, "big" if len(bytes(data)) % 2 == 0 else "little")

    def verify(self, data) -> bool:
        """True if ``data`` (including its stored field) sums to 0xFFFF."""
        return ones_complement_sum(data) == MOD_MASK

    @staticmethod
    def cell_sums(cells):
        """Unfolded word sums of many equal-length even-size chunks.

        ``cells`` is a ``(..., L)`` uint8 array with even ``L``.  Returns
        a ``(...,)`` uint64 array of plain word sums (callers fold after
        accumulating across cells, which keeps the hot path add-only).
        """
        import numpy as np

        cells = np.asarray(cells, dtype=np.uint8)
        if cells.shape[-1] % 2:
            raise ValueError("cell length must be even for word alignment")
        # Summing a big-endian uint16 view into uint64 widens in small
        # buffered chunks, never materialising an 8-byte copy per byte.
        words = np.ascontiguousarray(cells).view(">u2")
        return words.sum(axis=-1, dtype=np.uint64)

    @staticmethod
    def fold(values):
        """Fold accumulated word sums down to 16 bits (array or int)."""
        return fold_carries(values)

    # -- batch tier ----------------------------------------------------------

    def compute_many(self, blocks) -> np.ndarray:
        """Folded sums of a matrix of equal-length buffers, one pass."""
        import numpy as np

        blocks = block_matrix(blocks)
        if blocks.shape[-1] % 2:
            pad_shape = blocks.shape[:-1] + (1,)
            blocks = np.concatenate(
                [blocks, np.zeros(pad_shape, dtype=np.uint8)], axis=-1
            )
        return fold_carries(self.cell_sums(blocks)).astype(np.uint64)

    def prefix_state(self, data) -> tuple:
        """``(folded word sum, length parity)`` after absorbing ``data``.

        The parity is what :meth:`combine` needs: a suffix starting at
        an odd offset contributes its sum byte-swapped (RFC 1071,
        section 2(B) -- byte swap commutes with end-around carry).
        """
        data = bytes(data)
        return (ones_complement_sum(data), len(data) % 2)

    def combine(self, state_a, state_b, len_b) -> tuple:
        """State of ``A || B`` from the two prefix states."""
        sum_a, parity_a = state_a
        sum_b, _ = state_b
        if parity_a:
            sum_b = swap16(sum_b)
        return (fold_carries(sum_a + sum_b), (parity_a + len_b) % 2)

    def state_value(self, state) -> int:
        """The folded ones-complement sum of a batch-tier state."""
        return state[0]
