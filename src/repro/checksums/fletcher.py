"""Fletcher's checksum, in the mod-255 and mod-256 variants of the paper.

Fletcher's 16-bit checksum keeps two 8-bit running sums over the data
bytes ``d[0..n-1]``:

* ``A = sum(d[i]) mod M``
* ``B = sum((n - i) * d[i]) mod M`` -- each byte weighted by its
  position from the end of the packet, which is what gives the sum its
  positional sensitivity (and, over non-uniform data, the cell
  "colouring" effect the paper analyses in Section 5.2).

``M`` is 255 for the ones-complement variant (two representations of
zero: 0x00 and 0xFF, the root of the PBM pathology in Section 5.5) and
256 for the twos-complement variant.

The decomposition used throughout the splice engine: for a chunk whose
*end* lies ``D`` bytes before the end of the covered region,

    ``A_total += A_chunk``
    ``B_total += B_chunk + D * A_chunk``        (all mod M)

which is exactly the paper's per-cell contribution rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.checksums.batch import block_matrix

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Fletcher8",
    "FletcherSums",
    "fletcher8",
    "fletcher8_cells",
    "fletcher_check_bytes",
    "fletcher_combine",
]


@dataclass(frozen=True)
class FletcherSums:
    """The (A, B) running-sum pair of a Fletcher checksum over a chunk."""

    a: int
    b: int

    def packed(self):
        """The conventional 16-bit checksum value ``(B << 8) | A``."""
        return (self.b << 8) | self.a


def fletcher8(data, modulus=255):
    """Compute Fletcher (A, B) sums over ``data``.

    ``B`` weights each byte by its position from the end (the last byte
    has weight 1), matching the paper's definition.
    """
    import numpy as np

    buf = np.frombuffer(bytes(data), dtype=np.uint8).astype(np.int64)
    n = buf.size
    a = int(buf.sum() % modulus)
    if n:
        weights = np.arange(n, 0, -1, dtype=np.int64)
        b = int((buf * weights).sum() % modulus)
    else:
        b = 0
    return FletcherSums(a, b)


def fletcher8_cells(cells, modulus=255):
    """Vectorized per-chunk Fletcher sums.

    ``cells`` is a ``(..., L)`` uint8 array.  Returns ``(A, B)`` int64
    arrays of shape ``(...,)`` where ``B`` is local to each chunk (last
    byte of the chunk has weight 1).  Combine across chunks with
    ``B_total = B_local + D * A_local`` for a chunk ending ``D`` bytes
    before the end of the covered region.
    """
    import numpy as np

    cells = np.asarray(cells, dtype=np.uint8).astype(np.int64)
    length = cells.shape[-1]
    a = cells.sum(axis=-1) % modulus
    weights = np.arange(length, 0, -1, dtype=np.int64)
    b = (cells * weights).sum(axis=-1) % modulus
    return a, b


def fletcher_combine(first, second, second_len, modulus=255):
    """Fletcher sums of the concatenation ``first || second``.

    ``second_len`` is the byte length of the second chunk, i.e. the
    distance of the first chunk's end from the end of the whole.
    """
    a = (first.a + second.a) % modulus
    b = (first.b + second_len * first.a + second.b) % modulus
    return FletcherSums(a, b)


def fletcher_check_bytes(sums, distance_from_end, modulus=255):
    """Solve the two check bytes for a sum-to-zero Fletcher packet.

    ``sums`` are the (A, B) sums of the covered region with the two
    check-byte positions already counted as zeros.  The check bytes
    ``(x, y)`` occupy adjacent positions whose *second* byte lies
    ``distance_from_end`` bytes before the end of the covered region
    (0 when the field is the trailing pair).  Returns ``(x, y)`` such
    that the full region sums to (0, 0) -- the "sum-to-zero inversion"
    the paper applies to its Fletcher results.

    The 2x2 system ``A + x + y = 0``, ``B + (d+2)x + (d+1)y = 0`` has
    determinant -1, hence a unique solution for any modulus.  Sums held
    as integer arrays solve elementwise.
    """
    d = distance_from_end
    x = ((d + 1) * sums.a - sums.b) % modulus
    y = (-sums.a - x) % modulus
    return x, y


class Fletcher8:
    """Fletcher's 8-bit-chunk checksum with configurable modulus.

    ``Fletcher8(255)`` is the ones-complement variant ("F-255" in the
    paper's tables); ``Fletcher8(256)`` the twos-complement one
    ("F-256", the TP4 flavour).  Conforms to the registry's
    :class:`~repro.checksums.registry.ChecksumAlgorithm` protocol.
    """

    width: int = 16

    def __init__(self, modulus: int = 255) -> None:
        if modulus not in (255, 256):
            raise ValueError("Fletcher modulus must be 255 or 256")
        self.modulus = modulus
        self.name = "fletcher%d" % modulus

    def compute(self, data) -> int:
        """The packed 16-bit checksum ``(B << 8) | A`` of ``data``."""
        return fletcher8(data, self.modulus).packed()

    def sums(self, data):
        """The raw (A, B) pair over ``data``."""
        return fletcher8(data, self.modulus)

    def check_bytes(self, data, field_offset):
        """Check bytes to place at ``data[field_offset:field_offset+2]``.

        The two bytes at the field offset must currently be zero.
        """
        buf = bytes(data)
        if buf[field_offset] or buf[field_offset + 1]:
            raise ValueError("checksum field must be zeroed before solving")
        sums = fletcher8(buf, self.modulus)
        distance = len(buf) - (field_offset + 2)
        return fletcher_check_bytes(sums, distance, self.modulus)

    def field(self, data) -> bytes:
        """The two check bytes to *append* to ``data``.

        Solves the trailing-pair case of :meth:`check_bytes`:
        ``data + field(data)`` sums to (0, 0), so :meth:`verify`
        accepts the framed whole.
        """
        x, y = self.check_bytes(bytes(data) + b"\x00\x00", len(data))
        return bytes((x, y))

    def verify(self, data) -> bool:
        """True if ``data`` (with embedded check bytes) sums to zero."""
        sums = fletcher8(data, self.modulus)
        return sums.a == 0 and sums.b == 0

    # -- batch tier ----------------------------------------------------------

    def compute_many(self, blocks) -> np.ndarray:
        """Packed checksums of a matrix of equal-length buffers."""
        import numpy as np

        blocks = block_matrix(blocks)
        a, b = fletcher8_cells(blocks, self.modulus)
        return ((b.astype(np.uint64) << np.uint64(8)) | a.astype(np.uint64))

    def prefix_state(self, data):
        """The (A, B) running sums after absorbing ``data``."""
        return fletcher8(data, self.modulus)

    def combine(self, state_a, state_b, len_b):
        """Sums of ``A || B``: shift A's positional term by ``len_b``."""
        return fletcher_combine(state_a, state_b, len_b, self.modulus)

    def state_value(self, state) -> int:
        """The packed 16-bit value of a batch-tier state."""
        return state.packed()
