"""Additional check codes: Fletcher-16 (32-bit), Adler-32, XOR-16.

The paper's Section 2 notes that "Fletcher also defined a 32-bit
version, where 16-bit sums are kept"; Adler-32 (RFC 1950) is the same
construction with a prime modulus, designed after the paper and a
natural member of the comparison; the 16-bit XOR (longitudinal parity
word) is the historical baseline the Internet checksum replaced --
strictly weaker, since it cannot even count.

These participate in the distribution analyses and the registry; the
splice engine proper evaluates the codes the paper's packets carry.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.checksums.batch import block_matrix, swap16
from repro.checksums.fletcher import FletcherSums

if TYPE_CHECKING:
    import numpy as np

__all__ = ["Adler32", "Fletcher16", "Xor16", "adler32", "fletcher16", "xor16"]


def _block_words(blocks) -> np.ndarray:
    """Big-endian 16-bit words of a ``(..., L)`` block matrix (padded)."""
    import numpy as np

    blocks = block_matrix(blocks)
    if blocks.shape[-1] % 2:
        pad_shape = blocks.shape[:-1] + (1,)
        blocks = np.concatenate(
            [blocks, np.zeros(pad_shape, dtype=np.uint8)], axis=-1
        )
    words = blocks.reshape(blocks.shape[:-1] + (-1, 2)).astype(np.int64)
    return (words[..., 0] << 8) | words[..., 1]

_ADLER_MOD = 65521  # largest prime below 2^16


class _SuffixCode:
    """Shared protocol plumbing for codes carried as a trailing field.

    Subclasses provide ``width``/``name`` and ``compute``; this mixin
    derives ``field`` (big-endian serialization of the check value) and
    ``verify`` -- true when the trailing ``width // 8`` bytes equal the
    field of everything before them.
    """

    #: Provided by subclasses (declared here for the type checker).
    width: int
    name: str

    def compute(self, data) -> int:  # pragma: no cover - subclass hook
        raise NotImplementedError

    def field(self, data) -> bytes:
        """Bytes to append to ``data`` so the framed whole verifies."""
        return self.compute(data).to_bytes(self.width // 8, "big")

    def verify(self, data) -> bool:
        """True if ``data`` (trailing check field included) validates."""
        buf = bytes(data)
        n = self.width // 8
        if len(buf) < n:
            return False
        return self.field(buf[:-n]) == buf[-n:]


def fletcher16(data, modulus=65535):
    """Fletcher's 32-bit checksum: two 16-bit running sums.

    Data is taken as big-endian 16-bit words (odd length padded with a
    zero byte); ``B`` weights each word by its position from the end.
    Returns a :class:`FletcherSums` whose ``a``/``b`` are 16-bit.
    """
    import numpy as np

    buf = np.frombuffer(bytes(data), dtype=np.uint8)
    if buf.size % 2:
        buf = np.concatenate([buf, np.zeros(1, dtype=np.uint8)])
    words = buf.reshape(-1, 2).astype(np.int64)
    values = (words[:, 0] << 8) | words[:, 1]
    n = values.size
    a = int(values.sum() % modulus)
    if n:
        weights = np.arange(n, 0, -1, dtype=np.int64)
        b = int((values * weights).sum() % modulus)
    else:
        b = 0
    return FletcherSums(a, b)


class Fletcher16(_SuffixCode):
    """Object API for the 32-bit Fletcher checksum."""

    width: int = 32

    def __init__(self, modulus: int = 65535) -> None:
        if modulus not in (65535, 65536):
            raise ValueError("Fletcher-16 modulus must be 65535 or 65536")
        self.modulus = modulus
        self.name = "fletcher16-%d" % modulus

    def compute(self, data) -> int:
        sums = fletcher16(data, self.modulus)
        return (sums.b << 16) | sums.a

    # -- batch tier ----------------------------------------------------------

    def compute_many(self, blocks) -> np.ndarray:
        """Packed values of a matrix of equal-length buffers."""
        import numpy as np

        values = _block_words(blocks)
        n = values.shape[-1]
        a = values.sum(axis=-1) % self.modulus
        weights = np.arange(n, 0, -1, dtype=np.int64)
        b = (values * weights).sum(axis=-1) % self.modulus
        return (b.astype(np.uint64) << np.uint64(16)) | a.astype(np.uint64)

    def prefix_state(self, data) -> tuple:
        """``(A, B, length parity)`` after absorbing ``data``.

        Fletcher-16 runs over 16-bit words, so only *word-aligned*
        (even-length) prefixes compose; the parity lets ``combine``
        reject the rest.
        """
        data = bytes(data)
        sums = fletcher16(data, self.modulus)
        return (sums.a, sums.b, len(data) % 2)

    def combine(self, state_a, state_b, len_b) -> tuple:
        """State of ``A || B``; A must be word-aligned (even length)."""
        a1, b1, parity_a = state_a
        a2, b2, _ = state_b
        if parity_a:
            raise ValueError(
                "Fletcher-16 prefixes must be word-aligned (even length)"
            )
        words_b = (len_b + 1) // 2
        a = (a1 + a2) % self.modulus
        b = (b1 + words_b * a1 + b2) % self.modulus
        return (a, b, len_b % 2)

    def state_value(self, state) -> int:
        """The packed 32-bit value of a batch-tier state."""
        return (state[1] << 16) | state[0]


def adler32(data):
    """Adler-32 (RFC 1950): byte sums mod 65521, A initialised to 1."""
    import numpy as np

    buf = np.frombuffer(bytes(data), dtype=np.uint8).astype(np.int64)
    n = buf.size
    a = int((1 + buf.sum()) % _ADLER_MOD)
    # B accumulates A after every byte, starting from B = 0 with A = 1:
    # B = n * 1 + sum((n - i) * d[i])  (mod 65521)
    if n:
        weights = np.arange(n, 0, -1, dtype=np.int64)
        b = int((n + (buf * weights).sum()) % _ADLER_MOD)
    else:
        b = 0
    return (b << 16) | a


class Adler32(_SuffixCode):
    """Object API for Adler-32."""

    width: int = 32
    name: str = "adler32"

    def compute(self, data) -> int:
        return adler32(data)

    # -- batch tier ----------------------------------------------------------

    def compute_many(self, blocks) -> np.ndarray:
        """Adler-32 values of a matrix of equal-length buffers."""
        import numpy as np

        blocks = block_matrix(blocks).astype(np.int64)
        n = blocks.shape[-1]
        a = (1 + blocks.sum(axis=-1)) % _ADLER_MOD
        weights = np.arange(n, 0, -1, dtype=np.int64)
        b = (n + (blocks * weights).sum(axis=-1)) % _ADLER_MOD
        return (b.astype(np.uint64) << np.uint64(16)) | a.astype(np.uint64)

    def prefix_state(self, data) -> tuple:
        """The ``(A, B)`` running sums after absorbing ``data``."""
        value = adler32(data)
        return (value & 0xFFFF, value >> 16)

    def combine(self, state_a, state_b, len_b) -> tuple:
        """State of ``A || B``; cancels B's ``A = 1`` preset."""
        a1, b1 = state_a
        a2, b2 = state_b
        a = (a1 + a2 - 1) % _ADLER_MOD
        b = (b1 + b2 + len_b * (a1 - 1)) % _ADLER_MOD
        return (a, b)

    def state_value(self, state) -> int:
        """The packed 32-bit value of a batch-tier state."""
        return (state[1] << 16) | state[0]


def xor16(data):
    """The 16-bit longitudinal parity word (XOR of all 16-bit words).

    The historical pre-checksum baseline: position-blind *and*
    count-blind (a word XORed in twice vanishes), which is why every
    sum in the paper supersedes it.
    """
    import numpy as np

    buf = np.frombuffer(bytes(data), dtype=np.uint8)
    if buf.size % 2:
        buf = np.concatenate([buf, np.zeros(1, dtype=np.uint8)])
    words = buf.reshape(-1, 2).astype(np.uint16)
    values = (words[:, 0].astype(np.uint32) << 8) | words[:, 1]
    return int(np.bitwise_xor.reduce(values)) if values.size else 0


class Xor16(_SuffixCode):
    """Object API for the XOR parity word."""

    width: int = 16
    name: str = "xor16"

    def compute(self, data) -> int:
        return xor16(data)

    # -- batch tier ----------------------------------------------------------

    def compute_many(self, blocks) -> np.ndarray:
        """Parity words of a matrix of equal-length buffers."""
        import numpy as np

        values = _block_words(blocks)
        return np.bitwise_xor.reduce(values, axis=-1).astype(np.uint64)

    def prefix_state(self, data) -> tuple:
        """``(parity word, length parity)`` after absorbing ``data``."""
        data = bytes(data)
        return (xor16(data), len(data) % 2)

    def combine(self, state_a, state_b, len_b) -> tuple:
        """State of ``A || B``; odd prefixes swap B's byte lanes."""
        x_a, parity_a = state_a
        x_b, _ = state_b
        if parity_a:
            x_b = swap16(x_b)
        return (x_a ^ x_b, (parity_a + len_b) % 2)

    def state_value(self, state) -> int:
        """The parity word of a batch-tier state."""
        return state[0]
