"""The optional *batch* tier of the checksum protocol.

The scalar :class:`~repro.checksums.registry.ChecksumAlgorithm` protocol
answers one buffer at a time.  The paper's splice enumeration needs the
same answer for millions of closely related buffers, which is only
tractable with three extra capabilities:

``compute_many(blocks)``
    Check values for a whole ``(n_blocks, length)`` matrix of
    equal-length buffers in one vectorized pass -- slicing-by-8 tables
    for CRCs, NumPy column reductions for the modular sums.

``prefix_state(data)``
    The algorithm's *internal running state* after absorbing ``data``:
    a CRC register, an Internet ``(sum, parity)`` pair, Fletcher
    ``(A, B)`` sums.  States are opaque to callers; map one to the
    external check value with ``state_value``.

``combine(state_a, state_b, len_b)``
    The state of the concatenation ``A || B`` from the two independent
    states -- O(1) for the modular sums, O(log len_b) for CRCs via the
    zero-feed operator.

Algorithms advertise the capability *structurally*: there is no base
class to inherit, :func:`supports_batch` simply checks the methods are
present, and the registry re-exports the check so callers can ask it
of a registered name.

This module sits at the very bottom of the checksums layer and imports
nothing else from the project, so any layer can talk about the batch
capability without cycles.  NumPy is a hard dependency of the batch
tier; every module of the package imports it inside the functions
that use it, so loading the registry, or computing a CRC one buffer
at a time, loads none.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Protocol, Union, runtime_checkable

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "BatchChecksumAlgorithm",
    "block_matrix",
    "supports_batch",
    "swap16",
]


@runtime_checkable
class BatchChecksumAlgorithm(Protocol):
    """Structural type for algorithms that implement the batch tier.

    Restates the scalar protocol members (the batch tier is a superset,
    not a replacement) and adds the vectorized/incremental methods.
    """

    name: str
    width: int

    def compute(self, data: bytes) -> int:
        """The check value of one buffer (scalar reference)."""
        ...

    def field(self, data: bytes) -> bytes:
        """The trailer/field bytes protecting ``data``."""
        ...

    def compute_many(self, blocks: Any) -> np.ndarray:
        """Check values of a ``(..., L)`` uint8 matrix of buffers."""
        ...

    def prefix_state(self, data: bytes) -> Any:
        """Internal running state after absorbing ``data``."""
        ...

    def combine(self, state_a: Any, state_b: Any, len_b: int) -> Any:
        """State of ``A || B`` from the states of A and B."""
        ...

    def state_value(self, state: Any) -> int:
        """Map an internal state to the external check value."""
        ...


def supports_batch(algorithm: object) -> bool:
    """True when ``algorithm`` implements the batch capability tier.

    The check is structural (``isinstance`` against the runtime
    protocol), so third-party algorithms opt in simply by providing the
    methods -- no registration or inheritance required.
    """
    return isinstance(algorithm, BatchChecksumAlgorithm)


def swap16(value: Union[int, np.ndarray]) -> Union[int, np.ndarray]:
    """Swap the two bytes of a 16-bit quantity (int or uint array).

    Byte-swapping commutes with ones-complement (end-around carry)
    addition, which is what lets odd-length prefixes combine with a
    byte-swapped suffix sum (RFC 1071, section 2(B)).
    """
    return ((value & 0xFF) << 8) | ((value >> 8) & 0xFF)


def block_matrix(blocks: Union[np.ndarray, Iterable[bytes]]) -> np.ndarray:
    """Coerce equal-length buffers into the ``(n, L)`` uint8 matrix form.

    Accepts an existing ``(..., L)`` uint8 array unchanged (no copy) or
    any iterable of equal-length bytes-likes.  Raises ``ValueError`` on
    ragged input -- the batch tier is defined over rectangular matrices.
    """
    import numpy as np

    if isinstance(blocks, np.ndarray):
        if blocks.dtype != np.uint8:
            raise ValueError("block matrices must be uint8")
        return blocks
    rows = [np.frombuffer(bytes(blob), dtype=np.uint8) for blob in blocks]
    if not rows:
        return np.empty((0, 0), dtype=np.uint8)
    length = rows[0].shape[0]
    if any(row.shape[0] != length for row in rows):
        raise ValueError("compute_many requires equal-length blocks")
    return np.stack(rows) if rows else np.empty((0, length), dtype=np.uint8)
