"""Array helpers shared by the algorithms' batch members.

Every :class:`~repro.checksums.registry.ChecksumAlgorithm` answers one
buffer at a time (``compute``) and many at once (``compute_many``), and
carries the running-state algebra (``prefix_state`` / ``combine`` /
``state_value``) the splice engine's part partials rest on.  The
algorithms share two helpers for that: :func:`block_matrix` coerces
equal-length buffers into one uint8 matrix, and :func:`swap16` moves a
16-bit sum into the byte lanes of an odd offset.

This module sits at the very bottom of the checksums layer and imports
nothing else from the project, so every algorithm module can use it
without cycles.  NumPy serves the array members; every module of the
package imports it inside the functions that use it, so loading the
registry, or computing a CRC one buffer at a time, loads none.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Union

if TYPE_CHECKING:
    import numpy as np

__all__ = ["block_matrix", "swap16"]


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
    ragged input -- ``compute_many`` is defined over rectangular
    matrices.
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
