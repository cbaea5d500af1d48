"""Name-based registry of the check-code algorithms the paper studies.

Every registered algorithm conforms to the :class:`ChecksumAlgorithm`
protocol -- the single calling convention the CLI, the artifact store,
the bench harness, and :func:`repro.api.sum_file` rely on:

=================  ====================================================
member             meaning
=================  ====================================================
``name``           registry name (``"internet"``, ``"crc32-aal5"``, ...)
``width``          check-value width in bits
``compute(data)``  the check value of ``data`` as an ``int``
``field(data)``    the bytes to *append* to ``data`` so that the
                   framed whole verifies (big-endian for the sums,
                   spec byte order for CRCs)
``verify(data)``   True if ``data`` **with its check field included**
                   validates -- sum-to-``0xFFFF`` for the Internet
                   checksum, sum-to-zero for Fletcher, the residue
                   register for CRCs, a trailing-field compare for the
                   suffix codes
``compute_many``   check values of a ``(..., L)`` uint8 matrix of
                   equal-length buffers in one vectorized pass
``prefix_state``   the running state after absorbing ``data``: a CRC
                   register, an Internet ``(sum, parity)`` pair,
                   Fletcher ``(A, B)`` sums
``combine``        ``combine(state_a, state_b, len_b)``: the state of
                   ``A || B`` from the states of A and B
``state_value``    the check value of a state
=================  ====================================================

For every algorithm ``a`` and message ``m``, the framing identity
``a.verify(m + a.field(m))`` holds; this is what the artifact store's
integrity trailers and the splice engine's verdict checks build on.
The state members obey ``a.state_value(a.combine(a.prefix_state(x),
a.prefix_state(y), len(y))) == a.compute(x + y)``, for word-aligned
``x`` where the code runs over 16-bit words (Fletcher-16).
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Protocol,
    Union,
    runtime_checkable,
)

from repro.checksums.crc import (
    CRC10_ATM,
    CRC16_ARC,
    CRC16_CCITT,
    CRC32_AAL5,
    CRC32C,
    CRCEngine,
)
from repro.checksums.extra import Adler32, Fletcher16, Xor16
from repro.checksums.fletcher import Fletcher8
from repro.checksums.internet import InternetChecksum

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ByteSource",
    "ChecksumAlgorithm",
    "available_algorithms",
    "get_algorithm",
]

#: Anything the engines accept as message bytes.  ``memoryview`` is the
#: splice engine's native currency (zero-copy windows over the corpus).
ByteSource = Union[bytes, bytearray, memoryview]


@runtime_checkable
class ChecksumAlgorithm(Protocol):
    """The uniform interface every registered check code implements.

    ``runtime_checkable`` so ``isinstance(x, ChecksumAlgorithm)``
    verifies structural conformance (methods/attributes present; it
    cannot check signatures -- the conformance tests do that).

    ``compute`` returns a value already reduced modulo the code, i.e.
    ``0 <= compute(data) < (1 << width)``; engines that keep a wider
    accumulator mask with ``(1 << width) - 1`` before returning (the
    REP501 lint rule checks the literal masks statically).
    """

    name: str
    width: int

    def compute(self, data: ByteSource) -> int:
        """The check value of ``data`` (``< 1 << width``)."""
        ...  # pragma: no cover - protocol stub

    def field(self, data: ByteSource) -> bytes:
        """Bytes to append to ``data`` so the framed whole verifies."""
        ...  # pragma: no cover - protocol stub

    def verify(self, data: ByteSource) -> bool:
        """True if ``data`` (check field included) validates."""
        ...  # pragma: no cover - protocol stub

    def compute_many(self, blocks: Any) -> np.ndarray:
        """Check values of a ``(..., L)`` uint8 matrix of buffers."""
        ...  # pragma: no cover - protocol stub

    def prefix_state(self, data: ByteSource) -> Any:
        """Internal running state after absorbing ``data``."""
        ...  # pragma: no cover - protocol stub

    def combine(self, state_a: Any, state_b: Any, len_b: int) -> Any:
        """State of ``A || B`` from the states of A and B."""
        ...  # pragma: no cover - protocol stub

    def state_value(self, state: Any) -> int:
        """Map an internal state to the external check value."""
        ...  # pragma: no cover - protocol stub


_FACTORIES: Dict[str, Callable[[], ChecksumAlgorithm]] = {
    "internet": InternetChecksum,
    "tcp": InternetChecksum,
    "fletcher255": lambda: Fletcher8(255),
    "fletcher256": lambda: Fletcher8(256),
    "fletcher16-65535": lambda: Fletcher16(65535),
    "fletcher16-65536": lambda: Fletcher16(65536),
    "adler32": Adler32,
    "xor16": Xor16,
    "crc32-aal5": lambda: CRCEngine(CRC32_AAL5),
    "crc16-arc": lambda: CRCEngine(CRC16_ARC),
    "crc16-ccitt": lambda: CRCEngine(CRC16_CCITT),
    "crc10-atm": lambda: CRCEngine(CRC10_ATM),
    "crc32c": lambda: CRCEngine(CRC32C),
}

_INSTANCES: Dict[str, ChecksumAlgorithm] = {}


def available_algorithms() -> List[str]:
    """Sorted names of every registered algorithm."""
    return sorted(_FACTORIES)


def get_algorithm(name: str) -> ChecksumAlgorithm:
    """Return the (cached) algorithm instance registered under ``name``."""
    key = name.lower()
    if key not in _FACTORIES:
        raise KeyError(
            "unknown algorithm %r; available: %s"
            % (name, ", ".join(available_algorithms()))
        )
    if key not in _INSTANCES:
        _INSTANCES[key] = _FACTORIES[key]()
    return _INSTANCES[key]

