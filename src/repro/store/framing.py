"""Integrity-trailed object frames: the store's disk format.

Every object the store subsystem persists is stored as a *frame*:
``payload || value || name || name_len(1) || value_len(1) || magic(4)``
where ``value`` is the check value of one of the paper's own check
codes (CRC-32/AAL5 unless the caller picks another).  The trailer
parses backwards from the end of the frame, so no header seek is
needed and truncation is always detectable.

This module is the single definition of that format.  It sits below
:mod:`repro.store.objstore`, which re-exports its names, so the
trailer code has no dependency on where frames are kept.
"""

from __future__ import annotations

from repro.checksums.registry import get_algorithm

__all__ = [
    "DEFAULT_ALGORITHM",
    "FRAME_MAGIC",
    "IntegrityError",
    "frame_object",
    "unframe_object",
    "verify_frame",
]

#: The integrity-trailer algorithm used unless the caller picks another.
DEFAULT_ALGORITHM = "crc32-aal5"

#: Trailer magic closing every frame.
FRAME_MAGIC = b"RCS1"

_MAGIC = FRAME_MAGIC


class IntegrityError(Exception):
    """A stored object failed its integrity trailer (or is malformed)."""


def frame_object(payload, algorithm_name=DEFAULT_ALGORITHM):
    """Append the integrity trailer to ``payload``."""
    algorithm = get_algorithm(algorithm_name)
    width = (algorithm.width + 7) // 8
    value = algorithm.compute(payload).to_bytes(width, "big")
    name = algorithm_name.encode("ascii")
    if not 1 <= len(name) <= 255 or not 1 <= width <= 255:
        raise ValueError("trailer fields out of range for %r" % algorithm_name)
    return b"".join(
        [payload, value, name, bytes([len(name)]), bytes([width]), _MAGIC]
    )


def unframe_object(blob, verify=True):
    """Split a stored frame into ``(payload, algorithm_name)``.

    Raises :class:`IntegrityError` if the frame is malformed or (with
    ``verify``) the recomputed check value disagrees with the trailer.
    """
    if len(blob) < len(_MAGIC) + 2 or blob[-4:] != _MAGIC:
        raise IntegrityError("missing or damaged trailer magic")
    value_len = blob[-5]
    name_len = blob[-6]
    end = len(blob) - 6
    if name_len < 1 or value_len < 1 or end < name_len + value_len:
        raise IntegrityError("trailer lengths out of range")
    name_bytes = blob[end - name_len : end]
    value = blob[end - name_len - value_len : end - name_len]
    payload = blob[: end - name_len - value_len]
    try:
        algorithm_name = name_bytes.decode("ascii")
        algorithm = get_algorithm(algorithm_name)
    except (UnicodeDecodeError, KeyError) as exc:
        raise IntegrityError("unreadable trailer algorithm: %s" % exc) from exc
    if verify:
        width = (algorithm.width + 7) // 8
        if width != value_len:
            raise IntegrityError(
                "trailer width %d != %d for %s" % (value_len, width, algorithm_name)
            )
        expected = algorithm.compute(payload).to_bytes(width, "big")
        if expected != value:
            raise IntegrityError(
                "integrity trailer mismatch (%s): stored %s, computed %s"
                % (algorithm_name, value.hex(), expected.hex())
            )
    return payload, algorithm_name


def verify_frame(frame):
    """Verify ``frame``'s trailer and return its payload.

    The one-call form every read path uses at its verification
    boundary (reprolint REP403 checks the boundaries statically).
    """
    payload, _ = unframe_object(frame, verify=True)
    return payload
