"""The scalar receiver, and the splice oracle built on it.

:func:`frame_acceptable` is a receiver's integrity stack over one
reassembled AAL5 frame: :func:`_aal5_length`, :func:`_header_ok`,
:func:`_transport_ok` and :func:`_crc32_ok`.  The channel simulator's
ARQ receiver, the Monte Carlo classifier and the error-model
experiments all judge frames with these checks, so every simulation
accepts exactly the same frames.  They read header fields by index and
sum 16-bit words without NumPy: as ``2**16 % 0xFFFF ==
1``, ``int.from_bytes(buf, "big")`` is congruent to the word sum of
``buf`` modulo 0xFFFF, and a positive sum folds to ``(x - 1) % 0xFFFF
+ 1``.  The CRC streams the whole frame to the spec's residue.

The vectorized engine in :mod:`repro.core.engine` is validated against
the same checks: :func:`judge_splice_cells` materialises a splice's
frame bytes and judges them as a receiver would, and
:func:`count_splices` tallies a whole transfer's counters that way --
hundreds of times slower than the engine, for cross-checks, debugging,
and as executable documentation of the error model.
"""

from __future__ import annotations

from repro.checksums.fletcher import Fletcher8
from repro.checksums.registry import get_algorithm
from repro.core.enumeration import splice_enumeration
from repro.core.results import SpliceCounters
from repro.protocols.aal5 import AAL5_TRAILER_LEN, CELL_PAYLOAD, aal5_crc_engine
from repro.protocols.ip import IP_HEADER_LEN
from repro.protocols.packetizer import ChecksumPlacement
from repro.protocols.tcp import TCP_HEADER_LEN

__all__ = [
    "count_splices",
    "frame_acceptable",
    "judge_splice",
    "judge_splice_cells",
    "splice_cell_bytes",
    "splice_frame_bytes",
]

_AAL5_CRC = aal5_crc_engine()


def frame_acceptable(data, options, use_crc=True):
    """The receiver's integrity stack over one reassembled frame.

    Returns ``(acceptable, payload_length)``.  The stack, in order:
    AAL5 length plausibility (cell-aligned size, encoded length within
    the last cell's window), the IP and TCP header checks, the
    transport checksum per ``options``, and -- unless ``use_crc`` is
    False -- the AAL5 CRC-32 over the whole frame.
    """
    length = _aal5_length(data)
    if (
        length is None
        or not _header_ok(data, length, options.require_ip_checksum)
        or not _transport_ok(data, length, options)
        or (use_crc and not _crc32_ok(data))
    ):
        return False, 0
    return True, length


def _aal5_length(data):
    """The trailer's Length field, or None when the frame's size rules it out.

    A frame must be whole cells, and its Length must place the payload
    end inside the last cell, ahead of the trailer.
    """
    size = len(data)
    if size < CELL_PAYLOAD or size % CELL_PAYLOAD:
        return None
    length = data[-6] << 8 | data[-5]
    max_payload = size - AAL5_TRAILER_LEN
    if not max_payload - (CELL_PAYLOAD - 1) <= length <= max_payload:
        return None
    return length


def _ones_sum(buf):
    """``fold_carries(word_sums(buf))``, from one big-endian integer."""
    value = int.from_bytes(buf, "big")
    if len(buf) & 1:
        value <<= 8  # RFC 1071 pads odd data with a zero byte
    return (value - 1) % 0xFFFF + 1 if value else 0


def _header_ok(frame_bytes, expected_iplen, require_ip_checksum=True):
    """The IP and TCP header checks of a frame whose IP length is known.

    IPv4 with a 20-byte header, total length ``expected_iplen`` (at
    least both headers), protocol TCP, a header sum of 0xFFFF unless
    the Section 6.2 ablation waives it; then a 20-byte TCP header with
    ACK set and none of FIN, SYN or RST.
    """
    if expected_iplen < IP_HEADER_LEN + TCP_HEADER_LEN:
        return False
    if frame_bytes[0] != 0x45 or frame_bytes[9] != 6:
        return False
    if frame_bytes[2] << 8 | frame_bytes[3] != expected_iplen:
        return False
    if require_ip_checksum and _ones_sum(frame_bytes[:IP_HEADER_LEN]) != 0xFFFF:
        return False
    if (frame_bytes[32] >> 4) != 5:
        return False
    flags = frame_bytes[33]
    return bool(flags & 0x10) and not (flags & 0x07)


def _transport_ok(frame_bytes, iplen, options):
    """The transport checksum over the first ``iplen`` bytes, per ``options``."""
    if options.legacy_coverage:
        # Section 6.2 legacy mode: whole-packet sum, no pseudo-header.
        return _ones_sum(frame_bytes[:iplen]) == 0xFFFF
    if options.algorithm in ("tcp", "internet"):
        # The pseudo-header is the source and destination addresses
        # (bytes 12-19, just ahead of the segment), protocol 6 and the
        # segment length; it is never zero, so the sum folds by residue.
        covered = frame_bytes[12:iplen]
        total = int.from_bytes(covered, "big")
        if len(covered) & 1:
            total <<= 8
        total += 6 + len(covered) - 8
        if options.invert or options.placement is ChecksumPlacement.TRAILER:
            return total % 0xFFFF == 0
        # Non-inverted header field: the sum of everything else, with
        # the field zeroed, is stored as is.  Its word sits at an even
        # offset, so taking it out of the residue is one subtraction.
        stored = frame_bytes[36] << 8 | frame_bytes[37]
        return (total - stored - 1) % 0xFFFF + 1 == stored
    modulus = int(options.algorithm[-3:])
    return Fletcher8(modulus).verify(frame_bytes[IP_HEADER_LEN:iplen])


def _crc32_ok(frame_bytes):
    """The AAL5 CRC-32: the whole frame streams to the spec's residue."""
    return _AAL5_CRC.verify(frame_bytes)


def splice_frame_bytes(frame1, frame2, selection):
    """The frame a receiver reassembles for a given splice selection.

    ``selection`` indexes the unmarked candidates (first frame's cells
    then second frame's non-trailer cells); the second frame's marked
    trailer cell is appended.
    """
    cells1 = frame1.cells()
    cells2 = frame2.cells()
    candidates = [bytes(c) for c in cells1[:-1]] + [bytes(c) for c in cells2[:-1]]
    picked = [candidates[i] for i in selection]
    picked.append(bytes(cells2[-1]))
    return b"".join(picked)


def splice_cell_bytes(cells1, cells2, selection):
    """:func:`splice_frame_bytes` over already-materialised cell arrays.

    ``cells1`` / ``cells2`` are the frames' ``(n, 48)`` cell matrices
    (trailer cell last), as the engine's corpus batches hold them.
    """
    candidates = [bytes(c) for c in cells1[:-1]] + [bytes(c) for c in cells2[:-1]]
    picked = [candidates[int(i)] for i in selection]
    picked.append(bytes(cells2[-1]))
    return b"".join(picked)


def judge_splice_cells(
    cells1,
    cells2,
    iplen1,
    iplen2,
    selection,
    options,
    aux_engines=(),
):
    """Judge one splice from cell matrices, byte-at-a-time.

    Materialises the reassembled frame and applies every check exactly
    as :func:`judge_splice` does, plus the verdict of each
    ``(name, engine)`` in ``aux_engines``: an auxiliary CRC accepts the
    splice when it reproduces the intact second frame's check value.
    """
    data = splice_cell_bytes(cells1, cells2, selection)
    cmp_end = (
        iplen2 - 2 if options.placement is ChecksumPlacement.TRAILER else iplen2
    )
    frame2_bytes = b"".join(bytes(c) for c in cells2)
    if iplen1 == iplen2 and len(cells1) == len(cells2):
        frame1_prefix = b"".join(bytes(c) for c in cells1)[:cmp_end]
    else:
        frame1_prefix = None
    identical = data[:cmp_end] in (frame1_prefix, frame2_bytes[:cmp_end])
    aux = {
        name: engine.compute(data[:-4]) == engine.compute(frame2_bytes[:-4])
        for name, engine in aux_engines
    }
    return {
        "header_pass": _header_ok(
            data, iplen2, require_ip_checksum=options.require_ip_checksum
        ),
        "identical": identical,
        "crc32": _crc32_ok(data),
        "transport": _transport_ok(data, iplen2, options),
        "aux": aux,
    }


def count_splices(frames, options):
    """:class:`SpliceCounters` of a transfer, one splice at a time.

    The oracle of :meth:`SpliceEngine.evaluate_stream`: ``frames`` are
    one file's AAL5 frames in transfer order.  Every adjacent pair is
    judged over the engine's enumeration
    (:func:`~repro.core.enumeration.splice_enumeration`), each splice
    through :func:`judge_splice_cells`, and every counter is tallied
    here from those verdicts.
    """
    aux_engines = [(name, get_algorithm(name)) for name in options.aux_crcs]
    counters = SpliceCounters(packets=len(frames))
    for frame1, frame2 in zip(frames, frames[1:]):
        counters.pairs += 1
        cells1, cells2 = frame1.cells(), frame2.cells()
        enum = splice_enumeration(
            len(cells1), len(cells2), options.sample_splices, options.max_splices
        )
        rows = zip(enum.selection, enum.substitution_len, enum.has_second_header)
        for selection, length, second_header in rows:
            verdict = judge_splice_cells(
                cells1,
                cells2,
                len(frame1.payload),
                len(frame2.payload),
                selection,
                options,
                aux_engines,
            )
            counters.total += 1
            if not verdict["header_pass"]:
                counters.caught_by_header += 1
                continue
            if verdict["identical"]:
                counters.identical += 1
                if not verdict["transport"]:
                    counters.identical_rejected += 1
                continue
            length, second_header = int(length), int(second_header)
            counters.remaining += 1
            counters.remaining_by_len[length] += 1
            counters.remaining_with_hdr2 += second_header
            if verdict["transport"]:
                counters.missed_transport += 1
                counters.missed_by_len[length] += 1
                counters.missed_with_hdr2 += second_header
            if verdict["crc32"]:
                counters.missed_crc32 += 1
            for name, missed in verdict["aux"].items():
                if missed:
                    counters.missed_aux[name] += 1
    return counters


def judge_splice(frame1, frame2, selection, options):
    """Judge one splice exactly as a receiver would.

    Returns a dict with ``header_pass``, ``identical``, ``transport``
    (checksum accepted) and ``crc32`` (AAL5 CRC accepted) booleans,
    matching the engine's per-splice verdicts.
    """
    data = splice_frame_bytes(frame1, frame2, selection)
    iplen = len(frame2.payload)  # AAL5 length field == IP packet length
    # Delivered-data region: with trailer placement the final two bytes
    # are the check value, not user data.
    cmp_end = iplen - 2 if options.placement is ChecksumPlacement.TRAILER else iplen
    identical = data[:cmp_end] in (
        frame1.payload[:cmp_end] if len(frame1.payload) == iplen else None,
        frame2.payload[:cmp_end],
    )
    verdict = {
        "header_pass": _header_ok(
            data, iplen, require_ip_checksum=options.require_ip_checksum
        ),
        "identical": identical,
        "crc32": _crc32_ok(data),
        "transport": _transport_ok(data, iplen, options),
    }
    return verdict
