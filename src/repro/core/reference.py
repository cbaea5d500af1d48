"""Slow-but-obvious reference implementation of splice judgment.

The vectorized engine in :mod:`repro.core.engine` is validated against
this module: for a given splice it materialises the actual frame bytes
and applies each check exactly as a receiver would, one packet at a
time, and :func:`count_splices` tallies a whole transfer's counters
that way.  It is hundreds of times slower and exists for correctness
cross-checks, debugging, and as executable documentation of the error
model.
"""

from __future__ import annotations

from repro.checksums.fletcher import Fletcher8
from repro.checksums.internet import fold_carries, word_sums
from repro.checksums.registry import get_algorithm
from repro.core.enumeration import splice_enumeration
from repro.core.results import SpliceCounters
from repro.protocols.aal5 import aal5_crc_engine
from repro.protocols.ip import IP_HEADER_LEN, parse_ipv4_header
from repro.protocols.packetizer import ChecksumPlacement
from repro.protocols.tcp import pseudo_header_word_sum

__all__ = [
    "count_splices",
    "judge_splice",
    "judge_splice_cells",
    "splice_cell_bytes",
    "splice_frame_bytes",
]


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


def _header_ok(frame_bytes, expected_iplen, require_ip_checksum=True):
    if frame_bytes[0] != 0x45:
        return False
    header = parse_ipv4_header(frame_bytes)
    if header.total_length != expected_iplen or header.protocol != 6:
        return False
    if require_ip_checksum:
        if fold_carries(word_sums(frame_bytes[:IP_HEADER_LEN])) != 0xFFFF:
            return False
    if (frame_bytes[32] >> 4) != 5:
        return False
    flags = frame_bytes[33]
    return bool(flags & 0x10) and not (flags & 0x07)


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


def _crc32_ok(frame_bytes):
    engine = aal5_crc_engine()
    stored = int.from_bytes(frame_bytes[-4:], "big")
    return engine.compute(frame_bytes[:-4]) == stored


def _transport_ok(frame_bytes, iplen, options):
    segment = frame_bytes[IP_HEADER_LEN:iplen]
    if getattr(options, "legacy_coverage", False):
        # Section 6.2 legacy mode: whole-packet sum, no pseudo-header.
        return fold_carries(word_sums(frame_bytes[:iplen])) == 0xFFFF
    if options.algorithm in ("tcp", "internet"):
        header = parse_ipv4_header(frame_bytes)
        total = pseudo_header_word_sum(header.src, header.dst, len(segment))
        total += word_sums(segment)
        if options.invert or options.placement is ChecksumPlacement.TRAILER:
            return fold_carries(total) == 0xFFFF
        stored = int.from_bytes(segment[16:18], "big")
        rest = bytearray(segment)
        rest[16:18] = b"\x00\x00"
        total = pseudo_header_word_sum(header.src, header.dst, len(segment))
        total += word_sums(rest)
        return fold_carries(total) == stored
    modulus = int(options.algorithm[-3:])
    return Fletcher8(modulus).verify(segment)
