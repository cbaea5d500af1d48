"""The vectorized splice evaluator.

For every adjacent frame pair the engine enumerates each possible
splice (see :mod:`repro.core.enumeration`) and evaluates, without ever
re-reading a byte per splice:

* the header checks (per leading candidate cell);
* the transport checksum the packets were built with -- standard TCP,
  Fletcher mod-255/mod-256, header or trailer placement, inverted or
  not;
* the AAL5 CRC-32 (via per-cell register images and the ``Z^48``
  zero-feed operator, checked against the spec residue);
* optional auxiliary CRCs (e.g. a 16-bit CRC in place of AAL5's, used
  to confirm CRC uniformity at observable rates);
* whether the splice's payload is identical to one of the original
  packets (benign congruence).

The algebra: the Internet checksum of a splice decomposes into per-cell
partial word sums plus the pseudo-header; Fletcher into per-cell (A, B)
pairs with the positional term ``B + D * A`` for a cell ending ``D``
bytes before the end of coverage; and a CRC register through a chunk is
affine -- ``reg' = Z^48(reg) XOR c_cell``.  Each verdict is therefore a
sum, XOR or AND over cell slots, and it splits at the frame boundary:
every splice is a first-frame part (slots ``0 .. k-1``, ``k >= 1``)
followed by a second-frame part.  Per batch the engine folds the
per-slot quantities into ``(parts, pairs)`` partials on small arrays,
then judges each splice with one gather per part and one add, XOR,
compare or AND on the ``(splices, pairs)`` matrix.
:meth:`SpliceEngine.evaluate_batch` also skips the rows whose leading
cell fails the header checks for every pair of the batch: they are
counted as caught by the header without being judged further.

:class:`EngineOptions` is defined in the NumPy-free
:mod:`repro.core.options` and re-exported here.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.checksums.crc import CRCEngine
from repro.checksums.registry import get_algorithm
from repro.core.batch import (
    CellCrcFold,
    part_partials as _part_partials,
    range_fletcher as _range_fletcher,
    range_word_sums as _range_word_sums,
)
from repro.core.checks import candidate_header_validity, candidate_pseudo_sums
from repro.core.enumeration import splice_enumeration
from repro.core.options import EngineOptions
from repro.core.results import SpliceCounters
from repro.protocols.aal5 import CELL_PAYLOAD, aal5_crc_engine
from repro.protocols.config import ChecksumPlacement
from repro.telemetry.core import current as _telemetry

__all__ = ["EngineOptions", "SpliceEngine"]

_IP_HEADER_LEN = 20
_TCP_CHECKSUM_SPLICE_OFFSET = 36  # IP header + TCP checksum field offset
_CRC_FIELD_LEN = 4


class SpliceEngine:
    """Evaluates every splice of adjacent AAL5 frame pairs.

    Every verdict comes from the vectorized kernels of
    :mod:`repro.core.batch`.  The tests hold the counters to
    :func:`repro.core.reference.count_splices`, which judges the same
    enumeration one byte-materialised splice at a time.
    """

    def __init__(self, options=None):
        self.options = options or EngineOptions()
        self._crc32 = aal5_crc_engine()
        self._residue32 = np.uint32(self._crc32.residue_register())
        self._folds = {}
        self._aux = []
        for name in self.options.aux_crcs:
            engine = get_algorithm(name)
            if not isinstance(engine, CRCEngine):
                raise ValueError("aux_crcs must name CRC engines, got %r" % name)
            self._aux.append((name, engine))
        if self.options.algorithm.startswith("fletcher"):
            self._modulus = int(self.options.algorithm[-3:])
        elif self.options.algorithm in ("tcp", "internet"):
            self._modulus = None
        else:
            raise ValueError("unsupported transport algorithm %r" % self.options.algorithm)

    # ------------------------------------------------------------------

    def _enumeration(self, n1, n2):
        """Exact enumeration, or a uniform sample when configured."""
        return splice_enumeration(
            n1, n2, self.options.sample_splices, self.options.max_splices
        )

    def evaluate_stream(self, wire):
        """Evaluate every adjacent pair of one file's frames.

        ``wire`` is the file's tuple of :class:`WireGroup`
        (:meth:`FileTransferSimulator.wire`): the full-MSS frames, then
        the runt.  Pairs are batched as views, ``frames[:-1]`` with
        ``frames[1:]`` within each group, then the last full frame with
        the runt.
        """
        telemetry = _telemetry()
        with telemetry.span("engine.stream"):
            counters = SpliceCounters()
            counters.packets += sum(len(group.frames) for group in wire)
            pairs = [
                (group.frames[:-1], group.frames[1:], group.iplen, group.iplen)
                for group in wire
                if len(group.frames) > 1
            ]
            pairs += [
                (first.frames[-1:], second.frames[:1], first.iplen, second.iplen)
                for first, second in zip(wire, wire[1:])
            ]
            for frames1, frames2, iplen1, iplen2 in pairs:
                enum = self._enumeration(frames1.shape[1], frames2.shape[1])
                batch_size = max(
                    1, self.options.batch_elements // max(enum.splices, 1)
                )
                for start in range(0, len(frames1), batch_size):
                    counters += self.evaluate_batch(
                        frames1[start : start + batch_size],
                        frames2[start : start + batch_size],
                        iplen1,
                        iplen2,
                    )
        return counters

    def splice_verdicts(self, cells1, cells2, iplen1, iplen2):
        """Per-splice verdict arrays for a batch of same-shape pairs.

        ``cells1``/``cells2`` are ``(B, n, 48)`` uint8 arrays of the
        first/second frames; ``iplen*`` the IP packet lengths (the AAL5
        Length fields).  Returns ``(enumeration, verdicts)`` where each
        verdict (``header_pass``, ``transport``, ``crc32``,
        ``identical``, plus one entry per auxiliary CRC under ``aux``)
        is a ``(B, splices)`` boolean array aligned with the
        enumeration's selection rows; every row is judged.  This is the
        building block for custom accounting -- weighted loss models,
        per-splice studies, or cross-checks against the reference
        receiver.
        """
        enum, _, verdicts = self._verdicts(
            cells1, cells2, iplen1, iplen2, prune=False
        )
        by_pair = {key: verdicts[key].T for key in _VERDICTS}
        by_pair["aux"] = {name: valid.T for name, valid in verdicts["aux"].items()}
        return enum, by_pair

    def evaluate_batch(self, cells1, cells2, iplen1, iplen2):
        """Evaluate all splices of a batch of same-shape frame pairs.

        ``cells1``/``cells2`` are ``(B, n, 48)`` uint8 arrays of the
        first/second frames; ``iplen*`` the IP packet lengths (the AAL5
        Length fields).  Returns the accumulated counters.  The batch
        kernels judge only the rows whose leading cell passes the header
        checks for some pair; the other rows count as caught by the
        header for every pair.
        """
        counters = SpliceCounters()
        counters.pairs = batch = np.asarray(cells1).shape[0]
        telemetry = _telemetry()
        with telemetry.span("engine.batch"):
            enum, rows, verdicts = self._verdicts(
                cells1, cells2, iplen1, iplen2, prune=True
            )
        if enum.splices == 0:
            return counters

        # Verdicts cover the judged rows only; every other row failed
        # the header check for every pair.
        header_pass = verdicts["header_pass"]
        valid_transport = verdicts["transport"]
        identical = verdicts["identical"]
        lens = enum.substitution_len
        hdr2 = enum.has_second_header
        if rows is not None:
            lens, hdr2 = lens[rows], hdr2[rows]

        ident_mask = header_pass & identical
        remaining = header_pass & ~identical
        missed_transport = remaining & valid_transport

        counters.total = batch * enum.splices
        counters.caught_by_header = counters.total - int(
            np.count_nonzero(header_pass)
        )
        counters.identical = int(np.count_nonzero(ident_mask))
        remaining_per_splice = np.count_nonzero(remaining, axis=1)
        missed_per_splice = np.count_nonzero(missed_transport, axis=1)
        counters.remaining = int(remaining_per_splice.sum())
        counters.missed_transport = int(missed_per_splice.sum())
        counters.missed_crc32 = int(
            np.count_nonzero(remaining & verdicts["crc32"])
        )
        counters.identical_rejected = int(
            np.count_nonzero(ident_mask & ~valid_transport)
        )

        size = enum.lengths[-1] + 1
        remaining_by_len = np.bincount(lens, remaining_per_splice, size)
        missed_by_len = np.bincount(lens, missed_per_splice, size)
        for k in enum.lengths:
            counters.remaining_by_len[k] = int(remaining_by_len[k])
            counters.missed_by_len[k] = int(missed_by_len[k])
        counters.remaining_with_hdr2 = int(remaining_per_splice[hdr2].sum())
        counters.missed_with_hdr2 = int(missed_per_splice[hdr2].sum())

        for name, valid_aux in verdicts["aux"].items():
            counters.missed_aux[name] = int(np.count_nonzero(remaining & valid_aux))

        # Throughput accounting happens parent-side in
        # ``experiment._account_shard``: worker pools keep their own
        # registries, so anything emitted here would vanish under
        # ``--workers N`` and break counter-total identity across
        # execution layouts.
        return counters

    # -- verdict evaluation ---------------------------------------------

    def _verdicts(self, cells1, cells2, iplen1, iplen2, prune):
        """``(enumeration, rows, verdicts)`` for a same-shape batch.

        Each verdict is a ``(rows, B)`` boolean array over the
        enumeration rows ``rows``, where ``None`` means every row.  With
        ``prune``, only the rows whose leading cell passes the header
        checks for at least one pair are judged.
        """
        telemetry = _telemetry()
        cells1 = np.asarray(cells1, dtype=np.uint8)
        cells2 = np.asarray(cells2, dtype=np.uint8)
        batch, n1 = cells1.shape[:2]
        n2 = cells2.shape[1]
        with telemetry.span("engine.enumeration"):
            enum = self._enumeration(n1, n2)
        if enum.splices == 0:
            return enum, None, self._no_verdicts(batch)

        # Cell-major copy of the batch: frame 1's candidates, then all of
        # frame 2 (candidates in the enumeration's layout, its trailer at
        # index -2), then one all-zero cell at index -1.  A part's unused
        # slots point at that cell, whose contribution to every sum and
        # CRC image is zero.
        cells = np.zeros((n1 + n2, batch, CELL_PAYLOAD), dtype=np.uint8)
        cells[: n1 - 1] = cells1[:, : n1 - 1].swapaxes(0, 1)
        cells[n1 - 1 : -1] = cells2.swapaxes(0, 1)
        first_key, second_key = enum.first_key, enum.second_key

        with telemetry.span("engine.header"):
            valid = candidate_header_validity(
                cells[: n1 - 1],
                iplen2,
                require_ip_checksum=self.options.require_ip_checksum,
            )
            lead = enum.selection[:, 0]
            rows = None
            if prune:
                live = valid.any(axis=1)
                if not live.all():
                    rows = np.flatnonzero(live[lead])
                    lead = lead[rows]
                    first_key, second_key = first_key[rows], second_key[rows]
            header_pass = valid[lead]
        if rows is not None and not rows.size:
            return enum, rows, self._no_verdicts(batch)
        split = _Split(enum.first_parts, enum.second_parts, first_key, second_key)
        with telemetry.span("engine.transport"):
            transport = self._transport_valid(cells, enum, split, iplen2)
        with telemetry.span("engine.crc32"):
            crc32 = self._crc_valid(cells, enum, split)
        with telemetry.span("engine.identical"):
            identical = self._identical(cells, enum, split, cells1, iplen1, iplen2)
        with telemetry.span("engine.aux"):
            aux = {
                name: self._aux_valid(cells, enum, split, engine)
                for name, engine in self._aux
            }
        verdicts = {
            "header_pass": header_pass,
            "transport": transport,
            "crc32": crc32,
            "identical": identical,
            "aux": aux,
        }
        return enum, rows, verdicts

    def _no_verdicts(self, batch):
        """Empty verdicts of shape ``(0, batch)``."""
        verdicts = {key: np.zeros((0, batch), dtype=bool) for key in _VERDICTS}
        verdicts["aux"] = {
            name: np.zeros((0, batch), dtype=bool) for name, _ in self._aux
        }
        return verdicts

    # -- component evaluations ------------------------------------------

    def _windows(self, iplen, slots):
        """Transport coverage ``(lo, hi)`` of each slot, and the trailer's."""
        coverage_start = 0 if self.options.legacy_coverage else _IP_HEADER_LEN
        windows = []
        for j in range(slots):
            lo = max(coverage_start - CELL_PAYLOAD * j, 0)
            hi = min(max(iplen - CELL_PAYLOAD * j, lo), CELL_PAYLOAD)
            windows.append((lo, hi))
        t_hi = min(max(iplen - CELL_PAYLOAD * slots, 0), CELL_PAYLOAD)
        return windows, t_hi

    def _transport_valid(self, cells, enum, split, iplen):
        if self._modulus is None:
            return self._tcp_valid(cells, enum, split, iplen)
        return self._fletcher_valid(cells, enum, split, iplen)

    def _tcp_valid(self, cells, enum, split, iplen):
        windows, t_hi = self._windows(iplen, enum.slots)
        sums = {window: _range_word_sums(cells, *window) for window in set(windows)}
        per_slot = np.stack([sums[window] for window in windows])
        first = _part_partials(per_slot, split.first_parts, np.add.reduce)
        second = _part_partials(per_slot, split.second_parts, np.add.reduce)
        second += _range_word_sums(cells[-2], 0, t_hi)
        leads = split.first_parts[:, 0]
        heads = cells[: enum.n1 - 1]
        if not self.options.legacy_coverage:
            # Section 6.2 legacy mode has no pseudo-header; the sum then
            # runs from byte 0 of the IP header.
            first += candidate_pseudo_sums(heads, iplen - _IP_HEADER_LEN)[leads]
        if self.options.invert or self.options.placement is ChecksumPlacement.TRAILER:
            # Each part folds to 0..0xFFFF, so the splice's folded sum is
            # 0xFFFF exactly when the two add to 0xFFFF or 0x1FFFE.
            total = _combine(_fold16_u32(first), _fold16_u32(second), split, np.add)
            return (total == 0xFFFF) | (total == 0x1FFFE)
        # Section 6.3 ablation: the stored field is the sum itself, so
        # the verifier compares the recomputed sum (field excluded)
        # against the field taken from the splice's leading cell.
        field = (
            heads[..., _TCP_CHECKSUM_SPLICE_OFFSET].astype(np.uint64) << np.uint64(8)
        ) | heads[..., _TCP_CHECKSUM_SPLICE_OFFSET + 1]
        field = field[leads]
        total = _combine(_fold16_u32(first - field), _fold16_u32(second), split, np.add)
        folded = (total & np.uint32(0xFFFF)) + (total >> np.uint32(16))
        return folded == np.take(field.astype(np.uint32), split.first_key, axis=0)

    def _fletcher_valid(self, cells, enum, split, iplen):
        modulus = self._modulus
        windows, t_hi = self._windows(iplen, enum.slots)
        sums = {
            window: _range_fletcher(cells, *window, modulus)
            for window in set(windows)
        }
        a = np.stack([sums[window][0] for window in windows])
        b = np.stack([sums[window][1] for window in windows])
        # Slot j's cell ends this many bytes before the coverage end.
        distance = np.array(
            [
                iplen - min(CELL_PAYLOAD * j + hi, iplen)
                for j, (_, hi) in enumerate(windows)
            ]
        )
        b += distance[:, None, None] * a
        a_trailer, b_trailer = _range_fletcher(cells[-2], 0, t_hi, modulus)
        a1 = _part_partials(a, split.first_parts, np.add.reduce)
        b1 = _part_partials(b, split.first_parts, np.add.reduce)
        a2 = _part_partials(a, split.second_parts, np.add.reduce) + a_trailer
        b2 = _part_partials(b, split.second_parts, np.add.reduce) + b_trailer
        # A and B are each 0 (mod M) exactly when the second part's
        # residue cancels the first part's: pack both residues in one
        # word per part and compare once.
        need = ((-a1 % modulus) << 16) | (-b1 % modulus)
        have = ((a2 % modulus) << 16) | (b2 % modulus)
        return _combine(need.astype(np.uint32), have.astype(np.uint32), split, np.equal)

    def _crc_fold(self, engine, slots, tail):
        """Cached :class:`CellCrcFold` for ``(engine, slots, tail)``."""
        key = (engine.name, slots, tail)
        if key not in self._folds:
            self._folds[key] = CellCrcFold(engine, slots, tail)
        return self._folds[key]

    def _crc_valid(self, cells, enum, split):
        fold = self._crc_fold(self._crc32, enum.slots, CELL_PAYLOAD)
        images = self._crc32.process_cells(cells)
        per_slot = fold.slot_images(images)
        first = _part_partials(per_slot, split.first_parts, np.bitwise_xor.reduce)
        second = _part_partials(per_slot, split.second_parts, np.bitwise_xor.reduce)
        # reg = first ^ second ^ const ^ trailer image; valid at the residue.
        second ^= fold.const ^ self._residue32 ^ images[-2]
        return _combine(first, second, split, np.equal)

    def _aux_valid(self, cells, enum, split, engine):
        """Would a hypothetical AAL5 with this CRC have missed the splice?

        The auxiliary CRC covers the frame minus the (CRC-32) field, and
        the splice passes when it matches the second frame's value --
        i.e. the value the trailer would have carried.  The preset and
        trailer terms are common to both registers and cancel.
        """
        fold = self._crc_fold(engine, enum.slots, CELL_PAYLOAD - _CRC_FIELD_LEN)
        per_slot = fold.slot_images(engine.process_cells(cells))
        first = _part_partials(per_slot, split.first_parts, np.bitwise_xor.reduce)
        second = _part_partials(per_slot, split.second_parts, np.bitwise_xor.reduce)
        # The reference value: the same fold over the intact second frame.
        slot = np.arange(enum.slots)
        second ^= np.bitwise_xor.reduce(per_slot[slot, enum.n1 - 1 + slot], axis=0)
        return _combine(first, second, split, np.equal)

    def _identical(self, cells, enum, split, cells1, iplen1, iplen2):
        # "Identical" means the *delivered data* matches an original
        # packet.  With trailer placement the appended check bytes are
        # not user data -- a splice carrying packet 1's payload but
        # packet 2's trailer checksum is still benign (and is exactly
        # the case the trailer sum spuriously rejects; Section 5.3).
        iplen = iplen2
        if self.options.placement is ChecksumPlacement.TRAILER:
            iplen -= 2
        batch = cells.shape[1]
        slot = np.arange(enum.slots)
        # The cell each slot must hold: frame 2's, and frame 1's when
        # the frames agree in shape and length (then its trailer's
        # compared bytes must match too).
        refs = [enum.n1 - 1 + slot]
        trailer_ok = [np.ones(batch, dtype=bool)]
        if enum.n1 == enum.n2 and iplen1 == iplen2:
            refs.append(slot)
            t_len = min(max(iplen - CELL_PAYLOAD * enum.slots, 0), CELL_PAYLOAD)
            trailer_ok.append(
                (cells[-2, :, :t_len] == cells1[:, -1, :t_len]).all(axis=-1)
            )
        # Compare the first cmp bytes of each slot as 64-bit words, word
        # index first: (words, slots, cells, frames, pairs).
        cmp = np.clip(iplen - CELL_PAYLOAD * slot, 0, CELL_PAYLOAD)
        masks = np.where(
            np.arange(CELL_PAYLOAD) < cmp[:, None], np.uint8(0xFF), np.uint8(0)
        ).view(np.uint64)
        words = np.ascontiguousarray(np.moveaxis(cells.view(np.uint64), -1, 0))
        diff = words[:, np.stack(refs, axis=1)][:, :, None] ^ words[:, None, :, None]
        diff &= masks.T[:, :, None, None, None]
        eq = ~diff.any(axis=0)
        eq[:, -1] = True  # the padding cell
        # Reference frames ride along the pairs axis through the partials.
        eq = eq.reshape(enum.slots, len(cells), -1)
        frames = (len(refs), batch)
        first = _part_partials(eq, split.first_parts, np.logical_and.reduce)
        second = _part_partials(eq, split.second_parts, np.logical_and.reduce)
        first = first.reshape((-1,) + frames)
        second = second.reshape((-1,) + frames) & np.array(trailer_ok)
        # One bit per reference frame; identical when any bit survives.
        bits = np.arange(len(refs), dtype=np.uint8)[:, None]
        first = np.bitwise_or.reduce(first.view(np.uint8) << bits, axis=1)
        second = np.bitwise_or.reduce(second.view(np.uint8) << bits, axis=1)
        return _combine(first, second, split, np.bitwise_and).astype(bool)


_VERDICTS = ("header_pass", "transport", "crc32", "identical")


class _Split(NamedTuple):
    """An enumeration's frame-boundary split, over the judged rows."""

    first_parts: np.ndarray
    second_parts: np.ndarray
    first_key: np.ndarray
    second_key: np.ndarray


def _combine(first, second, split, op):
    """``op`` of each judged row's first-part and second-part partials.

    ``first``/``second`` are ``(K1, B)``/``(K2, B)`` partials; the
    result is ``(rows, B)``.
    """
    return op(
        np.take(first, split.first_key, axis=0),
        np.take(second, split.second_key, axis=0),
    )


def _fold16_u32(sums):
    """:func:`fold16` of word sums below ``2**32``, as uint32.

    Any frame AAL5 can carry keeps a part's sum below ``2**32``, and
    there two end-around-carry steps are exact: the first leaves at
    most ``0x1FFFE``, the second at most ``0xFFFF``.
    """
    sums = sums.astype(np.uint32)
    mask, shift = np.uint32(0xFFFF), np.uint32(16)
    sums = (sums & mask) + (sums >> shift)
    return (sums & mask) + (sums >> shift)
