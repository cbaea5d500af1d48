"""Monte Carlo cell-loss simulation, cross-validating the enumeration.

Where the splice engine asks "what would happen for *every possible*
splice", this module drops cells with an actual loss process, reassembles
whatever arrives, and lets a receiver judge each frame -- the physical
experiment the enumeration abstracts.  Events:

* ``delivered_intact`` -- a frame identical to an original was accepted;
* ``detected_*`` -- a corrupted frame rejected by the length check, the
  header checks, or the check codes (attributed as "both", "CRC only"
  -- i.e. the transport sum missed it -- or "transport only");
* ``undetected_corruption`` -- a corrupted frame accepted by everything:
  the event the paper quantifies;
* ``benign_identical`` -- a splice whose delivered packet equals an
  original (no corruption even though cells were lost).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.reference import (
    _aal5_length,
    _crc32_ok,
    _header_ok,
    _transport_ok,
)
from repro.protocols.cellstream import (
    AAL5Reassembler,
    apply_loss,
    stream_cells,
)

__all__ = ["MonteCarloTally", "judge_received_frame", "run_monte_carlo"]


@dataclass
class MonteCarloTally:
    """Event counts over a Monte Carlo run."""

    cells_sent: int = 0
    cells_delivered: int = 0
    frames_received: int = 0
    delivered_intact: int = 0
    benign_identical: int = 0
    detected_length: int = 0
    detected_header: int = 0
    detected_by_both: int = 0
    detected_by_crc_only: int = 0
    detected_by_transport_only: int = 0
    undetected_corruption: int = 0
    spurious_rejects: int = 0
    #: Corrupted frames by the number of original frames contributing
    #: cells -- span 2 is what the exact enumeration covers; larger
    #: spans require additional marked cells to be lost.
    corrupted_by_span: dict = field(default_factory=dict)

    def __add__(self, other):
        merged = MonteCarloTally()
        for name in self.__dataclass_fields__:
            if name == "corrupted_by_span":
                continue
            setattr(merged, name, getattr(self, name) + getattr(other, name))
        merged.corrupted_by_span = dict(self.corrupted_by_span)
        for span, count in other.corrupted_by_span.items():
            merged.corrupted_by_span[span] = (
                merged.corrupted_by_span.get(span, 0) + count
            )
        return merged

    @property
    def corrupted_frames(self):
        """Frames that were corrupted and reached the checksum stage."""
        return (
            self.detected_by_both
            + self.detected_by_crc_only
            + self.detected_by_transport_only
            + self.undetected_corruption
        )

    @property
    def transport_missed(self):
        """Corrupted frames the transport checksum accepted (the
        engine's ``missed_transport`` analogue: the CRC may still have
        caught them)."""
        return self.undetected_corruption + self.detected_by_crc_only

    @property
    def transport_miss_rate(self):
        """Percent of corrupted frames the transport sum accepted."""
        corrupted = self.corrupted_frames
        return 100.0 * self.transport_missed / corrupted if corrupted else 0.0

    def sanity_check(self):
        assert sum(self.corrupted_by_span.values()) == self.corrupted_frames
        assert self.frames_received == (
            self.delivered_intact
            + self.benign_identical
            + self.spurious_rejects
            + self.detected_length
            + self.detected_header
            + self.detected_by_both
            + self.detected_by_crc_only
            + self.detected_by_transport_only
            + self.undetected_corruption
        )
        return True


def judge_received_frame(frame_cells, options, originals):
    """Classify one reassembled frame as a receiver would.

    ``originals`` maps original frame bytes -> IP packet bytes, used
    only to decide (with oracle knowledge) whether an accepted frame
    was actually corrupted.

    Returns one of the :class:`MonteCarloTally` field names.
    """
    data = b"".join(frame_cells)

    if data in originals:
        # Cheapest oracle check first: byte-identical frame.
        return "delivered_intact"

    # The receiver's checks, as :func:`frame_acceptable` applies them,
    # but every verdict kept: length, headers, then both check codes.
    length = _aal5_length(data)
    if length is None:
        return "detected_length"
    if not _header_ok(data, length, options.require_ip_checksum):
        return "detected_header"
    transport_ok = _transport_ok(data, length, options)
    crc_ok = _crc32_ok(data)

    # Delivered-data region: with trailer placement the final two bytes
    # of the packet are the check value, not user data (mirrors the
    # engine's identical-data accounting).
    from repro.protocols.packetizer import ChecksumPlacement

    cmp_end = length
    if options.placement is ChecksumPlacement.TRAILER:
        cmp_end -= 2
    delivered_packet = data[:cmp_end]
    is_benign = any(
        original[:cmp_end] == delivered_packet for original in originals.values()
    )

    if transport_ok and crc_ok:
        return "benign_identical" if is_benign else "undetected_corruption"
    if is_benign:
        # A benign splice rejected by a check (e.g. the CRC over a
        # payload-identical splice carrying the other packet's trailer).
        return "spurious_rejects"
    if transport_ok:
        return "detected_by_crc_only"
    if crc_ok:
        return "detected_by_transport_only"
    return "detected_by_both"


def run_monte_carlo(units, loss_model, options, trials=1, seed=0):
    """Stream a transfer through a loss process ``trials`` times.

    ``units`` is a :class:`TransferUnit` list (one file's transfer);
    ``loss_model`` one of the processes in
    :mod:`repro.protocols.cellstream`; ``options`` the engine options
    matching the packetizer configuration.  Returns a
    :class:`MonteCarloTally`.
    """
    rng = np.random.default_rng(seed)
    cells = stream_cells(units)
    originals = {
        unit.frame.frame: unit.packet.ip_packet for unit in units
    }
    tally = MonteCarloTally()
    for _ in range(trials):
        delivered = apply_loss(cells, loss_model, rng)
        tally.cells_sent += len(cells)
        tally.cells_delivered += len(delivered)
        reassembler = AAL5Reassembler()
        pending_sources = []
        for cell in delivered:
            pending_sources.append(cell.frame_index)
            frame = reassembler.feed(cell)
            if frame is None:
                if reassembler.pending_cells == 0:  # oversize discard
                    pending_sources = []
                continue
            sources, pending_sources = pending_sources, []
            tally.frames_received += 1
            outcome = judge_received_frame(frame, options, originals)
            setattr(tally, outcome, getattr(tally, outcome) + 1)
            if outcome in (
                "detected_by_both",
                "detected_by_crc_only",
                "detected_by_transport_only",
                "undetected_corruption",
            ):
                span = len(set(sources))
                tally.corrupted_by_span[span] = (
                    tally.corrupted_by_span.get(span, 0) + 1
                )
    tally.sanity_check()
    return tally
