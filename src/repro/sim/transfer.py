"""A reliable file transfer over a lossy ATM link, end to end.

The sender packetizes a file (per a :class:`PacketizerConfig`), frames
each packet for AAL5, and sends cells through a loss process.  The
receiver reassembles frames, applies the full check stack (AAL5 length,
IP/TCP header checks, the transport checksum, the AAL5 CRC), accepts
in-sequence packets, and implicitly NAKs everything else; the sender
retransmits each packet until it is accepted (stop-and-wait per
packet -- timing is out of scope, integrity is the subject).

What this adds over the splice tables: the *application-level*
consequence.  An accepted frame whose payload differs from the packet
the sender sent at that sequence position is silent corruption
delivered to the application -- the event all the paper's machinery
exists to prevent -- and its probability per transferred file is the
bottom line.  Disabling the CRC (``use_crc=False``) shows what the
transport checksum alone would let through.

The receiver judges each frame with
:func:`repro.core.reference.frame_acceptable`, the scalar check stack
the timed channel simulator (:mod:`repro.channel`) also drives its ARQ
recovery decisions through, so both simulations accept exactly the
same frames.  That simulator covers this one with timing, windows and
burst errors; this module stays as the untimed stop-and-wait behind
the ``transfer`` command and :func:`repro.api.simulate_file_transfer`.

Retry exhaustion is a *degradation*, not a silent counter: a transfer
that gave up on any packet marks its report's :class:`RunHealth`
degraded, and the CLI surfaces it with a nonzero exit code.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from repro.core.engine import EngineOptions
from repro.core.reference import frame_acceptable
from repro.core.supervisor import RunHealth
from repro.protocols.cellstream import AAL5Reassembler, MarkedCell, apply_loss
from repro.protocols.ftpsim import FileTransferSimulator
from repro.protocols.packetizer import PacketizerConfig

__all__ = ["TransferReport", "frame_acceptable", "simulate_file_transfer"]


@dataclass
class TransferReport:
    """What happened during one simulated reliable transfer."""

    packets: int = 0
    transmissions: int = 0
    cells_sent: int = 0
    cells_delivered: int = 0
    frames_rejected: int = 0
    out_of_sequence: int = 0
    delivered_clean: int = 0
    delivered_corrupted: int = 0
    gave_up: int = 0
    #: supervision record: retry exhaustion degrades here rather than
    #: hiding in the ``gave_up`` counter.
    health: RunHealth = field(default_factory=RunHealth)

    def __add__(self, other):
        """Merge two reports: counters sum, health records merge."""
        merged = TransferReport()
        for spec in fields(self):
            if spec.name == "health":
                continue
            setattr(
                merged, spec.name,
                getattr(self, spec.name) + getattr(other, spec.name),
            )
        merged.health.merge(self.health)
        merged.health.merge(other.health)
        return merged

    @property
    def retransmission_ratio(self):
        return self.transmissions / self.packets if self.packets else 0.0

    @property
    def goodput(self):
        """Delivered payload cells per delivered cell (very rough)."""
        if not self.cells_delivered:
            return 0.0
        return min(1.0, self.packets * 7 / self.cells_delivered)

    @property
    def silent_corruption(self):
        """Packets delivered to the application with wrong bytes."""
        return self.delivered_corrupted

    @property
    def degraded(self):
        """Did delivery fall short (packets abandoned or corrupted)?"""
        return self.gave_up > 0 or self.delivered_corrupted > 0


def simulate_file_transfer(
    data,
    loss_model,
    config=None,
    use_crc=True,
    max_attempts=64,
    seed=0,
    health=None,
):
    """Reliably transfer ``data`` over a lossy link; report the outcome.

    The sender transmits each packet (alongside its successor, so
    adjacent-packet splices can form exactly as in the paper's error
    model) until the receiver accepts a frame for that sequence
    position; ``max_attempts`` bounds the retries.  Returns a
    :class:`TransferReport`; a transfer that exhausted the retry
    budget on any packet records a degradation note in the report's
    ``health`` (and in ``health`` when one is passed in).
    """
    config = config or PacketizerConfig()
    options = EngineOptions.from_packetizer(config, aux_crcs=())
    rng = np.random.default_rng(seed)
    units = FileTransferSimulator(config).transfer(data)

    report = TransferReport(packets=len(units))
    if health is not None:
        report.health = health
    for index, unit in enumerate(units):
        # The wire window: this packet followed by the next (if any),
        # so losses can splice them -- the paper's scenario.
        window = [unit] + ([units[index + 1]] if index + 1 < len(units) else [])
        cells = []
        for w_index, w_unit in enumerate(window):
            payloads = w_unit.frame.cells()
            last = len(payloads) - 1
            cells.extend(
                MarkedCell(p.tobytes(), c == last, w_index)
                for c, p in enumerate(payloads)
            )
        expected = unit.packet.ip_packet
        expected_seq = unit.packet.seq

        accepted = False
        for _ in range(max_attempts):
            report.transmissions += 1
            report.cells_sent += len(cells)
            delivered = apply_loss(cells, loss_model, rng)
            report.cells_delivered += len(delivered)
            frames = AAL5Reassembler().feed_all(delivered)
            if not frames:
                continue
            frame_bytes = b"".join(frames[0])
            ok, length = frame_acceptable(frame_bytes, options, use_crc)
            if not ok:
                report.frames_rejected += 1
                continue
            # Sequence placement: the receiver only accepts data for
            # the sequence position it is waiting on.  (An intact
            # *next* packet arriving while this one was lost is simply
            # early, not corruption.)
            seq = int.from_bytes(frame_bytes[24:28], "big")
            if seq != expected_seq:
                report.out_of_sequence += 1
                continue
            accepted = True
            if frame_bytes[:length] == expected:
                report.delivered_clean += 1
            else:
                report.delivered_corrupted += 1
            break
        if not accepted:
            report.gave_up += 1
    if report.gave_up:
        report.health.degrade(
            "transfer degraded: gave up on %d of %d packet(s) after %d "
            "attempt(s) each; delivery is incomplete"
            % (report.gave_up, report.packets, max_attempts)
        )
    return report
