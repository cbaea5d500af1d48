"""ARQ over the simulated link: recovery driven by checksum verdicts.

The sender runs one of three classic ARQ disciplines -- stop-and-wait,
go-back-N, or selective-repeat -- over a
:class:`~repro.channel.link.ChannelLink`, handing it each transmission
as one frame of cells (:meth:`~repro.channel.link.ChannelLink.send_frame`).
The receiver reassembles AAL5 frames from whatever arrives and applies
the *paper's* full check stack
(:func:`repro.core.reference.frame_acceptable`, the scalar receiver
every simulator shares): a frame that fails any check is silently
discarded, so retransmission is triggered by the sender's timeout --
the checksum verdict IS the recovery decision.  A frame that *passes*
every check but carries the wrong bytes is silent corruption delivered
to the application, counted and ACKed like any clean frame (the
receiver cannot know).

Robustness contract (the reason this module exists in a reproduction
about surviving corruption):

* every timeout backs off exponentially (capped) and is charged to
  the timed-out frame's **budget** of timeouts; the first timeout past
  it abandons the frame, records a degradation note, and moves on --
  the session never loops.  The budget bounds timeouts, not sends:
  go-back-N resends the whole window on each timeout;
* a hard event-count guard backstops the discrete-event loop, so no
  parameter combination (queue-overflow storms included) can hang it;
* ACKs and the explicit skip notice travel a reliable, fixed-latency
  control channel -- impairing the data path is the experiment, a lost
  ACK only re-runs the same timeout machinery.

Everything is simulated ticks and seeded draws: the same plan, ARQ
configuration, and payload produce a bit-identical
:class:`ChannelReport` and trace-event sequence on every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.channel.events import EventQueue
from repro.channel.link import ChannelLink
from repro.core.options import EngineOptions
from repro.core.reference import frame_acceptable
from repro.protocols.aal5 import CELL_PAYLOAD
from repro.protocols.cellstream import AAL5Reassembler
from repro.protocols.ftpsim import FileTransferSimulator
from repro.protocols.packetizer import PacketizerConfig

__all__ = [
    "ARQ_KINDS",
    "ArqConfig",
    "ArqSession",
    "ChannelReport",
    "run_channel_transfer",
]

import json

#: The supported ARQ disciplines.
ARQ_KINDS = ("stop-and-wait", "go-back-n", "selective-repeat")

#: Degradation notes are canonical strings (no per-frame numbers) so
#: they merge idempotently across files and sweep passes; the counts
#: live in the report's counters.
NOTE_BUDGET = (
    "arq: retransmission budget exhausted; some frames were abandoned "
    "and delivery is incomplete"
)
NOTE_EVENT_GUARD = (
    "channel: event budget exceeded; remaining frames were abandoned"
)
NOTE_STALLED = (
    "channel: event queue drained with unresolved frames; remaining "
    "frames were abandoned"
)


@dataclass(frozen=True)
class ArqConfig:
    """One ARQ discipline, fully parameterized and JSON-portable."""

    kind: str = "go-back-n"
    #: sender window in frames (stop-and-wait forces 1).
    window: int = 8
    #: initial retransmission timeout, in simulated ticks.
    timeout: float = 64.0
    #: exponential backoff factor applied per timeout of a frame.
    backoff: float = 2.0
    #: ceiling on the backed-off timeout.
    max_timeout: float = 1024.0
    #: timeouts charged per frame; the frame's next timeout abandons
    #: it (graceful degradation, never a loop).  Go-back-N resends the
    #: rest of the window on each timeout too, uncharged, so the
    #: budget bounds a frame's timeouts, not its sends.
    budget: int = 8

    def __post_init__(self):
        if self.kind not in ARQ_KINDS:
            raise ValueError(
                "unknown ARQ kind %r; available: %s"
                % (self.kind, ", ".join(ARQ_KINDS))
            )
        if self.window < 1:
            raise ValueError("window must be >= 1, got %r" % (self.window,))
        if self.timeout <= 0:
            raise ValueError("timeout must be > 0, got %r" % (self.timeout,))
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1, got %r" % (self.backoff,))
        if self.max_timeout < self.timeout:
            raise ValueError(
                "max_timeout must be >= timeout, got %r" % (self.max_timeout,)
            )
        if self.budget < 0:
            raise ValueError("budget must be >= 0, got %r" % (self.budget,))

    def to_dict(self):
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}

    @classmethod
    def from_dict(cls, payload):
        known = {spec.name for spec in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                "unknown ArqConfig fields: %s" % ", ".join(sorted(unknown))
            )
        return cls(**payload)


@dataclass
class ChannelReport:
    """What one (or many, summed) channel transfer(s) did.

    All counters are plain ints (plus the simulated clock), so reports
    merge with ``+`` in any order and round-trip through JSON
    bit-identically -- the property the trace replayer and the
    workers-invariance tests assert.
    """

    files: int = 0
    frames: int = 0
    #: frame transmissions, first sends included.
    transmissions: int = 0
    retransmissions: int = 0
    timeouts: int = 0
    acks: int = 0
    #: reassembled frames the check stack rejected (implicit NAKs).
    frames_rejected: int = 0
    #: accepted frames whose sequence maps to no known frame.
    alien_frames: int = 0
    #: acceptable frames discarded by a go-back-N receiver as
    #: out-of-order.
    out_of_order: int = 0
    #: acceptable frames for already-delivered positions (re-ACKed).
    duplicates_ignored: int = 0
    delivered_clean: int = 0
    delivered_corrupted: int = 0
    #: frames abandoned after their budget of timeouts.
    frames_failed: int = 0
    # -- wire statistics (from ChannelStats) ---------------------------
    cells_sent: int = 0
    cells_delivered: int = 0
    cells_lost: int = 0
    cells_errored: int = 0
    bits_flipped: int = 0
    cells_overflowed: int = 0
    cells_reordered: int = 0
    cells_duplicated: int = 0
    #: simulated clock at session end (summed across files).
    ticks: float = 0.0
    #: discrete events processed (summed across files).
    events: int = 0
    #: canonical degradation notes (merged into RunHealth by callers).
    notes: list = field(default_factory=list)

    def __add__(self, other):
        merged = ChannelReport()
        for spec in fields(self):
            if spec.name == "notes":
                continue
            setattr(
                merged, spec.name,
                getattr(self, spec.name) + getattr(other, spec.name),
            )
        for note in list(self.notes) + list(other.notes):
            if note not in merged.notes:
                merged.notes.append(note)
        return merged

    # -- derived views ------------------------------------------------------

    @property
    def delivered(self):
        """Frames handed to the application (clean or not)."""
        return self.delivered_clean + self.delivered_corrupted

    @property
    def retransmission_ratio(self):
        return self.transmissions / self.frames if self.frames else 0.0

    @property
    def goodput(self):
        """Frames delivered per frame transmission."""
        return self.delivered / self.transmissions if self.transmissions else 0.0

    @property
    def delivery_ratio(self):
        return self.delivered / self.frames if self.frames else 0.0

    @property
    def silent_corruption(self):
        """Frames delivered to the application with wrong bytes."""
        return self.delivered_corrupted

    @property
    def degraded(self):
        """Did delivery fall short of 'everything, intact'?"""
        return self.frames_failed > 0 or self.delivered_corrupted > 0

    # -- serialization ------------------------------------------------------

    def to_dict(self):
        payload = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            payload[spec.name] = list(value) if spec.name == "notes" else value
        return payload

    @classmethod
    def from_dict(cls, payload):
        known = {spec.name for spec in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                "unknown ChannelReport fields: %s" % ", ".join(sorted(unknown))
            )
        return cls(**payload)

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))


def _tcp_seq(frame):
    """The TCP sequence number of a frame (bytes 24-27, after the IP header)."""
    return int.from_bytes(frame[24:28], "big")


class ArqSession:
    """One file's transfer: sender, link, receiver, event loop.

    ``wire`` holds the file's frames, grouped by length as
    :meth:`~repro.protocols.packetizer.Packetizer.wire` builds them.
    The sender sends each frame's cells; the receiver places a frame
    by its TCP sequence number and compares what it delivers with the
    IP packet the sender framed.
    """

    def __init__(self, wire, link, arq, options, use_crc=True, trace=None):
        self.link = link
        self.arq = arq
        self.options = options
        self.use_crc = use_crc
        self.trace = trace
        self.window = 1 if arq.kind == "stop-and-wait" else arq.window

        self.cells = []      # per frame: ((payload, last), ...)
        self.expected = []   # per frame: the IP packet the sender framed
        self.seq_to_index = {}
        for group in wire:
            count, cell_count, _ = group.frames.shape
            size = cell_count * CELL_PAYLOAD
            final = size - CELL_PAYLOAD
            frames = group.frames.tobytes()
            for start in range(0, count * size, size):
                frame = frames[start:start + size]
                self.seq_to_index[_tcp_seq(frame)] = len(self.cells)
                self.cells.append(tuple(
                    (frame[at:at + CELL_PAYLOAD], at == final)
                    for at in range(0, size, CELL_PAYLOAD)
                ))
                self.expected.append(frame[:group.iplen])

        count = len(self.cells)
        self.report = ChannelReport(files=1, frames=count)
        self.queue = EventQueue()
        self.now = 0.0
        # -- sender state --
        self.acked = [False] * count
        self.failed = [False] * count
        self.tx_count = [0] * count
        self.retx = [0] * count       # timeouts charged per frame
        self.epochs = [0] * count     # invalidates stale timers
        self.base = 0
        self.next_to_send = 0
        self.tx_busy_until = 0.0
        # -- receiver state --
        self.reassembler = AAL5Reassembler()
        self.rcv_next = 0
        self.rcv_done = set()
        self.rcv_skipped = set()

    # -- plumbing -----------------------------------------------------------

    def _record(self, event, **data):
        if self.trace is not None:
            entry = {"t": round(self.now, 9), "event": event}
            entry.update(data)
            self.trace.append(entry)

    def _resolved(self, index):
        return self.acked[index] or self.failed[index]

    def _note(self, note):
        if note not in self.report.notes:
            self.report.notes.append(note)

    def _event_guard(self):
        total_cells = sum(len(frame) for frame in self.cells)
        return 40 * max(total_cells, 1) * (self.arq.budget + 2) + 10_000

    # -- sender -------------------------------------------------------------

    def _send_frame(self, index):
        deliveries, t = self.link.send_frame(
            self.cells[index], max(self.now, self.tx_busy_until)
        )
        self.queue.push_all("cell", deliveries)
        self.tx_busy_until = t
        self.tx_count[index] += 1
        self.report.transmissions += 1
        if self.tx_count[index] > 1:
            self.report.retransmissions += 1
        self.epochs[index] += 1
        rto = min(
            self.arq.timeout * self.arq.backoff ** self.retx[index],
            self.arq.max_timeout,
        )
        self.queue.push(t + rto, "timeout", index, self.epochs[index])
        self._record("send", frame=index, attempt=self.tx_count[index])

    def _advance_and_fill(self):
        count = len(self.cells)
        while self.base < count and self._resolved(self.base):
            self.base += 1
        while (
            self.next_to_send < count
            and self.next_to_send < self.base + self.window
        ):
            index = self.next_to_send
            self.next_to_send += 1
            if not self._resolved(index):
                self._send_frame(index)

    def _mark_acked(self, index):
        self.acked[index] = True
        self.epochs[index] += 1  # cancel pending timers

    def _give_up(self, index):
        self.failed[index] = True
        self.epochs[index] += 1
        self.report.frames_failed += 1
        self._note(NOTE_BUDGET)
        self._record("give-up", frame=index)
        # Tell the receiver (reliable control channel) to stop waiting
        # for this position, so in-order delivery can move past it.
        self.queue.push(self.now + self.link.plan.latency, "skip", index)
        self._advance_and_fill()

    def _on_timeout(self, index, epoch):
        if self._resolved(index) or epoch != self.epochs[index]:
            return  # stale timer
        self.report.timeouts += 1
        self.retx[index] += 1
        self._record("timeout", frame=index, count=self.retx[index])
        if self.retx[index] > self.arq.budget:
            self._give_up(index)
            return
        if self.arq.kind == "go-back-n":
            # Go back: resend every unresolved in-flight frame in order.
            for j in range(self.base, self.next_to_send):
                if not self._resolved(j):
                    self._send_frame(j)
        else:
            self._send_frame(index)

    def _on_ack(self, index, cumulative):
        self.report.acks += 1
        if index is None:
            for j in range(self.base, cumulative):
                if not self._resolved(j):
                    self._mark_acked(j)
        elif not self._resolved(index):
            self._mark_acked(index)
        self._advance_and_fill()

    # -- receiver -----------------------------------------------------------

    def _send_ack(self, index):
        """ACK frame ``index``, or cumulative (``None``) for go-back-N."""
        at = self.now + self.link.plan.ack_latency
        if index is None:
            self.queue.push(at, "ack", None, self.rcv_next)
        else:
            self.queue.push(at, "ack", index, None)

    def _advance_rcv(self):
        count = len(self.cells)
        while self.rcv_next < count and (
            self.rcv_next in self.rcv_done or self.rcv_next in self.rcv_skipped
        ):
            self.rcv_next += 1

    def _deliver(self, index, frame_bytes, length):
        self.rcv_done.add(index)
        clean = frame_bytes[:length] == self.expected[index]
        if clean:
            self.report.delivered_clean += 1
        else:
            self.report.delivered_corrupted += 1
        self._record("deliver", frame=index, clean=clean)

    def _on_frame(self, cells):
        """Judge one reassembled frame and act on the verdict."""
        frame_bytes = b"".join(cells)
        ok, length = frame_acceptable(frame_bytes, self.options, self.use_crc)
        if not ok:
            # The checksum verdict: discard in silence; the sender's
            # timeout is the NAK.
            self.report.frames_rejected += 1
            self._record("reject")
            return
        index = self.seq_to_index.get(_tcp_seq(frame_bytes))
        if index is None:
            self.report.alien_frames += 1
            self._record("alien")
            return
        if index in self.rcv_done or index in self.rcv_skipped:
            self.report.duplicates_ignored += 1
            self._record("dup", frame=index)
            self._send_ack(None if self.arq.kind == "go-back-n" else index)
            return
        if self.arq.kind == "go-back-n":
            if index != self.rcv_next:
                self.report.out_of_order += 1
                self._record("ooo", frame=index)
                self._send_ack(None)  # re-ACK the cumulative position
                return
            self._deliver(index, frame_bytes, length)
            self._advance_rcv()
            self._send_ack(None)
        else:
            # Selective-repeat (and stop-and-wait, window 1): accept
            # and buffer out-of-order, ACK individually.
            self._deliver(index, frame_bytes, length)
            self._advance_rcv()
            self._send_ack(index)

    def _on_skip(self, index):
        if index not in self.rcv_done:
            self.rcv_skipped.add(index)
            self._record("skip", frame=index)
        self._advance_rcv()

    # -- the event loop -----------------------------------------------------

    def _abandon_unresolved(self, note):
        for index in range(len(self.cells)):
            if not self._resolved(index):
                self.failed[index] = True
                self.report.frames_failed += 1
        self.base = len(self.cells)
        self._note(note)

    def run(self):
        """Drive the transfer to completion; returns the report.

        Termination is structural: every unresolved, sent frame always
        has a live timer, timers charge a bounded budget, and budget
        exhaustion resolves the frame -- plus a hard event-count guard
        as a backstop.  This method never hangs and never raises for
        any plan/ARQ parameterization.
        """
        guard = self._event_guard()
        self._advance_and_fill()
        count, pop, report = len(self.cells), self.queue.pop, self.report
        reassemble = self.reassembler.feed_payload
        while self.base < count:
            try:
                self.now, _, kind, payload = pop()
            except IndexError:
                self._abandon_unresolved(NOTE_STALLED)
                break
            report.events += 1
            if report.events > guard:
                self._abandon_unresolved(NOTE_EVENT_GUARD)
                break
            if kind == "cell":
                frame = reassemble(*payload)
                if frame is not None:
                    self._on_frame(frame)
            elif kind == "timeout":
                self._on_timeout(*payload)
            elif kind == "ack":
                self._on_ack(*payload)
            elif kind == "skip":
                self._on_skip(*payload)
        self.report.ticks = self.now
        stats = self.link.stats
        self.report.cells_sent = stats.cells_sent
        self.report.cells_delivered = stats.cells_delivered
        self.report.cells_lost = stats.cells_lost
        self.report.cells_errored = stats.cells_errored
        self.report.bits_flipped = stats.bits_flipped
        self.report.cells_overflowed = stats.cells_overflowed
        self.report.cells_reordered = stats.cells_reordered
        self.report.cells_duplicated = stats.cells_duplicated
        return self.report


def run_channel_transfer(
    data,
    plan,
    arq=None,
    config=None,
    use_crc=True,
    health=None,
    trace_events=None,
):
    """Transfer ``data`` over a simulated channel under ARQ recovery.

    ``plan`` is a :class:`~repro.channel.plan.ChannelPlan`; ``arq`` an
    :class:`ArqConfig` (go-back-N by default); ``config`` the
    :class:`PacketizerConfig` shaping packets exactly as the splice
    experiments do.  ``use_crc=False`` removes the AAL5 CRC from the
    receiver's stack, exposing the transport checksum alone.  Returns
    a :class:`ChannelReport`; degradation notes (budget exhaustion,
    event-guard trips) are folded into ``health`` when given.
    ``trace_events`` (a list) collects the replayable event record.
    """
    arq = arq or ArqConfig()
    config = config or PacketizerConfig()
    options = EngineOptions.from_packetizer(config, aux_crcs=())
    session = ArqSession(
        FileTransferSimulator(config).wire(data), ChannelLink(plan), arq,
        options, use_crc=use_crc, trace=trace_events,
    )
    report = session.run()
    if health is not None:
        for note in report.notes:
            health.degrade(note)
    return report
