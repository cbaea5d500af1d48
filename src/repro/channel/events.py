"""The deterministic discrete-event core of the channel simulator.

A single :class:`EventQueue` orders everything that happens on the
simulated link -- cell arrivals, retransmission timers, control
messages -- by ``(time, seq)``, where ``seq`` is a monotonic insertion
counter.  The tie-break matters: two events scheduled for the same
tick pop in the order they were scheduled, on every run, at every
worker count.  The heap holds one :class:`Event` per event, a named
tuple whose first two fields are ``(time, seq)``, so every comparison
is a C-level tuple compare that settles on that unique prefix and
never reaches the kind or the payload.

Time is a simulated float tick counter owned by the consumer; nothing
here (or anywhere in :mod:`repro.channel`) reads a wall clock --
reprolint REP102's discipline, extended to the channel layer.
"""

from __future__ import annotations

import heapq
from functools import partial
from typing import NamedTuple

__all__ = ["Event", "EventQueue"]

#: ``tuple.__new__(Event, fields)`` builds an :class:`Event` without
#: the generated ``__new__``'s Python frame.
_new = tuple.__new__


class Event(NamedTuple):
    """One scheduled occurrence: when, what, and its payload."""

    time: float
    seq: int
    kind: str
    payload: tuple = ()


class EventQueue:
    """A seeded-simulation event queue with deterministic tie-breaks."""

    def __init__(self):
        self._heap = []
        self._seq = 0
        #: The earliest event (FIFO within a tick); ``heappop`` bound
        #: to this heap, so a pop runs no Python frame.
        self.pop = partial(heapq.heappop, self._heap)

    def push(self, time, kind, *payload):
        """Schedule an event; returns its insertion sequence number."""
        self.push_all(kind, ((time, payload),))
        return self._seq - 1

    def push_all(self, kind, timed_payloads):
        """Schedule a ``kind`` event per ``(time, payload)``, in order."""
        heap, seq = self._heap, self._seq
        try:
            for time, payload in timed_payloads:
                if time < 0:
                    raise ValueError("event time must be >= 0, got %r" % (time,))
                heapq.heappush(heap, _new(Event, (float(time), seq, kind, payload)))
                seq += 1
        finally:
            self._seq = seq

    def peek_time(self):
        """The next event's time, or None when empty."""
        return self._heap[0].time if self._heap else None

    def __len__(self):
        return len(self._heap)

    def __bool__(self):
        return bool(self._heap)
