"""Tests for the discrete-event queue's ordering guarantees."""

import pytest

from repro.channel.events import Event, EventQueue


class TestOrdering:
    def test_pops_in_time_order(self):
        q = EventQueue()
        q.push(5.0, "b")
        q.push(1.0, "a")
        q.push(3.0, "c")
        assert [q.pop().kind for _ in range(3)] == ["a", "c", "b"]

    def test_ties_break_by_insertion_order(self):
        q = EventQueue()
        for kind in ("first", "second", "third"):
            q.push(2.0, kind)
        assert [q.pop().kind for _ in range(3)] == ["first", "second", "third"]

    def test_payload_never_compared(self):
        # Identical (time, seq) can't happen; payloads may be
        # uncomparable objects and the heap must not care.
        q = EventQueue()
        q.push(1.0, "x", object())
        q.push(1.0, "y", object())
        assert q.pop().kind == "x"
        assert q.pop().kind == "y"

    def test_heap_never_compares_events(self, monkeypatch):
        # The heap orders (time, seq, event) tuples; the unique
        # (time, seq) prefix settles every comparison in C.
        def refuse(self, other):
            raise AssertionError("Event.__lt__ called")

        monkeypatch.setattr(Event, "__lt__", refuse)
        q = EventQueue()
        schedule = [(3.0, "c"), (1.0, "a"), (3.0, "d"), (0.5, "z"),
                    (1.0, "b"), (2.0, "m"), (0.5, "y")]
        seqs = {kind: q.push(time, kind) for time, kind in schedule}
        popped = [q.pop() for _ in range(len(schedule))]
        assert [(e.time, e.seq) for e in popped] == sorted(
            (time, seqs[kind]) for time, kind in schedule
        )
        assert [e.kind for e in popped] == ["z", "y", "a", "b", "m", "c", "d"]

    def test_peek_and_len(self):
        q = EventQueue()
        assert q.peek_time() is None
        assert not q
        q.push(4.0, "later")
        q.push(2.0, "sooner")
        assert q.peek_time() == 2.0
        assert len(q) == 2
        q.pop()
        assert q.peek_time() == 4.0

    def test_rejects_negative_time(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.push(-1.0, "bad")

    def test_payload_carried_through(self):
        q = EventQueue()
        q.push(1.0, "cell", b"data", True)
        event = q.pop()
        assert event.payload == (b"data", True)
