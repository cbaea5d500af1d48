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

    def test_heap_never_compares_events(self):
        # The heap holds Event tuples; the unique (time, seq) prefix
        # settles every comparison in C.  Every event here has the same
        # kind and a payload that refuses comparison, so a comparison
        # that got past (time, seq) would raise.
        class Incomparable:
            def __init__(self, label):
                self.label = label

            def __eq__(self, other):
                raise AssertionError("event payload compared")

            __ne__ = __lt__ = __le__ = __gt__ = __ge__ = __eq__
            __hash__ = object.__hash__

        q = EventQueue()
        schedule = [(3.0, "c"), (1.0, "a"), (3.0, "d"), (0.5, "z"),
                    (1.0, "b"), (2.0, "m"), (0.5, "y")]
        seqs = {label: q.push(time, "same", Incomparable(label))
                for time, label in schedule}
        popped = [q.pop() for _ in range(len(schedule))]
        assert all(isinstance(e, Event) for e in popped)
        assert [(e.time, e.seq) for e in popped] == sorted(
            (time, seqs[label]) for time, label in schedule
        )
        assert [e.payload[0].label for e in popped] == [
            "z", "y", "a", "b", "m", "c", "d"
        ]

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

    def test_push_all_is_one_push_per_pair(self):
        one, many = EventQueue(), EventQueue()
        one.push(0.5, "timeout", 3, 1)
        many.push(0.5, "timeout", 3, 1)
        timed = [(2.0, (b"a", False)), (1.0, (b"b", True)), (2.0, (b"c", False))]
        for time, payload in timed:
            one.push(time, "cell", *payload)
        many.push_all("cell", timed)
        assert many.push(9.0, "ack") == one.push(9.0, "ack") == 4
        assert [many.pop() for _ in range(5)] == [one.pop() for _ in range(5)]

    def test_push_all_rejects_negative_time(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.push_all("cell", [(1.0, ()), (-1.0, ())])
        assert len(q) == 1
        assert q.push(3.0, "next") == 1
