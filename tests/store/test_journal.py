"""The sweep checkpoint journal: append-only, fingerprinted, self-checking."""

from __future__ import annotations

import json
import struct

import pytest

from repro.core.results import SpliceCounters
from repro.store.journal import (
    ShardJournal,
    default_journal_dir,
    journal_path,
    open_journal,
)
from repro.store.objstore import frame_object


def record_bytes(payload):
    """One journal record built from the documented wire format:
    ``length(4, big-endian) || frame`` of the payload's JSON."""
    if not isinstance(payload, bytes):
        payload = json.dumps(payload).encode("utf-8")
    frame = frame_object(payload)
    return struct.pack(">I", len(frame)) + frame


def record_offsets(blob):
    """The start offset of every record in a journal file's bytes."""
    offsets, offset = [], 0
    while offset < len(blob):
        offsets.append(offset)
        offset += 4 + struct.unpack_from(">I", blob, offset)[0]
    return offsets


def header(fingerprint="fp-1", schema=ShardJournal.SCHEMA):
    return {"schema": schema, "fingerprint": fingerprint, "label": "",
            "total": 1}


def kinds(durable_writes):
    """The discipline of each durable write, in order."""
    return [kind for kind, _ in durable_writes]


def counters(total=10, missed=1):
    c = SpliceCounters()
    c.files = 1
    c.packets = 4
    c.total = total
    c.caught_by_header = total - missed
    c.missed_transport = missed
    return c


class TestLifecycle:
    def test_round_trip(self, tmp_path):
        journal = ShardJournal(tmp_path / "sweep.journal")
        assert journal.open_run("fp-1", label="box", total=2) == {}
        journal.record("shard-a", counters(10))
        journal.record("shard-b", counters(20))
        assert journal.exists()
        assert journal.done == 2 and journal.total == 2

        fresh = ShardJournal(tmp_path / "sweep.journal")
        entries = fresh.open_run("fp-1", label="box", total=2, resume=True)
        assert sorted(entries) == ["shard-a", "shard-b"]
        assert entries["shard-a"] == counters(10)
        assert entries["shard-b"] == counters(20)

    def test_without_resume_the_journal_starts_empty(self, tmp_path):
        journal = ShardJournal(tmp_path / "sweep.journal")
        journal.open_run("fp-1")
        journal.record("shard-a", counters())
        fresh = ShardJournal(tmp_path / "sweep.journal")
        assert fresh.open_run("fp-1", resume=False) == {}

    def test_complete_deletes_the_file(self, tmp_path):
        journal = ShardJournal(tmp_path / "sweep.journal")
        journal.open_run("fp-1")
        journal.record("shard-a", counters())
        assert journal.exists()
        journal.complete()
        assert not journal.exists()
        journal.discard()  # idempotent

    def test_entries_survive_interleaved_flushes(self, tmp_path):
        journal = ShardJournal(tmp_path / "sweep.journal")
        journal.open_run("fp-1")
        for index in range(5):
            journal.record("shard-%d" % index, counters(index + 1))
            # Every record is durable when record() returns: a fresh
            # reader at any point sees exactly the shards recorded so far.
            reader = ShardJournal(tmp_path / "sweep.journal")
            entries = reader.open_run("fp-1", resume=True)
            assert len(entries) == index + 1


class TestFingerprint:
    def test_mismatch_discards_with_warning(self, tmp_path):
        journal = ShardJournal(tmp_path / "sweep.journal")
        journal.open_run("fp-old")
        journal.record("shard-a", counters())

        fresh = ShardJournal(tmp_path / "sweep.journal")
        with pytest.warns(RuntimeWarning, match="stale sweep journal"):
            entries = fresh.open_run("fp-new", resume=True)
        assert entries == {}
        # Stale checkpoints are never merged *and* never linger.
        assert not fresh.exists()

    def test_matching_fingerprint_resumes_silently(self, tmp_path, recwarn):
        journal = ShardJournal(tmp_path / "sweep.journal")
        journal.open_run("fp-1")
        journal.record("shard-a", counters())
        fresh = ShardJournal(tmp_path / "sweep.journal")
        assert fresh.open_run("fp-1", resume=True)
        assert [w for w in recwarn if issubclass(
            w.category, RuntimeWarning)] == []


class TestDefects:
    """A bad header degrades to 'no journal'; the sweep restarts cleanly."""

    def _stored(self, tmp_path):
        journal = ShardJournal(tmp_path / "sweep.journal")
        journal.open_run("fp-1")
        journal.record("shard-a", counters())
        return journal.path

    def test_torn_file_degrades_to_no_journal(self, tmp_path):
        path = self._stored(tmp_path)
        blob = path.read_bytes()
        header_end = record_offsets(blob)[1]
        path.write_bytes(blob[: header_end // 2])  # torn inside the header
        fresh = ShardJournal(path)
        assert fresh.open_run("fp-1", resume=True) == {}
        assert not path.is_file()  # defective file removed

    def test_bit_rot_degrades_to_no_journal(self, tmp_path):
        path = self._stored(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[record_offsets(blob)[1] // 2] ^= 0x40  # inside the header
        path.write_bytes(bytes(blob))
        fresh = ShardJournal(path)
        assert fresh.open_run("fp-1", resume=True) == {}
        assert not path.is_file()

    def test_valid_frame_with_garbage_json_degrades(self, tmp_path):
        path = self._stored(tmp_path)
        path.write_bytes(record_bytes(b"not json at all"))
        fresh = ShardJournal(path)
        assert fresh.open_run("fp-1", resume=True) == {}
        assert not path.is_file()

    def test_schema_drift_degrades(self, tmp_path):
        path = self._stored(tmp_path)
        path.write_bytes(
            record_bytes(header(schema="repro-prehistoric/0"))
            + record_bytes({"key": "shard-a",
                            "counters": counters().to_dict()})
        )
        fresh = ShardJournal(path)
        assert fresh.open_run("fp-1", resume=True) == {}
        assert not path.is_file()

    def test_whole_file_format_degrades(self, tmp_path):
        # A journal in the earlier one-frame format (every entry in one
        # trailed JSON document) reads as a torn header: no journal.
        path = self._stored(tmp_path)
        path.write_bytes(frame_object(json.dumps({
            "schema": ShardJournal.SCHEMA, "fingerprint": "fp-1",
            "label": "", "total": 1,
            "entries": {"shard-a": counters().to_dict()},
        }, sort_keys=True).encode("utf-8")))
        assert ShardJournal(path).open_run("fp-1", resume=True) == {}

    def test_unparsable_entries_degrade_with_warning(self, tmp_path):
        path = self._stored(tmp_path)
        path.write_bytes(
            record_bytes(header())
            + record_bytes({"key": "shard-a",
                            "counters": {"no_such_counter": 1}})
        )
        journal = ShardJournal(path)
        with pytest.warns(RuntimeWarning, match="defective sweep journal"):
            assert journal.open_run("fp-1", resume=True) == {}

    def test_unparsable_record_keeps_the_records_before_it(self, tmp_path):
        path = tmp_path / "sweep.journal"
        path.write_bytes(
            record_bytes(header())
            + record_bytes({"key": "shard-a",
                            "counters": counters(10).to_dict()})
            + record_bytes({"key": "shard-b", "counters": [1, 2]})
            + record_bytes({"key": "shard-c",
                            "counters": counters(30).to_dict()})
        )
        with pytest.warns(RuntimeWarning, match="record 2 failed"):
            entries = ShardJournal(path).open_run("fp-1", resume=True)
        assert entries == {"shard-a": counters(10)}

    def test_missing_file_is_simply_empty(self, tmp_path):
        journal = ShardJournal(tmp_path / "never-written.journal")
        assert journal.open_run("fp-1", resume=True) == {}


class TestTornTail:
    """A kill mid-append tears only the record being appended."""

    def _three_records(self, tmp_path):
        journal = ShardJournal(tmp_path / "sweep.journal")
        journal.open_run("fp-1", total=3)
        journal.record("shard-a", counters(10))
        journal.record("shard-b", counters(20))
        journal.record("shard-c", counters(30))
        return journal.path

    def test_every_cut_inside_the_last_record_keeps_the_earlier_ones(
        self, tmp_path, recwarn
    ):
        path = self._three_records(tmp_path)
        blob = path.read_bytes()
        earlier = {"shard-a": counters(10), "shard-b": counters(20)}
        for cut in range(record_offsets(blob)[-1], len(blob)):
            path.write_bytes(blob[:cut])
            entries = ShardJournal(path).open_run("fp-1", resume=True)
            assert entries == earlier, "cut at byte %d" % cut
        path.write_bytes(blob)
        assert len(ShardJournal(path).open_run("fp-1", resume=True)) == 3
        # A torn tail is the expected residue of a kill: no warning.
        assert [w for w in recwarn
                if issubclass(w.category, RuntimeWarning)] == []

    def test_bit_rot_in_a_record_keeps_the_records_before_it(self, tmp_path):
        path = self._three_records(tmp_path)
        blob = bytearray(path.read_bytes())
        offsets = record_offsets(blob)
        blob[(offsets[2] + offsets[3]) // 2] ^= 0x01  # inside shard-b
        path.write_bytes(bytes(blob))
        entries = ShardJournal(path).open_run("fp-1", resume=True)
        assert entries == {"shard-a": counters(10)}


class TestWriteDiscipline:
    """One durable write per record: whole file first, then appends."""

    def test_first_write_creates_the_file_whole_then_appends(
        self, tmp_path, durable_writes
    ):
        journal = ShardJournal(tmp_path / "sweep.journal")
        journal.open_run("fp-1", total=3)
        assert durable_writes == [] and not journal.exists()  # none yet
        for name in ("shard-a", "shard-b", "shard-c"):
            journal.record(name, counters())
        assert kinds(durable_writes) == ["whole", "append", "append"]
        journal.flush()  # nothing new: no write
        assert kinds(durable_writes) == ["whole", "append", "append"]

    def test_after_resume_the_first_write_rewrites_the_file_whole(
        self, tmp_path, durable_writes
    ):
        journal = ShardJournal(tmp_path / "sweep.journal")
        journal.open_run("fp-1", total=4)
        journal.record("shard-a", counters(10))
        journal.record("shard-b", counters(20))
        blob = journal.path.read_bytes()
        journal.path.write_bytes(blob[:-3])  # shard-b's append was torn

        resumed = ShardJournal(journal.path)
        assert resumed.open_run("fp-1", total=4, resume=True) == {
            "shard-a": counters(10)
        }
        del durable_writes[:]
        resumed.record("shard-c", counters(30))
        resumed.record("shard-d", counters(40))
        assert kinds(durable_writes) == ["whole", "append"]
        # The torn tail is gone, not buried under the new records.
        assert ShardJournal(journal.path).open_run("fp-1", resume=True) == {
            "shard-a": counters(10), "shard-c": counters(30),
            "shard-d": counters(40),
        }

    def test_a_stop_before_any_record_leaves_a_header(
        self, tmp_path, durable_writes
    ):
        journal = ShardJournal(tmp_path / "sweep.journal")
        journal.open_run("fp-1", total=2)
        journal.flush()  # what a signal or deadline stop does
        assert kinds(durable_writes) == ["whole"]
        assert journal.exists()  # on disk means "interrupted"
        assert ShardJournal(journal.path).open_run(
            "fp-1", resume=True
        ) == {}


class TestPaths:
    def test_default_dir_is_under_the_store_root(self, tmp_path):
        assert default_journal_dir(tmp_path) == tmp_path / "journal"

    def test_journal_path_is_a_stable_slug(self, tmp_path):
        from repro.protocols.packetizer import PacketizerConfig

        config = PacketizerConfig()
        a = journal_path(tmp_path, "stanford-u1", config)
        b = journal_path(tmp_path, "stanford-u1", config)
        assert a == b
        assert a.suffix == ".journal"
        assert a.parent == tmp_path

    def test_hostile_labels_are_slugged(self, tmp_path):
        from repro.protocols.packetizer import PacketizerConfig

        path = journal_path(
            tmp_path, "../../etc/passwd fs", PacketizerConfig()
        )
        # The label can never escape the journal directory or produce
        # a hidden/dot-leading filename.
        assert path.resolve().parent == tmp_path.resolve()
        assert "/" not in path.name
        assert not path.name.startswith(".")

    def test_open_journal_builds_under_root(self, tmp_path):
        from repro.protocols.packetizer import PacketizerConfig

        journal = open_journal(tmp_path, "box", PacketizerConfig())
        assert journal.path.parent == tmp_path / "journal"
