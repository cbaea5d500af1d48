"""Crash consistency: kill the sweep at every shard boundary, resume.

The satellite property test of the robustness layer: a simulated
``kill -9`` (:class:`SimulatedCrash`, a BaseException no ladder rung
absorbs) interrupts :func:`run_sharded_splice` after each shard
boundary in turn.  Whatever the store checkpointed must be enough for
a resumed run to finish with counters **bit-identical** to a run that
was never interrupted — and without recomputing the completed shards.

The one-write contract rides along: every computed shard costs exactly
one durable write -- its shard object when the store kept it, else one
journal record -- counted by spying on ``atomic_write`` and
``durable_append``.
"""

from __future__ import annotations

import pytest

from repro.core.checkpoint import SweepInterrupted, sweep_guard
from repro.core.experiment import run_splice_experiment
from repro.faults.injector import FaultyObjectStore, SimulatedCrash
from repro.faults.plan import FaultPlan
from repro.protocols.packetizer import PacketizerConfig
from repro.store.journal import ShardJournal
from repro.store.runner import RunStore
from tests.conftest import make_filesystem
from tests.store.test_journal import record_offsets

pytestmark = pytest.mark.chaos

#: Four distinct content kinds -> four distinct shard keys/jobs.
KINDS = [("english", 6_000), ("gmon", 5_000), ("c-source", 6_000), ("zero-heavy", 5_000)]
N_SHARDS = len(KINDS)


@pytest.fixture
def fs():
    return make_filesystem(KINDS, seed=11, name="crashbox")


@pytest.fixture
def config():
    return PacketizerConfig()


@pytest.fixture
def clean_counters(fs, config):
    return run_splice_experiment(fs, config).counters


@pytest.mark.parametrize("boundary", range(N_SHARDS))
def test_kill_at_each_shard_boundary_then_resume(
    tmp_path, fs, config, clean_counters, boundary
):
    root = tmp_path / "store"

    # --- the interrupted run: die right before computing shard k ----------
    plan = FaultPlan(0, worker_script={boundary: "kill"})
    killed_store = RunStore(root)
    with pytest.raises(SimulatedCrash):
        run_splice_experiment(fs, config, store=killed_store, faults=plan)
    # Exactly the shards before the boundary were checkpointed.
    assert killed_store.shards.stats.puts == boundary

    # --- the resumed run: same root, no faults ----------------------------
    resumed_store = RunStore(root)
    result = run_splice_experiment(fs, config, store=resumed_store)

    assert result.counters == clean_counters
    # Only the missing shards were recomputed...
    assert resumed_store.shards.stats.puts == N_SHARDS - boundary
    # ...and the checkpointed ones were served from the store intact.
    assert resumed_store.shards.stats.hits == boundary
    assert resumed_store.shards.stats.corrupt == 0


def test_resume_after_kill_is_idempotent(tmp_path, fs, config, clean_counters):
    """A third run over the fully-recovered store recomputes nothing."""
    root = tmp_path / "store"
    plan = FaultPlan(0, worker_script={2: "kill"})
    with pytest.raises(SimulatedCrash):
        run_splice_experiment(fs, config, store=RunStore(root), faults=plan)
    run_splice_experiment(fs, config, store=RunStore(root))

    warm_store = RunStore(root)
    result = run_splice_experiment(fs, config, store=warm_store)
    assert result.counters == clean_counters
    assert warm_store.shards.stats.puts == 0
    assert warm_store.shards.stats.hits == N_SHARDS


# ---------------------------------------------------------------------------
# one durable write per computed shard
# ---------------------------------------------------------------------------

#: ENOSPC on shard writes.  Sequential sweeps drive the plan in a fixed
#: order: with seed 3 the four shard puts are refused, kept, refused,
#: kept (a refusal exhausts both attempts of the store ladder; four
#: errors stay below its demotion threshold).  With seed 0 at 0.6 the
#: first three are refused and the sixth error demotes the run to
#: store-less before the fourth.
REFUSING = dict(seed=3, store_rates={"enospc": 0.5})
DEMOTING = dict(seed=0, store_rates={"enospc": 0.6})


def refusing_store(root, plan):
    """A RunStore whose shard writes fail per ``plan`` (ENOSPC)."""
    store = RunStore(root)
    store.shards.store = FaultyObjectStore(store.shards.store,
                                           FaultPlan(**plan))
    return store


def journal_keys(path):
    """The shard keys of a journal file's intact records."""
    return {record["key"]
            for record in ShardJournal(path)._read_records()[1:]}


def test_healthy_store_writes_each_shard_once_and_no_journal(
    tmp_path, fs, config, clean_counters, durable_writes
):
    root = tmp_path / "store"
    journal = ShardJournal(tmp_path / "sweep.journal")
    result = run_splice_experiment(
        fs, config, store=RunStore(root), journal=journal
    )
    assert result.counters == clean_counters
    assert [kind for kind, _ in durable_writes] == ["whole"] * N_SHARDS
    assert all(root / "shards" in path.parents for _, path in durable_writes)
    assert not journal.exists()


def test_storeless_sweep_writes_one_journal_record_per_shard(
    tmp_path, fs, config, clean_counters, durable_writes
):
    journal = ShardJournal(tmp_path / "sweep.journal")
    result = run_splice_experiment(fs, config, journal=journal)
    assert result.counters == clean_counters
    assert durable_writes == (
        [("whole", journal.path)] + [("append", journal.path)] * (N_SHARDS - 1)
    )
    assert not journal.exists()


@pytest.mark.parametrize("plan, kept", [(REFUSING, 2), (DEMOTING, 0)])
def test_shards_the_store_did_not_keep_are_journaled_once(
    tmp_path, fs, config, clean_counters, durable_writes, recwarn, plan,
    kept,
):
    journal = ShardJournal(tmp_path / "sweep.journal")
    store = refusing_store(tmp_path / "store", plan)
    result = run_splice_experiment(fs, config, store=store, journal=journal)
    assert result.counters == clean_counters
    demotions = [w for w in recwarn
                 if "artifact store is failing" in str(w.message)]
    assert len(demotions) == (0 if kept else 1)
    stored = [path for _, path in durable_writes if path != journal.path]
    journaled = [kind for kind, path in durable_writes
                 if path == journal.path]
    assert len(stored) == store.shards.stats.puts == kept
    assert journaled == ["whole"] + ["append"] * (N_SHARDS - kept - 1)


@pytest.mark.parametrize("boundary", range(N_SHARDS))
@pytest.mark.parametrize("resume_workers", [None, 4])
def test_refusing_store_sigterm_at_every_boundary_then_resume(
    tmp_path, fs, config, clean_counters, boundary, resume_workers
):
    root = tmp_path / "store"
    path = tmp_path / "sweep.journal"
    store = refusing_store(root, REFUSING)
    plan = FaultPlan(0, worker_script={boundary: "sigterm"})
    with sweep_guard():
        with pytest.raises(SweepInterrupted):
            run_splice_experiment(
                fs, config, store=store, faults=plan,
                journal=ShardJournal(path),
            )
    # The journal holds exactly the computed shards the store refused.
    kept = set(store.shards.store.digests())
    refused = journal_keys(path)
    assert len(kept) == store.shards.stats.puts
    assert not kept & refused
    assert len(kept | refused) == boundary + 1
    assert len(refused) == (1, 1, 2, 2)[boundary]

    resumed_store = RunStore(root)
    resumed = run_splice_experiment(
        fs, config, workers=resume_workers, store=resumed_store,
        journal=ShardJournal(path), resume=True,
    )
    assert resumed.counters.to_json() == clean_counters.to_json()
    # Kept shards come from the store, refused ones from the journal;
    # only the never-computed shards are computed again.
    assert resumed_store.shards.stats.hits == len(kept)
    assert resumed_store.shards.stats.puts == N_SHARDS - boundary - 1
    assert not path.exists()


def test_resume_over_every_torn_tail_is_bit_identical(
    tmp_path, fs, config, clean_counters
):
    """A kill mid-append tears the last record: resume recomputes it."""
    path = tmp_path / "sweep.journal"
    with sweep_guard():
        with pytest.raises(SweepInterrupted):
            run_splice_experiment(
                fs, config, faults=FaultPlan(0, worker_script={2: "sigterm"}),
                journal=ShardJournal(path),
            )
    blob = path.read_bytes()
    offsets = record_offsets(blob)
    assert len(offsets) == 1 + 3  # the header, then shards 0-2
    for cut in range(offsets[-1], len(blob)):
        path.write_bytes(blob[:cut])
        resumed = run_splice_experiment(
            fs, config, journal=ShardJournal(path), resume=True
        )
        assert resumed.counters.to_json() == clean_counters.to_json(), cut
        assert not path.exists()
