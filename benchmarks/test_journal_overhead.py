"""The sweep-journal overhead guarantee on the splice hot path.

The crash-safety contract (docs/architecture.md, "Crash safety &
resume"): journaling a store-less sweep — one record per drained shard,
the first creating the file whole through ``atomic_write`` and every
later one appended and fsynced through ``durable_append`` — costs
**under 3% of the sweep's wall time** on a compute-dominated corpus.
(With a store that keeps every shard the journal is never written.)
Three measurements back the number:

* the *honest* one asserts it: the cost of recording a realistically
  sized shard record (a shard key and a full set of counters, framed
  and fsynced) once per shard, over the measured journal-free sweep
  time, on four 120-150 kB files;
* the same honest cost on a table-sized corpus (``nsc05`` at 200 kB,
  12 files), printed, not asserted: its shards compute in a few
  milliseconds each, so there the per-shard write is a far larger
  share;
* the *end-to-end* one prints the observed delta between a journaled
  and an unjournaled sweep for the first corpus, as a sanity
  cross-check (not asserted — wall-clock deltas of a few ms flake on
  loaded machines).

Not part of the tier-1 suite (``testpaths = ["tests"]``); run with
``pytest benchmarks/test_journal_overhead.py -s`` or ``make bench``.
"""

from __future__ import annotations

import time

from repro.core.experiment import run_splice_experiment
from repro.corpus.profiles import build_filesystem
from repro.protocols.packetizer import PacketizerConfig
from repro.store.journal import ShardJournal
from tests.conftest import make_filesystem

#: The advertised ceiling, with margin below it so the assertion does
#: not flake when fsync is slow on a loaded machine.
JOURNAL_PCT_LIMIT = 3.0

#: Per-file sizes chosen so splice compute dominates.  They were picked
#: when a sweep over them took a couple of seconds; the batch engine
#: now sweeps them in about 0.07 s, so a disk whose fsync takes a
#: millisecond or more breaks the bound (docs/architecture.md).
KINDS = [
    ("english", 150_000),
    ("gmon", 120_000),
    ("c-source", 150_000),
    ("zero-heavy", 120_000),
]


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _honest_cost(fs, path):
    """``(clean, sweep seconds, journal seconds, shards)`` for ``fs``.

    The journal seconds record a realistic shard payload once per
    shard, exactly as a live store-less sweep does.
    """
    config = PacketizerConfig()
    run_splice_experiment(fs, config)  # warm-up: imports, corpus bytes
    clean, t_sweep = _timed(lambda: run_splice_experiment(fs, config))
    shards = len(list(fs))
    journal = ShardJournal(path)
    journal.open_run("fp-bench", label=fs.name, total=shards)
    t_records = 0.0
    for index in range(shards):
        _, dt = _timed(
            lambda i=index: journal.record("shard-%d" % i, clean.counters)
        )
        t_records += dt
    journal.complete()
    return clean, t_sweep, t_records, shards


def test_journal_overhead_under_three_percent(tmp_path):
    fs = make_filesystem(KINDS, seed=11, name="journalbench")
    clean, t_sweep, t_records, shards = _honest_cost(
        fs, tmp_path / "bench.journal"
    )
    pct = 100.0 * t_records / t_sweep

    # End-to-end cross-check (printed, not asserted).
    e2e_journal = ShardJournal(tmp_path / "e2e.journal")
    _, t_journaled = _timed(lambda: run_splice_experiment(
        fs, PacketizerConfig(), journal=e2e_journal
    ))
    e2e_pct = 100.0 * (t_journaled - t_sweep) / t_sweep

    print(
        "\njournal overhead: %.3f%% honest (%d records, %.1f ms over a "
        "%.2f s sweep) / %+.1f%% end-to-end delta"
        % (pct, shards, t_records * 1e3, t_sweep, e2e_pct)
    )
    assert pct < JOURNAL_PCT_LIMIT
    # Sanity: the measurement saw real work on both sides.
    assert clean.counters.total > 0
    assert t_records > 0.0


def test_journal_overhead_on_a_table_sized_corpus(tmp_path):
    """Printed, not asserted: the honest cost where shards are small."""
    fs = build_filesystem("nsc05", 200_000, 3)
    clean, t_sweep, t_records, shards = _honest_cost(
        fs, tmp_path / "table.journal"
    )
    print(
        "\njournal overhead, table-sized corpus (nsc05, 200 kB): %.2f%% "
        "honest (%d records, %.1f ms over a %.3f s sweep)"
        % (100.0 * t_records / t_sweep, shards, t_records * 1e3, t_sweep)
    )
    assert clean.counters.total > 0
    assert t_records > 0.0


def test_journal_stays_deleted_after_a_clean_benchmark_run(tmp_path):
    """A completed journaled sweep leaves no checkpoint behind."""
    fs = make_filesystem([("english", 30_000)], seed=11, name="journalbench")
    journal = ShardJournal(tmp_path / "clean.journal")
    run_splice_experiment(fs, PacketizerConfig(), journal=journal)
    assert not journal.exists()
