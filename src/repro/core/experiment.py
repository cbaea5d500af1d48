"""Drive a splice engine over a whole (synthetic) filesystem.

This reproduces the paper's outer loop: "our test program simulated a
file transfer with FTP of all files on a file system ... and examined
all possible splices of two adjacent TCP segments".

The engine and the packetizer (and with them NumPy) are imported with
the pool that computes shards (:mod:`repro.core.shard`), so a sweep
whose shards all come from the store never loads them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.checkpoint import current_controller
from repro.core.options import EngineOptions
from repro.core.results import SpliceCounters
from repro.core.supervisor import RunHealth, SupervisedPool
from repro.protocols.config import PacketizerConfig
from repro.telemetry.core import current as _telemetry

__all__ = [
    "SpliceExperimentResult",
    "run_per_file_experiment",
    "run_splice_experiment",
]


@dataclass
class SpliceExperimentResult:
    """The outcome of one filesystem x configuration splice run."""

    filesystem: str
    config: PacketizerConfig
    options: EngineOptions
    counters: SpliceCounters = field(default_factory=SpliceCounters)
    #: supervision record for the run (clean runs stay uneventful).
    health: RunHealth = field(default_factory=RunHealth)

    @property
    def algorithm_label(self):
        placement = self.config.placement.value
        if self.config.algorithm == "tcp" and placement == "trailer":
            return "tcp-trailer"
        if self.config.algorithm == "tcp":
            return "tcp"
        return self.config.algorithm


def run_per_file_experiment(filesystem, config=None, options=None, max_files=None):
    """Per-file splice counters (Section 5.5's locality-of-failure view).

    The paper observed "sharp spikes in the rate of undetected
    splices, at the level of individual directories or even files".
    Returns ``[(file, SpliceCounters), ...]`` so callers can rank files
    by their contribution to the miss count.
    """
    from repro.core.engine import SpliceEngine
    from repro.protocols.ftpsim import FileTransferSimulator

    config = config or PacketizerConfig()
    options = options or EngineOptions.from_packetizer(config)
    simulator = FileTransferSimulator(config)
    engine = SpliceEngine(options)
    results = []
    for index, file in enumerate(filesystem):
        if max_files is not None and index >= max_files:
            break
        counters = engine.evaluate_stream(simulator.wire(file.data))
        counters.files = 1
        results.append((file, counters))
    return results


def _make_pool(workers, health, faults, shard_timeout=None):
    """A :class:`SupervisedPool` for splice shards, optionally chaotic.

    With ``faults`` (a :class:`repro.faults.FaultPlan`), jobs route
    through the worker shim and each submission is paired with its
    scheduled fault directive.  The supervisor's per-shard timeout rung
    is armed by, in precedence order: the explicit ``shard_timeout``
    argument (the CLI's ``--shard-timeout``), the ambient
    :class:`~repro.core.checkpoint.SweepController`'s value, then the
    fault plan's suggestion.  Building one imports the engine
    (:mod:`repro.core.shard`), so callers build a pool only for a sweep
    with shards to compute.
    """
    from repro.core.shard import file_counters

    function = file_counters
    prepare = None
    timeout = shard_timeout
    if timeout is None:
        timeout = current_controller().shard_timeout
    if faults is not None:
        from repro.faults.injector import shim_file_counters, worker_prepare

        function = shim_file_counters
        prepare = worker_prepare(faults, health)
        if timeout is None:
            timeout = faults.shard_timeout
    return SupervisedPool(
        function, workers, health=health, prepare=prepare, timeout=timeout
    )


def _check_stop(controller, health, telemetry, done, total, journal=None):
    """Poll the sweep controller at a shard boundary.

    Returns False to keep dispatching.  On a pending **signal** the
    journal is flushed and :class:`~repro.core.checkpoint.SweepInterrupted`
    is raised — the state on disk is exactly "``done`` of ``total``
    shards checkpointed".  On an expired **deadline** the sweep is
    marked ``degraded: deadline`` in its :class:`RunHealth` (riding
    into report JSON/markdown footnotes) and True is returned so the
    caller stops dispatching and merges the partial result.
    """
    reason = controller.stop_reason()
    if reason is None:
        return False
    if journal is not None:
        journal.flush()
    telemetry.count("checkpoint.interrupts")
    if reason == "signal":
        controller.interrupt(done, total)  # raises SweepInterrupted
    health.interrupted = "deadline"
    health.degrade(
        "deadline exceeded: stopped at shard %d/%d; results are partial"
        % (done, total)
    )
    controller.deadline_fired = True
    return True


def run_splice_experiment(
    filesystem,
    config=None,
    options=None,
    max_files=None,
    workers=None,
    store=None,
    health=None,
    faults=None,
    journal=None,
    resume=None,
    shard_timeout=None,
):
    """Run the paper's splice simulation over ``filesystem``.

    ``config`` is the :class:`PacketizerConfig` controlling how files
    are packetized (algorithm, placement, ablations); ``options``
    overrides the engine's judging options (derived from ``config`` by
    default); ``max_files`` truncates the filesystem for quick runs.
    Files are independent, so ``workers > 1`` fans them out over a
    **supervised** process pool for large corpora: failed shards are
    retried with backoff, broken pools are respawned, and stubborn
    shards fall back to in-process execution — results are identical
    either way because every shard is a pure function of its bytes.

    ``store`` (a :class:`repro.store.runner.RunStore`) makes the run
    resumable and cached: per-file shards are persisted with integrity
    trailers, completed shards are reused instead of recomputed, and
    corrupt shards are evicted and recomputed — counters come out
    bit-identical to a direct run.  Store I/O failures mid-run demote
    the sweep to store-less computation instead of crashing it.

    ``health`` (a :class:`repro.core.supervisor.RunHealth`) accumulates
    the supervision record (a fresh one is created otherwise and
    attached to the result); ``faults`` (a
    :class:`repro.faults.FaultPlan`) injects a deterministic fault
    schedule — used by ``repro-checksums chaos`` and the chaos tests.

    ``journal`` (a :class:`repro.store.journal.ShardJournal`) makes the
    sweep **interruptible**: every completed shard is checkpointed
    once (its shard object when ``store`` kept it, else a journal
    record), a signal stops the run at a shard boundary with
    :class:`~repro.core.checkpoint.SweepInterrupted`, and ``resume``
    merges a fingerprint-matching journal so the resumed run is
    bit-identical to an uninterrupted one.  Both default to the
    ambient :func:`~repro.core.checkpoint.current_controller` (the
    CLI's ``--journal``/``--resume``), as does ``shard_timeout``.
    """
    config = config or PacketizerConfig()
    options = options or EngineOptions.from_packetizer(config)
    health = health if health is not None else RunHealth()
    telemetry = _telemetry()
    controller = current_controller()
    if resume is None:
        resume = controller.resume

    files = list(filesystem)
    if max_files is not None:
        files = files[:max_files]

    name = getattr(filesystem, "name", "<anonymous>")
    if journal is None and controller.journal_dir is not None:
        from repro.store.journal import ShardJournal, journal_path

        journal = ShardJournal(
            journal_path(controller.journal_dir, name, config)
        )
    telemetry.gauge("experiment.workers", workers or 1)
    if store is not None or journal is not None:
        from repro.store.runner import run_sharded_splice

        with telemetry.span("experiment.sharded_run"):
            counters = run_sharded_splice(
                files, config, options, store,
                workers=workers, filesystem_name=name,
                health=health, faults=faults,
                journal=journal, resume=resume,
                shard_timeout=shard_timeout,
            )
        counters.sanity_check()
        return SpliceExperimentResult(
            filesystem=name, config=config, options=options,
            counters=counters, health=health,
        )

    counters = SpliceCounters()
    pool = _make_pool(workers, health, faults, shard_timeout)
    jobs = [(file.data, config, options) for file in files]
    with telemetry.span("experiment.run"):
        last = time.perf_counter()
        done = 0
        if not _check_stop(controller, health, telemetry, done, len(jobs)):
            for index, part in pool.run(jobs):
                now = time.perf_counter()
                _account_shard(telemetry, part, len(jobs[index][0]), now - last)
                last = now
                counters += part
                done += 1
                if _check_stop(
                    controller, health, telemetry, done, len(jobs)
                ):
                    break
    counters.sanity_check()
    return SpliceExperimentResult(
        filesystem=name,
        config=config,
        options=options,
        counters=counters,
        health=health,
    )


def _account_shard(telemetry, counters, nbytes, elapsed):
    """Parent-side accounting for one resolved shard.

    Counter/meter *amounts* come from the returned counters, so totals
    are bit-identical across ``--workers`` settings; only the elapsed
    seconds (and hence derived rates) depend on the execution layout.
    """
    telemetry.count("splice.files", counters.files or 1)
    telemetry.count("splice.packets", counters.packets)
    telemetry.count("splice.splices", counters.total)
    telemetry.count("splice.missed_transport", counters.missed_transport)
    telemetry.meter("splice.splices_rate", counters.total, elapsed)
    telemetry.meter("splice.bytes_rate", nbytes, elapsed)
    telemetry.observe("experiment.shard_seconds", elapsed)
