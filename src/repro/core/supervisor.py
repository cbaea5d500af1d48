"""Supervised process-pool execution: faults cost time, never results.

The paper's subject is surviving corruption on the wire; this module
extends the same discipline to the execution substrate.  A bare
``ProcessPoolExecutor.map`` dies with its weakest worker: one crashed
process, one ``BrokenProcessPool``, one stalled shard and an hours-long
sweep discards everything it computed.  :class:`SupervisedPool` runs
the same pure per-shard jobs under a **degradation ladder** instead:

1. **retry** — a failed job is resubmitted with exponential backoff
   plus deterministic jitter, up to ``max_retries`` attempts;
2. **pool respawn** — a broken pool (worker crash / lost process,
   whether a result or a submission reports it) or a per-shard timeout
   condemns the executor; it is shut down, a fresh one is spawned, and
   every unresolved job is requeued;
3. **in-process fallback** — a job that exhausts its retries (or
   outlives ``max_pool_restarts``) runs in the parent process, with
   fault injection disabled, so the sweep always completes;
4. a job that fails even in-process raises :class:`RunAborted` — the
   only rung that surrenders, reserved for genuine bugs.

Because every job is a pure function of its payload, a retried or
requeued shard recomputes *bit-identical* counters; supervision can
therefore never change a result, only the time it takes to produce.

Everything the ladder does is recorded in a :class:`RunHealth` record
(JSON round-trippable) that the experiment layer attaches to its
reports, so a sweep that survived twelve injected faults says so.

The process pool machinery (and with it :mod:`multiprocessing`) is
imported where the first pool spawns, so a serial sweep and every
holder of a :class:`RunHealth` -- the store, a warm ``--cache`` hit
-- never load it.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, fields

from repro.telemetry.core import current as _telemetry

__all__ = ["RunAborted", "RunHealth", "SupervisedPool"]

import json


class RunAborted(RuntimeError):
    """A job failed every rung of the degradation ladder.

    Raised only when the in-process, fault-free fallback itself fails —
    i.e. the job is genuinely broken, not merely unlucky.  The CLI
    turns this into a one-line diagnostic and a nonzero exit status.
    """


@dataclass
class RunHealth:
    """Structured account of everything supervision had to absorb.

    All counters are zero for a run that never misbehaved
    (:attr:`eventful` is then False and reports omit the record).
    """

    #: jobs resubmitted after an exception, crash, or timeout.
    retries: int = 0
    #: per-shard timeouts that condemned a pool.
    timeouts: int = 0
    #: ``BrokenProcessPool`` events observed (worker crashes).
    broken_pools: int = 0
    #: executors shut down and respawned.
    pool_restarts: int = 0
    #: jobs that completed via the in-process fallback rung.
    fallbacks: int = 0
    #: store read/write ``OSError``\ s absorbed by the runner.
    store_errors: int = 0
    #: corrupt cache entries evicted and recomputed during the run.
    evictions: int = 0
    #: faults injected by an attached :class:`repro.faults.FaultPlan`.
    faults_injected: int = 0
    #: corpus files skipped as unreadable during ingest.
    files_skipped: int = 0
    #: True once the run demoted itself to store-less computation.
    storeless: bool = False
    #: why the run stopped early (``"deadline"``, a signal name such as
    #: ``"SIGTERM"``), or ``""`` for a run that finished its sweep.
    interrupted: str = ""
    #: human-readable notes, one per degradation decision.
    degradations: list = field(default_factory=list)

    _INT_FIELDS = (
        "retries", "timeouts", "broken_pools", "pool_restarts",
        "fallbacks", "store_errors", "evictions", "faults_injected",
        "files_skipped",
    )

    @property
    def eventful(self):
        """True if supervision ever had to intervene."""
        return (
            any(getattr(self, name) for name in self._INT_FIELDS)
            or self.storeless
            or bool(self.interrupted)
            or bool(self.degradations)
        )

    def degrade(self, note):
        """Record one degradation decision (idempotent per note)."""
        if note not in self.degradations:
            self.degradations.append(note)

    def merge(self, other):
        """Fold another record into this one (e.g. across passes)."""
        for name in self._INT_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.storeless = self.storeless or other.storeless
        self.interrupted = self.interrupted or other.interrupted
        for note in other.degradations:
            self.degrade(note)
        return self

    # -- serialization (attached to ExperimentReport JSON) -----------------

    def to_dict(self):
        """A JSON-native dict; inverse of :meth:`from_dict`."""
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}

    @classmethod
    def from_dict(cls, payload):
        """Rebuild a record, rejecting unknown fields (schema drift)."""
        known = {spec.name for spec in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                "unknown RunHealth fields: %s" % ", ".join(sorted(unknown))
            )
        return cls(**payload)

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))

    def summary(self):
        """One line for reports: ``"2 retries, 1 pool restart, ..."``."""
        labels = [
            ("retries", "retry", "retries"),
            ("timeouts", "timeout", "timeouts"),
            ("broken_pools", "broken pool", "broken pools"),
            ("pool_restarts", "pool restart", "pool restarts"),
            ("fallbacks", "in-process fallback", "in-process fallbacks"),
            ("store_errors", "store error", "store errors"),
            ("evictions", "eviction", "evictions"),
            ("faults_injected", "fault injected", "faults injected"),
            ("files_skipped", "unreadable file skipped",
             "unreadable files skipped"),
        ]
        parts = []
        for name, singular, plural in labels:
            count = getattr(self, name)
            if count:
                parts.append("%d %s" % (count, singular if count == 1 else plural))
        if self.storeless:
            parts.append("store-less mode")
        if self.interrupted:
            parts.append("degraded: %s" % self.interrupted)
        return ", ".join(parts) if parts else "clean"

    def render(self):
        """Multi-line rendering for the chaos CLI."""
        lines = ["run health         %s" % self.summary()]
        for note in self.degradations:
            lines.append("  degradation      %s" % note)
        return "\n".join(lines)


def _identity_prepare(index, attempt, job):
    """Default ``prepare`` hook: the payload is the job itself."""
    return job


class SupervisedPool:
    """Run pure jobs across processes, surviving what the pool breaks.

    ``function`` must be a picklable module-level callable taking one
    payload argument; ``prepare(index, attempt, job)`` maps a job to
    the payload actually submitted (the fault-injection layer uses it
    to pair jobs with scheduled fault directives — ``attempt is None``
    marks the fault-free in-process fallback and MUST return a clean
    payload).  Results are bit-identical to ``map(function, jobs)``
    because jobs are pure and merging is order-independent.
    """

    def __init__(
        self,
        function,
        workers=None,
        *,
        health=None,
        max_retries=3,
        max_pool_restarts=3,
        timeout=None,
        backoff_base=0.05,
        backoff_cap=2.0,
        jitter_seed=0,
        prepare=None,
    ):
        self.function = function
        self.workers = int(workers or 0)
        self.health = health if health is not None else RunHealth()
        self.max_retries = max_retries
        self.max_pool_restarts = max_pool_restarts
        self.timeout = timeout
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.prepare = prepare if prepare is not None else _identity_prepare
        self._jitter = random.Random(jitter_seed)

    # -- public API --------------------------------------------------------

    def map(self, jobs):
        """Results in job order (list), however rough the ride was."""
        jobs = list(jobs)
        results = {}
        for index, result in self.run(jobs):
            results[index] = result
        return [results[index] for index in range(len(jobs))]

    def run(self, jobs):
        """Yield ``(index, result)`` pairs as jobs resolve.

        Callers that checkpoint per shard (the sharded runner) consume
        this incrementally; order within a generation follows
        submission order, retries resolve later.
        """
        jobs = list(jobs)
        if self.workers > 1 and len(jobs) > 1:
            yield from self._run_pool(jobs)
        else:
            for index, job in enumerate(jobs):
                yield index, self._run_local_primary(index, job)

    # -- local (sequential) execution --------------------------------------

    def _run_local_primary(self, index, job):
        """Sequential rung: same retry ladder, no pool."""
        for attempt in range(self.max_retries + 1):
            payload = self.prepare(index, attempt, job)
            try:
                return self.function(payload)
            except Exception:
                if attempt >= self.max_retries:
                    break
                self.health.retries += 1
                self._sleep(attempt)
        return self._fallback(index, job)

    def _fallback(self, index, job):
        """Bottom rung: in-process, fault-free, last chance."""
        self.health.fallbacks += 1
        telemetry = _telemetry()
        payload = self.prepare(index, None, job)
        try:
            with telemetry.span("supervisor.fallback"):
                return self.function(payload)
        except Exception as exc:
            raise RunAborted(
                "job %d failed after retries, pool restarts, and the "
                "in-process fallback: %s" % (index, exc)
            ) from exc

    def _sleep(self, attempt):
        delay = min(self.backoff_cap, self.backoff_base * (2 ** attempt))
        with _telemetry().span("supervisor.backoff"):
            time.sleep(delay * (0.5 + self._jitter.random()))

    # -- pooled execution ---------------------------------------------------

    def _run_pool(self, jobs):
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures import TimeoutError as _FutureTimeout
        from concurrent.futures.process import BrokenProcessPool

        results_seen = set()
        queue = [(index, 0) for index in range(len(jobs))]
        pool = None
        try:
            while queue:
                if self.health.pool_restarts > self.max_pool_restarts:
                    # The pool itself is hopeless; drain in-process.
                    self.health.degrade(
                        "pool restart budget exhausted; draining %d job(s) "
                        "in-process" % len(queue)
                    )
                    for index, _ in queue:
                        if index not in results_seen:
                            results_seen.add(index)
                            yield index, self._fallback(index, jobs[index])
                    queue = []
                    break
                if pool is None:
                    with _telemetry().span("supervisor.pool_spawn"):
                        pool = ProcessPoolExecutor(max_workers=self.workers)
                generation, queue = queue, []
                futures, unsubmitted = [], []
                for position, (index, attempt) in enumerate(generation):
                    try:
                        future = pool.submit(
                            self.function,
                            self.prepare(index, attempt, jobs[index]),
                        )
                    except BrokenProcessPool:
                        # A worker died while this generation was still
                        # being submitted: what was not submitted goes
                        # back at its current attempt, what was is
                        # judged below, and the pool is condemned.
                        self.health.broken_pools += 1
                        unsubmitted = generation[position:]
                        break
                    futures.append((future, index, attempt))
                condemned = False
                for future, index, attempt in futures:
                    if condemned:
                        # The pool is being replaced; requeue untouched.
                        queue.append((index, attempt))
                        continue
                    try:
                        result = future.result(timeout=self.timeout)
                    except (_FutureTimeout, BrokenProcessPool) as exc:
                        if isinstance(exc, BrokenProcessPool):
                            self.health.broken_pools += 1
                        else:
                            self.health.timeouts += 1
                        condemned = True
                        if attempt < self.max_retries:
                            self.health.retries += 1
                            queue.append((index, attempt + 1))
                        else:
                            results_seen.add(index)
                            yield index, self._fallback(index, jobs[index])
                    except Exception:
                        if attempt < self.max_retries:
                            self.health.retries += 1
                            self._sleep(attempt)
                            queue.append((index, attempt + 1))
                        else:
                            results_seen.add(index)
                            yield index, self._fallback(index, jobs[index])
                    else:
                        results_seen.add(index)
                        yield index, result
                queue.extend(unsubmitted)
                if condemned or unsubmitted:
                    with _telemetry().span("supervisor.pool_teardown"):
                        pool.shutdown(wait=False, cancel_futures=True)
                    pool = None
                    self.health.pool_restarts += 1
            if pool is not None:
                # Drained: join the idle workers and the manager thread,
                # so no pool thread outlives the sweep.
                pool.shutdown(wait=True)
                pool = None
        finally:
            if pool is not None:
                # An exception, or a caller that stopped consuming: a
                # stuck worker must not hang the run.
                pool.shutdown(wait=False, cancel_futures=True)
