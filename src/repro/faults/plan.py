"""Deterministic, seedable fault plans.

A :class:`FaultPlan` is a *pure function* from operation coordinates to
fault decisions.  Store operations are addressed by ``(op, n)`` — the
n-th ``get``/``put``/``delete`` the plan sees — and worker jobs by
``(job_index, attempt)``.  Every decision is derived by hashing the
seed with those coordinates (no shared mutable RNG stream), so:

* two plans built from the same seed inject the **exact same fault
  sequence** when driven through the same operations — the replay
  property the chaos CLI and test suite assert;
* a decision re-queried after a pool respawn returns the same answer
  (worker decisions are memoized, logged once);
* injection is bounded: ``max_faults`` caps the schedule, and worker
  faults stop after ``max_faulty_attempts`` attempts per job so the
  supervisor's retry ladder always converges.

This mirrors the fault-injection methodology of Jepsen-style checkers:
the fault schedule is part of the experiment's identity, reproducible
from a seed, and logged so a failing run can be replayed exactly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

__all__ = [
    "KIND_TO_OP",
    "NAMED_PLANS",
    "FaultEvent",
    "FaultPlan",
    "named_plan",
    "plan_names",
]

#: Store fault kind -> the store operation it applies to.
KIND_TO_OP = {
    "bitflip": "get",     # flip one bit in the frame as it is read
    "truncate": "get",    # drop the frame's tail (torn read)
    "eio": "get",         # OSError(EIO) from the read path
    "enospc": "put",      # OSError(ENOSPC): disk full
    "erofs": "put",       # OSError(EROFS): filesystem went read-only
    "torn": "put",        # persist only a prefix of the frame
    "enoent": "delete",   # concurrent eviction won the race
    # Network-style read faults (the store behaving like a flaky link):
    "connreset": "get",   # connection reset mid-transfer
    "conntimeout": "get", # request exceeded its deadline
    "slowread": "get",    # the bytes arrive, but late (latency spike)
    "stale": "get",       # an old frame; a local store has only the newest
}

#: Worker fault kinds the injector's shim understands.  The ``sigint``
#: and ``sigterm`` kinds deliver the named signal to the executing
#: process and then *run the shard normally* — under a sequential
#: sweep the parent's :class:`repro.core.checkpoint.SweepController`
#: handler catches it and the sweep stops, checkpointed, at the next
#: shard boundary (the deterministic interrupt used by the resume
#: tests).
WORKER_KINDS = ("crash", "raise", "stall", "kill", "sigint", "sigterm")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: where it fired and what it was."""

    op: str      # "store.get" / "store.put" / "store.delete" / "worker"
    index: int   # n-th store op of that kind, or the worker job index
    kind: str    # a KIND_TO_OP key or a WORKER_KINDS entry

    def as_tuple(self):
        return (self.op, self.index, self.kind)


class FaultPlan:
    """A seeded, bounded, replayable fault schedule.

    ``store_rates`` / ``worker_rates`` map fault kinds to injection
    probabilities; ``worker_script`` pins a kind to a specific job
    index (first attempt only) for surgical tests such as "kill the
    run at exactly the k-th shard boundary".
    """

    def __init__(
        self,
        seed=0,
        *,
        store_rates=None,
        worker_rates=None,
        worker_script=None,
        max_faults=256,
        max_faulty_attempts=1,
        stall_seconds=1.5,
        slow_seconds=0.05,
        shard_timeout=None,
        channel=None,
        name="custom",
    ):
        self.seed = int(seed)
        self.name = name
        self.store_rates = dict(store_rates or {})
        self.worker_rates = dict(worker_rates or {})
        self.worker_script = dict(worker_script or {})
        self.max_faults = max_faults
        self.max_faulty_attempts = max_faulty_attempts
        self.stall_seconds = stall_seconds
        #: delay injected by the ``slowread`` kind (latency, not loss).
        self.slow_seconds = slow_seconds
        #: suggested SupervisedPool per-shard timeout (set by plans
        #: that inject stalls; None disables the timeout rung).
        self.shard_timeout = shard_timeout
        #: name of a :data:`repro.channel.plan.NAMED_CHANNEL_PLANS`
        #: entry pairing this fault diet with a link regime; the chaos
        #: CLI runs its channel replay-determinism check against it.
        self.channel = channel
        unknown = {
            kind for kind in self.store_rates if kind not in KIND_TO_OP
        } | {
            kind for kind in self.worker_rates if kind not in WORKER_KINDS
        } | {
            kind for kind in self.worker_script.values()
            if kind not in WORKER_KINDS
        }
        if unknown:
            raise ValueError("unknown fault kinds: %s" % ", ".join(sorted(unknown)))
        #: every injected fault, in decision order.
        self.log = []
        self._op_counts = {}
        self._worker_decisions = {}

    # -- deterministic randomness ------------------------------------------

    def _roll(self, *coords):
        """A uniform [0, 1) value, a pure function of seed + coords."""
        material = "|".join(str(c) for c in (self.seed,) + coords)
        digest = hashlib.sha256(material.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") / 2.0 ** 64

    def _budget_left(self):
        return len(self.log) < self.max_faults

    # -- decisions ----------------------------------------------------------

    def store_fault(self, op):
        """The fault kind for the next ``op`` operation, or None.

        Each call consumes one operation slot; the decision depends
        only on ``(seed, op, slot)``.
        """
        n = self._op_counts.get(op, 0)
        self._op_counts[op] = n + 1
        if not self._budget_left():
            return None
        candidates = sorted(
            kind for kind, kind_op in KIND_TO_OP.items()
            if kind_op == op and self.store_rates.get(kind)
        )
        for kind in candidates:
            if self._roll("store", op, n, kind) < self.store_rates[kind]:
                self.log.append(FaultEvent("store." + op, n, kind))
                return kind
        return None

    def worker_directive(self, job_index, attempt):
        """The fault directive for one job attempt, or None.

        ``attempt is None`` marks the supervisor's fault-free fallback
        rung and never faults; attempts past ``max_faulty_attempts``
        never fault either, so retries always converge.  Decisions are
        memoized per ``(job_index, attempt)`` (a pool respawn may
        legitimately re-ask) and logged exactly once.
        """
        if attempt is None or attempt >= self.max_faulty_attempts:
            return None
        key = (job_index, attempt)
        if key in self._worker_decisions:
            return self._worker_decisions[key]
        kind = None
        if self._budget_left():
            scripted = self.worker_script.get(job_index)
            if scripted is not None and attempt == 0:
                kind = scripted
            else:
                for candidate in sorted(self.worker_rates):
                    rate = self.worker_rates[candidate]
                    if self._roll("worker", job_index, attempt, candidate) < rate:
                        kind = candidate
                        break
        directive = None
        if kind is not None:
            param = self.stall_seconds if kind == "stall" else None
            directive = (kind, param)
            self.log.append(FaultEvent("worker", job_index, kind))
        self._worker_decisions[key] = directive
        return directive

    # -- replay / identity --------------------------------------------------

    def fingerprint(self):
        """Digest of the injected fault sequence (order-sensitive)."""
        h = hashlib.sha256()
        for event in self.log:
            h.update(("%s:%d:%s\n" % event.as_tuple()).encode("utf-8"))
        return h.hexdigest()[:16]

    def clone(self):
        """A fresh plan with identical parameters and no history."""
        return FaultPlan(
            self.seed,
            store_rates=self.store_rates,
            worker_rates=self.worker_rates,
            worker_script=self.worker_script,
            max_faults=self.max_faults,
            max_faulty_attempts=self.max_faulty_attempts,
            stall_seconds=self.stall_seconds,
            slow_seconds=self.slow_seconds,
            shard_timeout=self.shard_timeout,
            channel=self.channel,
            name=self.name,
        )

    def preview(self, store_ops=64, jobs=32, attempts=2):
        """Fingerprint of a synthetic drive over a fixed op grid.

        A pure function of the plan parameters: two plans preview
        identically iff they would inject identically — the cheap
        replay-determinism check the chaos CLI prints.
        """
        probe = self.clone()
        for op in ("get", "put", "delete"):
            for _ in range(store_ops):
                probe.store_fault(op)
        for job in range(jobs):
            for attempt in range(attempts):
                probe.worker_directive(job, attempt)
        return probe.fingerprint()

    def __repr__(self):
        return "FaultPlan(name=%r, seed=%d, injected=%d)" % (
            self.name, self.seed, len(self.log),
        )


#: Named plans for the ``repro-checksums chaos`` CLI and `make chaos`.
NAMED_PLANS = {
    # Storage rots underneath the sweep: read-side corruption only.
    "bitrot": dict(store_rates={"bitflip": 0.25, "truncate": 0.10}),
    # The disk fills up / remounts read-only mid-run.
    "full-disk": dict(store_rates={"enospc": 0.30, "erofs": 0.10}),
    # Workers crash, raise, and stall; the supervisor's whole ladder.
    "flaky-workers": dict(
        worker_rates={"crash": 0.15, "raise": 0.20, "stall": 0.05},
        stall_seconds=1.5,
        shard_timeout=0.5,
    ),
    # Store reads misbehaving like a flaky network: resets, timeouts,
    # latency spikes, stale serves.  The store guard retries or skips
    # each failed read and the shard is recomputed, bit-identically.
    "flaky-network": dict(
        store_rates={"connreset": 0.20, "conntimeout": 0.10,
                     "slowread": 0.15, "stale": 0.05},
        slow_seconds=0.02,
    ),
    # The store goes completely dark: every read and write errors, so
    # the store guard demotes the run to store-less mode; the counters
    # are unaffected.
    "replica-outage": dict(
        store_rates={"eio": 1.0, "erofs": 1.0},
        max_faults=1_000_000,
    ),
    # Burst-noisy link plus slow store reads: the channel regime where
    # clustered bit errors stress the checksums while the store limps.
    "bursty-link": dict(
        store_rates={"slowread": 0.05},
        slow_seconds=0.01,
        channel="bursty-link",
    ),
    # Cells arrive jittered, held back, duplicated; store reads time
    # out now and then.
    "reordering-link": dict(
        store_rates={"conntimeout": 0.05},
        channel="reordering-link",
    ),
    # A congested bounded queue overflowing (splice factory) while
    # store reads crawl.
    "congested-queue": dict(
        store_rates={"slowread": 0.10},
        slow_seconds=0.02,
        channel="congested-queue",
    ),
    # Everything at once (the default chaos diet).
    "monkey": dict(
        store_rates={"bitflip": 0.20, "truncate": 0.05,
                     "enospc": 0.12, "torn": 0.06},
        worker_rates={"crash": 0.08, "raise": 0.12},
    ),
}


def plan_names():
    """The named plans, sorted (CLI ``choices``)."""
    return sorted(NAMED_PLANS)


def named_plan(name, seed=0):
    """Instantiate a named plan with the given seed."""
    if name not in NAMED_PLANS:
        raise KeyError(
            "unknown fault plan %r; available: %s"
            % (name, ", ".join(plan_names()))
        )
    return FaultPlan(seed, name=name, **NAMED_PLANS[name])
