"""Fault injection: wrap object stores and pool workers in scheduled harm.

Two injection surfaces, both driven by a :class:`repro.faults.plan.FaultPlan`:

* :class:`FaultyObjectStore` wraps any :class:`repro.store.objstore.ObjectStore`
  and injects **read-side** corruption (bit flips, torn reads, EIO),
  network-style read failures (connection resets, timeouts, slow and
  stale reads), **write-side** failures (ENOSPC, EROFS, torn writes),
  and eviction races — without ever touching the intact bytes on disk
  for read faults, so a retry sees the true object;
* :func:`shim_file_counters` is a picklable pool-worker shim that
  executes one splice shard under a fault *directive* decided by the
  parent (crash the process, raise, stall, or simulate a kill).

The injected faults are exactly the ones the robustness layer claims
to survive: a sweep run under a plan must finish with counters
bit-identical to a clean run — the repo dogfooding the paper's
detect-and-survive thesis.
"""

from __future__ import annotations

import errno
import multiprocessing
import os
import signal
import time

from repro.store.objstore import atomic_write, frame_object, unframe_object

__all__ = [
    "FaultInjected",
    "FaultyObjectStore",
    "SimulatedCrash",
    "shim_file_counters",
    "worker_prepare",
    "wrap_run_store",
]


class FaultInjected(RuntimeError):
    """An injected worker failure (the 'raise' and 'stall' kinds)."""


class SimulatedCrash(BaseException):
    """A simulated ``kill -9`` of the whole run.

    Derives from :class:`BaseException` so that *no* rung of the
    degradation ladder absorbs it — exactly like a real SIGKILL, it
    terminates the run mid-flight, leaving whatever the store has
    checkpointed.  Crash-consistency tests resume from that state.
    """


# ---------------------------------------------------------------------------
# store-side injection
# ---------------------------------------------------------------------------


class FaultyObjectStore:
    """An :class:`ObjectStore` proxy that injects faults per a plan.

    Read faults corrupt the bytes *in flight* (the on-disk object stays
    intact), so the integrity trailer rejects them and the caller's
    evict-and-recompute path engages; write faults either raise
    ``OSError`` (ENOSPC/EROFS) or tear the frame so a later read
    detects it.  Everything not overridden delegates to the wrapped
    store.
    """

    def __init__(self, inner, plan, health=None):
        self.inner = inner
        self.plan = plan
        self.health = health

    def __getattr__(self, name):
        return getattr(self.inner, name)

    # Dunders bypass __getattr__; delegate the container protocol
    # explicitly so audit/statistics code sees the wrapped store.
    def __contains__(self, digest):
        return digest in self.inner

    def __iter__(self):
        return iter(self.inner)

    def __len__(self):
        return len(self.inner)

    def _injected(self, op):
        kind = self.plan.store_fault(op)
        if kind is not None and self.health is not None:
            self.health.faults_injected += 1
        return kind

    # -- read ---------------------------------------------------------------

    def get(self, digest, verify=True):
        kind = self._injected("get")
        if kind == "eio":
            # Name the object, not its path: the store guard quotes this
            # error in RunHealth notes, which must not depend on the root.
            raise OSError(errno.EIO, "injected I/O error", digest)
        if kind == "connreset":
            raise ConnectionResetError(
                errno.ECONNRESET, "injected: connection reset by peer"
            )
        if kind == "conntimeout":
            raise OSError(errno.ETIMEDOUT, "injected: request timed out")
        if kind == "slowread":
            time.sleep(self.plan.slow_seconds)  # late bytes, not lost ones
        if kind in ("bitflip", "truncate"):
            path = self.inner.path_for(digest)
            try:
                blob = path.read_bytes()
            except FileNotFoundError:
                raise KeyError(digest) from None
            if kind == "bitflip":
                corrupted = bytearray(blob)
                corrupted[len(corrupted) // 2] ^= 0x10
                blob = bytes(corrupted)
            else:
                blob = blob[: max(0, len(blob) - 5)]
            payload, _ = unframe_object(blob, verify=verify)  # IntegrityError
            return payload
        # ``slowread`` and ``stale`` read the true frame: a local store
        # has no older frame to serve, the one it has *is* the newest.
        return self.inner.get(digest, verify=verify)

    # -- write --------------------------------------------------------------

    def put_keyed(self, key, payload, overwrite=True):
        kind = self._injected("put")
        if kind == "enospc":
            raise OSError(errno.ENOSPC, "injected: no space left on device")
        if kind == "erofs":
            raise OSError(errno.EROFS, "injected: read-only file system")
        if kind == "torn":
            # A torn write: only a prefix of the frame reaches disk.
            # The write "succeeds"; the integrity trailer catches it on
            # the next read, which evicts and recomputes.
            path = self.inner.path_for(key)
            blob = frame_object(bytes(payload), self.inner.algorithm)
            atomic_write(path, blob[: max(1, (len(blob) * 3) // 5)])
            return key
        return self.inner.put_keyed(key, payload, overwrite=overwrite)

    def put(self, payload):
        digest = self.inner.address(payload)
        self.put_keyed(digest, payload, overwrite=False)
        return digest

    # -- maintenance --------------------------------------------------------

    def delete(self, digest):
        if self._injected("delete") == "enoent":
            # A concurrent evictor won the race; deletion is idempotent.
            return False
        return self.inner.delete(digest)


def wrap_run_store(store, plan, health=None):
    """Wrap every namespace of a ``RunStore`` with fault injection.

    Mutates ``store`` in place (its facade object survives) and
    returns it.
    """
    store.objects = FaultyObjectStore(store.objects, plan, health)
    store.results.store = FaultyObjectStore(store.results.store, plan, health)
    store.shards.store = FaultyObjectStore(store.shards.store, plan, health)
    store.corpora.store = FaultyObjectStore(store.corpora.store, plan, health)
    return store


# ---------------------------------------------------------------------------
# worker-side injection
# ---------------------------------------------------------------------------


def apply_directive(directive):
    """Execute one fault directive (or none) in the current process."""
    if not directive:
        return
    kind, param = directive
    if kind == "crash":
        if multiprocessing.parent_process() is None:
            # In the parent (sequential run): a hard exit would kill
            # the whole run, so degrade the crash to an exception the
            # retry ladder handles the same way.
            raise FaultInjected("injected crash (in-process: raised instead)")
        os._exit(13)  # a pool worker dying without cleanup
    if kind == "kill":
        raise SimulatedCrash("simulated kill at a shard boundary")
    if kind in ("sigint", "sigterm"):
        # Deliver the real signal to this process, then compute the
        # shard normally: under a sequential sweep the parent's
        # SweepController handler absorbs it and the run stops —
        # checkpointed — at the next shard boundary.  (In a pool
        # worker the default handler kills the worker instead; the
        # supervisor's ladder treats that as an ordinary crash.)
        signum = getattr(signal, kind.upper(), None)
        if signum is not None:  # pragma: no branch - POSIX always has both
            os.kill(os.getpid(), signum)
        return
    if kind == "raise":
        raise FaultInjected("injected worker exception")
    if kind == "stall":
        time.sleep(param if param else 1.0)
        raise FaultInjected("stalled worker gave up after %.1fs" % (param or 1.0))
    raise ValueError("unknown worker fault directive %r" % (kind,))


def shim_file_counters(payload):
    """Pool worker: one splice shard under a fault directive.

    ``payload`` is ``(directive, args)`` where ``args`` is exactly what
    :func:`repro.core.shard.file_counters` takes.  The directive
    fires *before* the computation, so a faulted attempt never returns
    a partial result — faults cost time, never correctness.
    """
    directive, args = payload
    apply_directive(directive)
    from repro.core.shard import file_counters

    return file_counters(args)


def worker_prepare(plan, health=None):
    """A ``SupervisedPool`` ``prepare`` hook pairing jobs with directives.

    Runs in the parent at submission time: the plan decides the fault
    for ``(job_index, attempt)`` there, so pool workers need no access
    to the plan.  ``attempt is None`` (the fault-free fallback rung)
    always yields a clean payload.
    """

    def prepare(index, attempt, job):
        before = len(plan.log)
        directive = plan.worker_directive(index, attempt)
        if health is not None:
            health.faults_injected += len(plan.log) - before
        return (directive, job)

    return prepare
