"""Multiplexer and filter backends: replicas, striping, read-only.

Mirrors the swh-objstorage multiplexer design with the paper's own
twist — the integrity trailer *is* the replica-selection signal:

* :class:`MultiplexBackend` — N replicas; writes go through to all of
  them, reads come from the first replica that serves a frame whose
  CRC trailer verifies.  A replica that errors (dead server, failing
  disk) or serves a corrupt frame is skipped with **one warning per
  replica** into the attached :class:`~repro.core.supervisor.RunHealth`
  — the sweep degrades to the healthy replicas and its results stay
  bit-identical;
* :class:`StripingBackend` — N children, each key owned by exactly one
  (hash striping), so a big artifact tree can spread over several
  roots while walks still see the union;
* :class:`ReadOnlyBackend` — a filter refusing writes and deletes with
  :class:`~repro.store.backends.base.ReadOnlyError` (an ``OSError``,
  so resilient layers and the store guard degrade instead of dying).

With a :class:`~repro.store.resilience.ResilienceController` attached
(the default for every multiplexer ``open_store_url`` builds), the
multiplexer stops merely *tolerating* bad replicas and starts
*managing* them: a per-replica circuit breaker quarantines a replica
after a threshold of consecutive failures (no more re-probing a dead
server on every read), ticks through an operation-counted cool-down,
probes it half-open, and reintegrates it on a verified probe; reads
that exceed the deterministic slow-read threshold are **hedged** to
the next healthy replica (first trailer-verifying response wins); and
when *every* replica is open-circuit, PUTs land in the local
:class:`~repro.store.spool.WriteSpool` for later idempotent replay
instead of demoting the sweep to store-less.
"""

from __future__ import annotations

import warnings

from repro.store.backends.base import Backend, ReadOnlyError
from repro.store.framing import IntegrityError, verify_frame
from repro.telemetry.core import current as _telemetry

__all__ = ["MultiplexBackend", "ReadOnlyBackend", "StripingBackend"]


class _Composite(Backend):
    """Shared plumbing for backends built out of child backends."""

    def __init__(self, backends, health=None):
        super().__init__()
        if not backends:
            raise ValueError("%s needs at least one child backend"
                             % type(self).__name__)
        self._children = list(backends)
        self.health = health
        self._warned = set()

    @property
    def children(self):
        return tuple(self._children)

    def attach_health(self, health):
        """Route degradation warnings into a run's health record."""
        self.health = health
        for child in self._children:
            if hasattr(child, "attach_health"):
                child.attach_health(health)

    def _warn(self, child, op, exc):
        """One warning per failing replica, into RunHealth and stderr."""
        self._record("errors")
        label = child.describe()
        note = "replica %s failing (%s during %s)" % (
            label, type(exc).__name__, op,
        )
        if label in self._warned:
            return
        self._warned.add(label)
        if self.health is not None:
            self.health.degrade(note)
        warnings.warn(
            "store multiplexer: %s; continuing on the remaining "
            "replica(s) — results are unaffected" % note,
            RuntimeWarning,
            stacklevel=4,
        )

    def close(self):
        for child in self._children:
            child.close()


class MultiplexBackend(_Composite):
    """Resilient N-replica multiplexer (read any verified, write all).

    ``resilience`` is an optional
    :class:`~repro.store.resilience.ResilienceController`; without one
    the multiplexer behaves exactly as it did before the breaker layer
    existed (every replica probed on every operation).  ``namespace``
    labels the spool partition this instance writes to.
    """

    kind = "multiplex"

    def __init__(self, backends, health=None, resilience=None,
                 namespace="default"):
        super().__init__(backends, health=health)
        self.resilience = resilience
        self.namespace = namespace

    def describe(self):
        return "multiplex(%s)" % ", ".join(
            child.describe() for child in self._children
        )

    def sub(self, namespace):
        derived = MultiplexBackend(
            [child.sub(namespace) for child in self._children],
            health=self.health,
            resilience=self.resilience,  # breakers shared across namespaces
            namespace=namespace,
        )
        return derived

    def attach_health(self, health):
        super().attach_health(health)
        if self.resilience is not None:
            self.resilience.attach_health(health)

    # -- resilience plumbing -------------------------------------------------

    def resilience_stats(self):
        """Breaker/spool state for ``cache stats`` and ``store scrub``."""
        if self.resilience is None:
            return None
        return self.resilience.stats()

    def drain_spool(self):
        """Replay spooled writes into the replicas; None without a spool."""
        if self.resilience is None or self.resilience.spool is None:
            return None
        from repro.store.spool import drain_spool

        return drain_spool(self, self.resilience.spool, health=self.health)

    def _note_spooled(self, exc):
        """First spooled write: one degradation note, one warning."""
        _telemetry().count("resilience.spool.engaged")
        controller = self.resilience
        if getattr(controller, "_spool_noted", False):
            return
        controller._spool_noted = True
        note = (
            "store outage: every replica unavailable (%s); writes are "
            "spooling locally to %s for later replay"
            % (type(exc).__name__ if exc is not None else "open circuits",
               controller.spool.describe())
        )
        if self.health is not None:
            self.health.degrade(note)
        warnings.warn(
            "store multiplexer: %s — results are unaffected" % note,
            RuntimeWarning,
            stacklevel=5,
        )

    def _read_one(self, child, breaker, key, threshold=None):
        """``(frame, elapsed)`` from one replica, breaker-accounted.

        A read slower than ``threshold`` is recorded as *slow* — not a
        success — so consecutive latency spikes accumulate toward the
        breaker's failure threshold exactly like hard errors do.
        """
        clock = self.resilience.clock
        started = clock.now()
        try:
            frame = child.get_frame(key)
            verify_frame(frame)  # skip replicas serving rotten bytes
        except KeyError:
            breaker.record_success()  # an authoritative answer
            raise
        except (OSError, IntegrityError) as exc:
            self._warn(child, "get", exc)
            breaker.record_failure(reason=type(exc).__name__)
            raise
        elapsed = clock.now() - started
        if threshold is not None and elapsed > threshold:
            breaker.record_slow()
        else:
            breaker.record_success()
        return frame, elapsed

    def _hedge(self, position, key):
        """The first verifying frame from a replica past ``position``."""
        telemetry = _telemetry()
        telemetry.count("resilience.hedge.fired")
        # Each iteration asks a *different* replica once — fan-out, not
        # a retry of one operation.  reprolint: disable=REP404
        for index in range(position + 1, len(self._children)):
            child = self._children[index]
            breaker = self.resilience.breaker_for(child, index)
            if not breaker.allow():
                continue
            try:
                frame, _ = self._read_one(child, breaker, key)
            except (KeyError, OSError, IntegrityError):
                continue
            telemetry.count("resilience.hedge.wins")
            return frame
        telemetry.count("resilience.hedge.losses")
        return None

    # -- hooks --------------------------------------------------------------

    def _get_frame(self, key):
        if self.resilience is None:
            return self._get_frame_legacy(key)
        controller = self.resilience
        controller.tick()
        last_error = None
        missing = 0
        attempted = 0
        for position, child in enumerate(self._children):
            breaker = controller.breaker_for(child, position)
            if not breaker.allow():
                continue  # quarantined: no re-probing a dead replica
            attempted += 1
            threshold = controller.hedge_threshold
            try:
                frame, elapsed = self._read_one(child, breaker, key,
                                                threshold)
            except KeyError:
                missing += 1
                continue
            except (OSError, IntegrityError) as exc:
                last_error = exc
                continue
            if threshold is not None and elapsed > threshold:
                # Late bytes (already counted against the replica):
                # race the next healthy one for a faster copy.
                hedged = self._hedge(position, key)
                if hedged is not None:
                    return hedged
            return frame
        if controller.spool is not None:
            try:
                return controller.spool.get(self.namespace, key)
            except (KeyError, IntegrityError):
                pass
        if missing or last_error is None:
            # An affirmed absence — or every replica quarantined with
            # nothing spooled: either way a miss, so the caller
            # recomputes (correct, and faster than a dead socket).
            if not attempted:
                _telemetry().count("resilience.mux.lockout")
            raise KeyError(key)
        raise last_error  # every reachable replica errored

    def _get_frame_legacy(self, key):
        last_error = None
        missing = 0
        for child in self._children:
            try:
                frame = child.get_frame(key)
                verify_frame(frame)  # skip replicas serving rotten bytes
                return frame
            except KeyError:
                missing += 1
            except (OSError, IntegrityError) as exc:
                self._warn(child, "get", exc)
                last_error = exc
        if missing or last_error is None:
            # At least one replica affirmed absence (or there was
            # nothing to ask): a miss, so the caller recomputes.
            raise KeyError(key)
        raise last_error  # every replica errored: the store is down

    def _put_frame(self, key, frame):
        controller = self.resilience
        if controller is not None:
            controller.tick()
        stored = 0
        last_error = None
        for position, child in enumerate(self._children):
            if controller is not None:
                breaker = controller.breaker_for(child, position)
                if not breaker.allow():
                    _telemetry().count("resilience.put.quarantined")
                    continue
            try:
                child.put_frame(key, frame)
                stored += 1
            except OSError as exc:
                self._warn(child, "put", exc)
                if controller is not None:
                    breaker.record_failure(reason=type(exc).__name__)
                last_error = exc
            else:
                if controller is not None:
                    breaker.record_success()
        if stored:
            if controller is not None and controller.spool is not None:
                # A direct write supersedes any spooled predecessor of
                # the same key: keyed values overwrite under a stable
                # key, and replaying a stale spooled copy at drain
                # time would roll this fresh write back.
                controller.spool.discard(self.namespace, key)
            return
        if controller is not None and controller.spool is not None:
            # Degraded mode: the write lands locally, trailer and all,
            # and is replayed idempotently once a replica heals.
            controller.spool.put(self.namespace, key, frame)
            self._note_spooled(last_error)
            return
        if last_error is not None:
            raise last_error
        if controller is not None and self._children:
            raise OSError(
                "every replica of %s is open-circuit and no spool is "
                "configured" % self.describe()
            )

    def _delete(self, key):
        deleted = False
        for position, child in enumerate(self._children):
            if not self._admits(child, position):
                continue
            try:
                deleted = child.delete(key) or deleted
            except OSError as exc:
                self._warn(child, "delete", exc)
        return deleted

    def _contains(self, key):
        for position, child in enumerate(self._children):
            if not self._admits(child, position):
                continue
            try:
                if child.contains(key):
                    return True
            except OSError as exc:
                self._warn(child, "contains", exc)
        if self.resilience is not None and self.resilience.spool is not None:
            try:
                self.resilience.spool.get(self.namespace, key)
            except (KeyError, IntegrityError):
                return False
            return True
        return False

    def _admits(self, child, index):
        """Quarantine filter for the non-read/write operations.

        Peeks at the breaker *state* without consuming a half-open
        probe slot — probes are spent on reads and writes, where an
        outcome meaningfully exercises the replica.
        """
        if self.resilience is None:
            return True
        breaker = self.resilience.breaker_for(child, index)
        return breaker.state != "open"

    def _keys(self):
        union = set()
        for position, child in enumerate(self._children):
            if not self._admits(child, position):
                continue
            try:
                union.update(child.keys())
            except OSError as exc:
                self._warn(child, "keys", exc)
        return iter(sorted(union))

    def _size(self, key):
        for position, child in enumerate(self._children):
            if not self._admits(child, position):
                continue
            try:
                return child.size(key)
            except KeyError:
                continue
            except OSError as exc:
                self._warn(child, "size", exc)
        raise KeyError(key)


class StripingBackend(_Composite):
    """Each key lives on exactly one child (deterministic hash stripe)."""

    kind = "striping"

    def describe(self):
        return "stripe(%s)" % ", ".join(
            child.describe() for child in self._children
        )

    def sub(self, namespace):
        return StripingBackend(
            [child.sub(namespace) for child in self._children],
            health=self.health,
        )

    def _owner(self, key):
        # Keys are hex, uniformly distributed (digests), so a prefix
        # slice stripes evenly and deterministically.
        return self._children[int(key[:8], 16) % len(self._children)]

    # -- hooks --------------------------------------------------------------

    def _get_frame(self, key):
        return self._owner(key).get_frame(key)

    def _put_frame(self, key, frame):
        self._owner(key).put_frame(key, frame)

    def _delete(self, key):
        return self._owner(key).delete(key)

    def _contains(self, key):
        return self._owner(key).contains(key)

    def _keys(self):
        union = set()
        for child in self._children:
            union.update(child.keys())
        return iter(sorted(union))

    def _size(self, key):
        return self._owner(key).size(key)


class ReadOnlyBackend(Backend):
    """Filter: reads delegate, writes and deletes are refused."""

    kind = "readonly"

    def __init__(self, inner):
        super().__init__()
        self.inner = inner

    @property
    def children(self):
        return (self.inner,)

    def attach_health(self, health):
        if hasattr(self.inner, "attach_health"):
            self.inner.attach_health(health)

    def describe(self):
        return "readonly(%s)" % self.inner.describe()

    def sub(self, namespace):
        return ReadOnlyBackend(self.inner.sub(namespace))

    def close(self):
        self.inner.close()

    # Writes are refused before any counting happens.
    def put_frame(self, key, frame, overwrite=True):
        raise ReadOnlyError(
            "backend %s is read-only (refusing put of %s)"
            % (self.describe(), key)
        )

    def delete(self, key):
        raise ReadOnlyError(
            "backend %s is read-only (refusing delete of %s)"
            % (self.describe(), key)
        )

    # -- hooks --------------------------------------------------------------

    def _get_frame(self, key):
        return self.inner.get_frame(key)

    def _contains(self, key):
        return self.inner.contains(key)

    def _keys(self):
        return iter(self.inner.keys())

    def _size(self, key):
        return self.inner.size(key)
