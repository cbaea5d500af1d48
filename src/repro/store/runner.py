"""Resumable, cached, sharded splice runs under supervision.

The paper's headline numbers come from enumeration sweeps over whole
filesystems — hours of work at production corpus sizes.  Files are
independent, so the sweep shards naturally per file:

* each shard is keyed by the **content digest** of the file plus the
  packetizer/engine configuration (identical files share shards across
  profiles, sizes, and experiments);
* each computed shard costs exactly one durable write: its
  :class:`SpliceCounters` as an integrity-trailed shard object when
  the store keeps it, otherwise one record appended to the sweep's
  :class:`~repro.store.journal.ShardJournal`;
* a re-run (or a run interrupted and restarted) recomputes only the
  shards that neither the shard cache nor the journal serves, or
  whose stored bytes fail the integrity trailer — corrupt entries are
  evicted and recomputed, so corruption costs time, never correctness.

Execution goes through :class:`repro.core.supervisor.SupervisedPool`
(retry → pool respawn → in-process fallback), and store I/O goes
through a **degradation ladder** of its own: an ``OSError`` from the
cache root is retried once, a persistently failing store demotes the
run to store-less computation with a single warning, and every
intervention lands in the run's :class:`RunHealth` record.  A full
disk or a read-only cache can therefore never abort a sweep: a shard
the store did not keep is recorded in the sweep journal when one is
open, and otherwise costs only its own resumability.

``run_splice_experiment(..., store=RunStore(...))`` routes through
:func:`run_sharded_splice`; results are bit-identical to the direct
path because shard merge is a sum of per-file counters either way.
"""

from __future__ import annotations

import hashlib
import shutil
import time
import warnings
from pathlib import Path

from repro.core.results import SpliceCounters
from repro.core.supervisor import RunHealth
from repro.telemetry.core import current as _telemetry
from repro.store.cache import ResultCache
from repro.store.corpora import decode_corpus, encode_corpus
from repro.store.keys import SCHEMA_VERSION, corpus_key, digest_key, shard_key
from repro.store.objstore import DEFAULT_ALGORITHM, ObjectStore, default_root

__all__ = ["RunStore", "run_key_for", "run_sharded_splice"]

#: Directories older versions of the store kept under a local root
#: (write-only run manifests, a remote-outage write spool); nothing
#: reads them, and ``cache clear`` removes them.
RETIRED_DIRS = ("manifests", "spool")


class RunStore:
    """Facade bundling the artifact store's namespaces under one root.

    =============  =======================================================
    namespace      contents
    =============  =======================================================
    ``objects/``   content-addressed blobs (``put``/``get`` by SHA-256)
    ``results/``   experiment-level :class:`ExperimentReport` JSON
    ``shards/``    per-file :class:`SpliceCounters` JSON
    ``corpora/``   synthetic corpora (:mod:`repro.store.corpora`)
    =============  =======================================================

    Corpora get a namespace of their own rather than sharing
    ``results/``, whose every object is an experiment report.

    Every namespace frames its payloads with the same integrity-trailer
    algorithm (CRC-32/AAL5 unless overridden), so ``repro-checksums
    cache audit`` can verify the whole tree uniformly.
    """

    def __init__(self, root=None, algorithm=DEFAULT_ALGORITHM):
        self.root = Path(root) if root is not None else default_root()
        self.algorithm = algorithm

        def namespace(name):
            return ObjectStore(self.root / name, algorithm)

        self.objects = namespace("objects")
        self.results = ResultCache(namespace("results"))
        self.shards = ResultCache(namespace("shards"))
        self.corpora = ResultCache(namespace("corpora"))

    def describe(self):
        """Human-readable identity of the store: its root."""
        return str(self.root)

    @property
    def namespaces(self):
        """(name, ObjectStore) pairs, audit/statistics order."""
        return (
            ("objects", self.objects),
            ("results", self.results.store),
            ("shards", self.shards.store),
            ("corpora", self.corpora.store),
        )

    def filesystem(self, profile, total_bytes, seed):
        """``build_filesystem(profile, total_bytes, seed)``, kept in ``corpora/``.

        A verified stored copy is decoded without importing the corpus
        generators.  A miss, a payload that fails its trailer or does
        not decode (either is evicted), or an ``OSError`` builds the
        corpus and stores it, so a store problem costs at most a
        rebuild.
        """
        key = corpus_key(profile, total_bytes, seed)
        telemetry = _telemetry()
        try:
            filesystem = self.corpora.get_decoded(
                key, lambda payload: decode_corpus(profile, payload)
            )
        except OSError:
            filesystem = None
        if filesystem is not None:
            telemetry.count("store.corpus_hits")
            return filesystem
        from repro.corpus.profiles import build_filesystem

        filesystem = build_filesystem(profile, total_bytes, seed)
        telemetry.count("store.corpus_builds")
        try:
            self.corpora.put_bytes(key, encode_corpus(filesystem))
        except OSError:
            pass  # the next sweep rebuilds it
        return filesystem

    def stats(self):
        """Per-namespace object counts and byte totals."""
        out = {"root": str(self.root)}
        for name, store in self.namespaces:
            out[name] = store.stats()
        return out

    def clear(self):
        """Delete every stored object across all namespaces.

        The :data:`RETIRED_DIRS` under the root go too (their files
        count as removed objects); the sweep journal stays.
        """
        removed = sum(store.clear() for _, store in self.namespaces)
        for name in RETIRED_DIRS:
            retired = self.root / name
            if retired.is_dir():
                removed += sum(1 for path in retired.rglob("*")
                               if path.is_file())
                shutil.rmtree(retired)
        return removed


def run_key_for(filesystem_name, shard_keys):
    """The identity of one run (its journal fingerprint): its shard set."""
    return digest_key("splice-run", SCHEMA_VERSION, filesystem_name, shard_keys)


class _StoreGuard:
    """The store degradation ladder: retry, then go store-less.

    Every store operation the runner performs goes through
    :meth:`_attempt`: an ``OSError`` is added to the run's store-error
    ledger and the call is made once more.  A second failure skips the
    operation (the run keeps its in-memory counters, and a shard the
    store did not keep goes to the sweep journal).  Once
    :data:`DEMOTE_AFTER` errors have accumulated the guard demotes the
    whole run to store-less mode with a single warning — the store is
    no longer used, correctness is untouched.
    """

    #: Cumulative store errors after which the run goes store-less.
    DEMOTE_AFTER = 6

    def __init__(self, store, health):
        self.store = store
        self.health = health
        self.active = store is not None

    def _attempt(self, what, call, default=None):
        if not self.active:
            return default
        try:
            return call()
        except OSError:
            self.health.store_errors += 1
        try:
            return call()  # the one retry
        except OSError as exc:
            self.health.store_errors += 1
            if self.health.store_errors >= self.DEMOTE_AFTER:
                self._demote(what, exc)
            return default

    def _demote(self, what, exc):
        self.active = False
        self.health.storeless = True
        note = (
            "store-less mode after %d store errors (last: %s during %s)"
            % (self.health.store_errors, exc, what)
        )
        self.health.degrade(note)
        warnings.warn(
            "artifact store is failing (%s during %s); continuing without "
            "it — results are unaffected, and the rest of this run is "
            "resumable only through its sweep journal" % (exc, what),
            RuntimeWarning,
            stacklevel=4,
        )

    # -- guarded operations -------------------------------------------------

    def get_shard(self, key):
        """A verified cached shard, or None; evictions are counted."""
        before = self.store.shards.stats.corrupt if self.store else 0
        value = self._attempt(
            "shard read",
            lambda: self.store.shards.get_object(key, SpliceCounters.from_json),
        )
        if self.store is not None:
            self.health.evictions += self.store.shards.stats.corrupt - before
        return value

    def put_shard(self, key, counters):
        """Store one computed shard; True when it reached the store."""
        def put():
            self.store.shards.put_object(key, counters)
            return True

        return self._attempt("shard write", put, default=False)


def run_sharded_splice(
    files,
    config,
    options,
    store,
    workers=None,
    filesystem_name="<anonymous>",
    health=None,
    faults=None,
    journal=None,
    resume=False,
    shard_timeout=None,
):
    """Merge per-file splice counters, reusing every intact cached shard.

    ``files`` is the materialized file list (objects with ``.data``);
    returns the merged :class:`SpliceCounters`, bit-identical to the
    uncached path.  ``workers > 1`` fans *missing* shards over a
    supervised process pool; completed shards are loaded, never
    recomputed.  ``health`` accumulates the supervision record;
    ``faults`` threads a deterministic fault plan into the pool's
    worker shim (the store side is injected by wrapping ``store``).

    ``store`` may be None when only a ``journal`` (a
    :class:`repro.store.journal.ShardJournal`) is in play: the journal
    records every drained shard the store did not keep (all of them
    without a store), ``resume`` merges a fingerprint-matching
    journal's counters before dispatch, and the ambient
    :class:`~repro.core.checkpoint.SweepController` is polled
    at every shard boundary so a signal or an expired ``--deadline``
    stops the sweep cleanly — checkpointed, never torn.  The resumed
    merge follows the same deterministic first-seen key order, so a
    resumed run is bit-identical to an uninterrupted one at any
    ``workers`` width.
    """
    # Import here: core.experiment lazily imports this module, so the
    # pool construction is shared without a load-time cycle.
    from repro.core.checkpoint import current_controller
    from repro.core.experiment import _account_shard, _check_stop, _make_pool

    health = health if health is not None else RunHealth()
    telemetry = _telemetry()
    controller = current_controller()
    guard = _StoreGuard(store, health)

    shard_keys = [
        shard_key(hashlib.sha256(file.data).hexdigest(), config, options)
        for file in files
    ]
    unique_keys = list(dict.fromkeys(shard_keys))
    journal_entries = {}
    if journal is not None:
        with telemetry.span("journal.open"):
            journal_entries = journal.open_run(
                run_key_for(filesystem_name, shard_keys),
                label=filesystem_name, total=len(unique_keys), resume=resume,
            )

    # Load completed shards; anything missing or corrupt is recomputed
    # below (the cache evicts corrupt frames itself).  The
    # iteration order is the deterministic first-seen file order — with
    # fault injection active, store faults must replay identically.
    # Journaled counters fill in what the shard cache cannot serve;
    # fingerprint validation upstream guarantees they belong here.
    loaded = {}
    resumed = 0
    with telemetry.span("store.shard_load"):
        for key in unique_keys:
            counters = guard.get_shard(key)
            if counters is None and key in journal_entries:
                counters = journal_entries[key]
                resumed += 1
            if counters is not None:
                loaded[key] = counters
    if resumed:
        telemetry.count("checkpoint.resumed_shards", resumed)

    missing = [
        (index, key)
        for index, key in enumerate(shard_keys)
        if key not in loaded
    ]
    # Identical files share one shard key; compute each key once.
    unique_missing = {}
    for index, key in missing:
        unique_missing.setdefault(key, index)
    jobs = [
        (key, (files[index].data, config, options))
        for key, index in unique_missing.items()
    ]
    telemetry.count("store.shard_hits", len(loaded))
    telemetry.count("store.shard_misses", len(unique_missing))

    total = len(unique_keys)
    stopped = _check_stop(
        controller, health, telemetry, len(loaded), total, journal
    )
    if not stopped:
        with telemetry.span("store.shard_compute"):
            computed = ()
            if jobs:  # a pool, and with it the engine, only when needed
                pool = _make_pool(workers, health, faults, shard_timeout)
                computed = pool.run([job for _, job in jobs])
            last = time.perf_counter()
            for index, counters in computed:
                now = time.perf_counter()
                _account_shard(
                    telemetry, counters, len(jobs[index][1][0]), now - last
                )
                last = now
                key = jobs[index][0]
                loaded[key] = counters
                if not guard.put_shard(key, counters) and journal is not None:
                    journal.record(key, counters)
                stopped = _check_stop(
                    controller, health, telemetry, len(loaded), total, journal
                )
                if stopped:
                    break

    if journal is not None and not stopped:
        journal.complete()  # a journal on disk always means "interrupted"

    merged = SpliceCounters()
    for key in shard_keys:
        if key in loaded:  # on a deadline stop the merge is partial
            merged += loaded[key]
    return merged
