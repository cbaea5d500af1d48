"""repro.store: content-addressed artifact store for experiment runs.

The persistence layer behind cached and resumable experiments:

* :mod:`repro.store.framing` -- the integrity-trailed frame format
  of every stored object (CRC-32/AAL5 by default);
* :mod:`repro.store.objstore` -- content-addressed payload storage
  with self-checking objects, one fan-out directory per namespace,
  and the store's atomic-write and durable-append disciplines;
* :mod:`repro.store.keys` -- canonical cache keys over experiment
  parameters, corpus identity and the code schema version;
* :mod:`repro.store.cache` -- the counting result cache (hit / miss /
  corrupt-evict-recompute);
* :mod:`repro.store.runner` -- resumable sharded splice runs: each
  computed shard is one durable write, a shard object when the store
  keeps it, else a record in the sweep journal;
* :mod:`repro.store.journal` -- the append-only log of the shards a
  sweep computed but no store kept, for ``--resume``;
* :mod:`repro.store.corpora` -- the stored form of a synthetic corpus,
  which :meth:`RunStore.filesystem` serves to the splice tables;
* :mod:`repro.store.audit` -- re-verify every stored object.

Corruption is always survivable: a failed trailer evicts the entry and
the caller recomputes — the cache can cost time, never correctness.

The audit's names resolve on first attribute use (PEP 562): only
``cache audit`` runs it, so a warm ``--cache`` hit never loads it.
"""

import importlib
from typing import Any

from repro.store.cache import ResultCache
from repro.store.keys import SCHEMA_VERSION, experiment_key, shard_key
from repro.store.objstore import (
    DEFAULT_ALGORITHM,
    IntegrityError,
    ObjectStore,
    default_root,
)
from repro.store.runner import RunStore, run_sharded_splice

__all__ = [
    "AuditReport",
    "DEFAULT_ALGORITHM",
    "IntegrityError",
    "ObjectStore",
    "ResultCache",
    "RunStore",
    "SCHEMA_VERSION",
    "audit_run_store",
    "default_root",
    "experiment_key",
    "run_sharded_splice",
    "shard_key",
]

#: Lazily resolved name -> defining submodule.
_LAZY = {
    "AuditReport": "repro.store.audit",
    "audit_run_store": "repro.store.audit",
}


def __getattr__(name: str) -> Any:
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(
            "module %r has no attribute %r" % (__name__, name)
        )
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: resolve each name at most once
    return value
