"""Canonical cache keys for experiment artifacts.

A cache entry is only valid while *everything* that determined its
value is unchanged: the experiment id, the corpus parameters
(profile/total_bytes/seed — corpora are bit-reproducible from those),
the packetizer/engine configuration, the code's result schema, and the
code itself (:func:`repro.core.codedigest.code_digest`).  Keys are
therefore SHA-256 digests over a canonical JSON rendering of all of
those, so any parameter, schema or code change invalidates cleanly —
there is no way to read a stale entry under a new meaning.

Parameters that cannot change the result — e.g. ``workers`` (the
process fan-out is bit-identical by construction) or the store handles
themselves — are excluded from key material.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json

from repro.core.codedigest import code_digest

__all__ = [
    "EXCLUDED_PARAMS",
    "SCHEMA_VERSION",
    "canonical_json",
    "canonicalize",
    "corpus_key",
    "digest_key",
    "experiment_key",
    "shard_key",
]

#: Bump whenever serialized result layouts or experiment semantics
#: change; every existing cache entry is then unreachable (not wrong).
SCHEMA_VERSION = 1

#: Call parameters that never affect results and so never enter keys.
EXCLUDED_PARAMS = frozenset({"workers", "store", "cache", "cache_dir"})


def canonicalize(obj):
    """Reduce ``obj`` to JSON-native data with a stable layout.

    Dataclasses become ``{"__type__": name, **fields}`` (type-tagged so
    two configs with coincidentally equal fields cannot collide),
    enums collapse to their values, mappings get string keys, bytes
    become hex, and sets/tuples become sorted/ordered lists.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: canonicalize(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        return {"__type__": type(obj).__name__, **fields}
    if isinstance(obj, enum.Enum):
        return canonicalize(obj.value)
    if isinstance(obj, dict):
        return {str(k): canonicalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(canonicalize(v) for v in obj)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return {"__bytes__": bytes(obj).hex()}
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj  # non-finite floats are rejected later (allow_nan=False)
    raise TypeError("cannot canonicalize %r for cache keying" % type(obj))


def canonical_json(obj):
    """The canonical JSON text of ``obj`` (sorted keys, no whitespace)."""
    return json.dumps(
        canonicalize(obj), sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def digest_key(*parts):
    """SHA-256 hex over the canonical rendering of ``parts``."""
    material = canonical_json(list(parts))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def experiment_key(experiment_id, params=None):
    """Cache key of one registry experiment invocation."""
    params = {
        k: v for k, v in (params or {}).items() if k not in EXCLUDED_PARAMS
    }
    return digest_key(
        "experiment", SCHEMA_VERSION, code_digest(), experiment_id, params
    )


def shard_key(data_digest, config, options):
    """Cache key of one file's splice counters.

    Keyed by the file *content* digest rather than its name or its
    filesystem, so identical files share shards across profiles,
    corpus sizes and experiments.
    """
    return digest_key(
        "splice-shard", SCHEMA_VERSION, code_digest(), data_digest, config, options
    )


def corpus_key(profile, total_bytes, seed):
    """Cache key of one synthetic corpus.

    A corpus is a pure function of its profile name, size and seed
    (:func:`repro.corpus.profiles.build_filesystem`) and of the
    generator code the digest covers.
    """
    return digest_key(
        "corpus", SCHEMA_VERSION, code_digest(), profile, total_bytes, seed
    )
