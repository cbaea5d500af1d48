"""``repro-checksums bench``: the repo's performance trajectory.

Koopman (arXiv:2302.13432) and Nguyen (arXiv:1009.5949) argue checksum
designs with cells/sec and cycles/byte; this module does the same for
our own kernels.  One invocation runs a fixed, seeded workload matrix
and writes a schema-versioned ``BENCH_<n>.json`` snapshot:

* **per-algorithm kernels** — for every algorithm in the registry,
  cells/sec of ``compute_many`` over a matrix of 48-byte ATM cells (one
  finished check value per cell, so every algorithm is timed on the
  same work), and splices/sec judging candidate splice buffers end to
  end, through ``compute_many`` and through one scalar ``compute`` per
  candidate;
* **engine matrix** — the full :class:`repro.core.engine.SpliceEngine`
  over transport algorithm x placement x corpus size, in splices/sec;
* **telemetry overhead** — measured cost of the *disabled* telemetry
  calls on the splice hot path, asserted <2% by
  ``benchmarks/test_telemetry_overhead.py``;
* **channel** — simulated cells/sec of the channel and ARQ stack;
* **corpus** — MB/s of corpus synthesis: each generator kind through
  ``generate``, and ``build_filesystem`` for table 1's four profiles.

Snapshots are append-only (``BENCH_0001.json``, ``BENCH_0002.json``,
...); each run renders a delta table against the previous snapshot so
a regression is visible the moment it lands.
"""

from __future__ import annotations

import json
import platform
import re
import time
from pathlib import Path

__all__ = [
    "BENCH_SCHEMA",
    "delta_table",
    "latest_snapshot",
    "next_snapshot_path",
    "run_bench",
    "validate_snapshot",
    "write_snapshot",
]

#: Schema identifier; bump when the snapshot layout changes.
BENCH_SCHEMA = "repro-bench/1"

_FILE_RE = re.compile(r"^BENCH_(\d{4})\.json$")

#: Required keys, exact, at each level (schema-drift detection).
_TOP_KEYS = {
    "schema", "created_unix", "quick", "machine", "workload",
    "algorithms", "engine", "overhead",
}
_ALGORITHM_KEYS = {"width", "kind", "cells_per_sec", "splices_per_sec"}
_ENGINE_KEYS = {
    "algorithm", "placement", "corpus_bytes", "splices", "seconds",
    "splices_per_sec",
}
_OVERHEAD_KEYS = {"disabled_pct", "enabled_pct", "batches"}
#: Optional sections (older snapshots predate them) -- validated when
#: present so drift cannot creep in behind the optionality.
_OPTIONAL_KEYS = {"channel", "corpus"}
_CHANNEL_KEYS = {"cells", "seconds", "cells_per_sec", "frames",
                 "retransmissions"}
_CORPUS_GROUPS = {"kinds", "profiles"}
_CORPUS_KEYS = {"bytes", "seconds", "mb_per_sec"}

_CELL = 48
_SEED = 1


# ----------------------------------------------------------------------
# timing helpers

def _best_seconds(fn, min_time):
    """Best (minimum) single-call wall time, sampling for >= min_time."""
    best = None
    spent = 0.0
    while spent < min_time:
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        spent += dt
        if best is None or dt < best:
            best = dt
    return max(best, 1e-9)


def _cells_per_sec(algorithm, cells, min_time):
    """Cells/sec of ``compute_many`` over a ``(cells, 48)`` matrix."""
    return len(cells) / _best_seconds(
        lambda: algorithm.compute_many(cells), min_time
    )


def _scalar_splices_per_sec(algorithm, candidates, min_time):
    """End-to-end splice judgements/sec: one ``compute`` per candidate."""
    def judge():
        compute = algorithm.compute
        for candidate in candidates:
            compute(candidate)

    return len(candidates) / _best_seconds(judge, min_time)


def _splices_per_sec(algorithm, candidates, min_time):
    """Judgements/sec of one ``compute_many`` over every candidate."""
    import numpy as np

    blocks = np.stack(
        [np.frombuffer(c, dtype=np.uint8) for c in candidates]
    )
    return len(candidates) / _best_seconds(
        lambda: algorithm.compute_many(blocks), min_time
    )


def _splice_candidates(count, packet_bytes=1008):
    """Deterministic candidate splice buffers at cell boundaries."""
    from repro.corpus.generators import generate

    boundaries = packet_bytes // _CELL
    candidates = []
    pair = 0
    while len(candidates) < count:
        blob = generate("english", 2 * packet_bytes, _SEED + pair)
        first, second = blob[:packet_bytes], blob[packet_bytes:]
        for j in range(1, boundaries):
            if len(candidates) >= count:
                break
            candidates.append(first[: _CELL * j] + second[_CELL * j :])
        pair += 1
    return candidates


# ----------------------------------------------------------------------
# workload sections

def _algorithm_section(quick):
    import numpy as np

    from repro.checksums.crc import CRCEngine
    from repro.checksums.registry import available_algorithms, get_algorithm
    from repro.corpus.generators import generate

    n_cells = 2048 if quick else 16384
    n_candidates = 64 if quick else 256
    min_time = 0.02 if quick else 0.1

    cells = np.frombuffer(
        generate("english", _CELL * n_cells, _SEED), dtype=np.uint8
    ).reshape(-1, _CELL)
    candidates = _splice_candidates(n_candidates)

    out = {}
    for name in available_algorithms():
        algorithm = get_algorithm(name)
        out[name] = {
            "width": algorithm.width,
            "kind": "crc" if isinstance(algorithm, CRCEngine) else "checksum",
            "cells_per_sec": round(
                _cells_per_sec(algorithm, cells, min_time), 1
            ),
            # The scalar rate rides along so every snapshot shows the
            # scalar -> batch delta.
            "splices_per_sec": round(
                _splices_per_sec(algorithm, candidates, min_time), 1
            ),
            "scalar_splices_per_sec": round(
                _scalar_splices_per_sec(algorithm, candidates, min_time), 1
            ),
        }
    return out, {"cells": n_cells, "splice_candidates": n_candidates}


_ENGINE_MATRIX_QUICK = (
    ("tcp", "header"),
    ("tcp", "trailer"),
    ("fletcher255", "header"),
    ("fletcher256", "header"),
)
_ENGINE_MATRIX_FULL = _ENGINE_MATRIX_QUICK + (
    ("fletcher255", "trailer"),
    ("fletcher256", "trailer"),
)


def _engine_row(fs, algorithm, placement, corpus_bytes):
    from repro.core.experiment import run_splice_experiment
    from repro.protocols.packetizer import ChecksumPlacement, PacketizerConfig

    config = PacketizerConfig(
        algorithm=algorithm, placement=ChecksumPlacement(placement)
    )
    t0 = time.perf_counter()
    result = run_splice_experiment(fs, config)
    dt = max(time.perf_counter() - t0, 1e-9)
    return {
        "algorithm": algorithm,
        "placement": placement,
        "corpus_bytes": corpus_bytes,
        "splices": result.counters.total,
        "seconds": round(dt, 6),
        "splices_per_sec": round(result.counters.total / dt, 1),
    }


def _engine_section(quick):
    from repro.corpus.profiles import build_filesystem

    sizes = (60_000,) if quick else (120_000, 400_000)
    matrix = _ENGINE_MATRIX_QUICK if quick else _ENGINE_MATRIX_FULL

    rows = []
    for corpus_bytes in sizes:
        fs = build_filesystem("stanford-u1", corpus_bytes, _SEED)
        for algorithm, placement in matrix:
            rows.append(_engine_row(fs, algorithm, placement, corpus_bytes))
    return rows, {"corpus_sizes": list(sizes)}


def _overhead_section(quick):
    """Measured cost of disabled-telemetry calls on the splice hot path.

    ``disabled_pct`` is (per-batch null instrumentation cost x batches)
    / (hot-path wall time), i.e. the exact overhead the instrumentation
    adds when telemetry is off.  ``enabled_pct`` is the A/B cost of a
    live registry, for context.
    """
    from repro.core.engine import EngineOptions, SpliceEngine
    from repro.corpus.generators import generate
    from repro.protocols.ftpsim import FileTransferSimulator
    from repro.protocols.packetizer import PacketizerConfig
    from repro.telemetry.core import collect, current, deactivate

    data = generate("english", 60_000 if quick else 150_000, _SEED)
    wire = FileTransferSimulator(PacketizerConfig()).wire(data)
    engine = SpliceEngine(EngineOptions())

    deactivate()  # ensure the disabled state for the baseline
    t_disabled = _best_seconds(
        lambda: engine.evaluate_stream(wire), 0.05 if quick else 0.2
    )

    with collect() as telemetry:
        t_enabled = _best_seconds(
            lambda: engine.evaluate_stream(wire), 0.05 if quick else 0.2
        )
        stream_node = telemetry._root.children.get("engine.stream")
        batch_node = (
            stream_node.children.get("engine.batch") if stream_node else None
        )
    # _best_seconds samples several passes; normalise the recorded span
    # counts back to a single evaluate_stream pass.
    passes = stream_node.count if stream_node else 1
    batches = batch_node.count if batch_node else passes
    spans_per_batch = 1 + len(batch_node.children) if batch_node else 8
    batches_per_pass = max(1, batches // max(passes, 1))

    def null_ops():
        telemetry_ = current()
        for _ in range(spans_per_batch):
            with telemetry_.span("x"):
                pass
        telemetry_.count("x", 1)
        telemetry_.meter("x", 1, 0.0)

    reps = 2000
    t0 = time.perf_counter()
    for _ in range(reps):
        null_ops()
    per_batch_cost = (time.perf_counter() - t0) / reps

    disabled_pct = 100.0 * (batches_per_pass * per_batch_cost) / t_disabled
    enabled_pct = 100.0 * (t_enabled - t_disabled) / t_disabled
    return {
        "disabled_pct": round(disabled_pct, 4),
        "enabled_pct": round(enabled_pct, 4),
        "batches": batches_per_pass,
    }


def _channel_section(quick):
    """Simulated cells/sec of the discrete-event channel + ARQ stack.

    One english file end-to-end through each plan; the rate counts
    every cell the sender pushed into the link (retransmissions
    included), which is the work the simulator actually performed.
    """
    from repro.channel.arq import run_channel_transfer
    from repro.channel.plan import named_channel_plan
    from repro.corpus.generators import generate

    data = generate("english", 30_000 if quick else 120_000, _SEED)
    section = {}
    for plan_name in ("clean", "bursty-link"):
        plan = named_channel_plan(plan_name, seed=_SEED)
        report = run_channel_transfer(data, plan)
        seconds = _best_seconds(
            lambda: run_channel_transfer(data, plan),
            0.05 if quick else 0.2,
        )
        section[plan_name] = {
            "cells": report.cells_sent,
            "seconds": round(seconds, 6),
            "cells_per_sec": round(report.cells_sent / seconds, 2),
            "frames": report.frames,
            "retransmissions": report.retransmissions,
        }
    return section


_TABLE1_PROFILES = ("nsc05", "nsc11", "nsc23", "nsc25")


def _corpus_section(quick):
    """MB/s of corpus synthesis, per generator kind and per profile.

    Each kind makes ``corpus_bytes`` through ``generate``; each of table
    1's profiles is built by ``build_filesystem``, which draws all its
    files from one replay of its stream.
    """
    from repro.corpus.generators import GENERATORS, generate
    from repro.corpus.profiles import build_filesystem

    corpus_bytes = 50_000 if quick else 200_000
    min_time = 0.02 if quick else 0.1

    def rate(make, size):
        seconds = _best_seconds(make, min_time)
        return {
            "bytes": size,
            "seconds": round(seconds, 6),
            "mb_per_sec": round(size / seconds / 1e6, 3),
        }

    kinds = {
        kind: rate(lambda kind=kind: generate(kind, corpus_bytes, _SEED),
                   corpus_bytes)
        for kind in sorted(GENERATORS)
    }
    profiles = {}
    for name in _TABLE1_PROFILES:
        size = build_filesystem(name, corpus_bytes, _SEED).total_bytes
        profiles[name] = rate(
            lambda name=name: build_filesystem(name, corpus_bytes, _SEED), size
        )
    return {"kinds": kinds, "profiles": profiles}


# ----------------------------------------------------------------------
# snapshot assembly, persistence, validation, deltas

def run_bench(quick=False):
    """Run the workload matrix; return the snapshot dict."""
    algorithms, algo_meta = _algorithm_section(quick)
    engine, engine_meta = _engine_section(quick)
    overhead = _overhead_section(quick)
    channel = _channel_section(quick)
    corpus = _corpus_section(quick)
    workload = {"seed": _SEED, "cell_bytes": _CELL}
    workload.update(algo_meta)
    workload.update(engine_meta)
    return {
        "schema": BENCH_SCHEMA,
        # Snapshot *provenance*, not result data: bench numbers are
        # timings, never compared bit-for-bit.  reprolint: disable=REP102
        "created_unix": int(time.time()),
        "quick": bool(quick),
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "processor": platform.processor() or platform.machine(),
        },
        "workload": workload,
        "algorithms": algorithms,
        "engine": engine,
        "overhead": overhead,
        "channel": channel,
        "corpus": corpus,
    }


def validate_snapshot(payload):
    """Raise ``ValueError`` on any schema drift; return the payload."""
    if not isinstance(payload, dict):
        raise ValueError("bench snapshot must be a JSON object")
    if payload.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            "bench schema mismatch: expected %r, got %r"
            % (BENCH_SCHEMA, payload.get("schema"))
        )
    # "channel" and "corpus" joined the layout later: optional for old
    # snapshots, but never an excuse for unknown keys.
    drift = (set(payload) - _OPTIONAL_KEYS) ^ _TOP_KEYS
    if drift:
        raise ValueError(
            "bench snapshot top-level drift: %s" % ", ".join(sorted(drift))
        )
    algorithms = payload["algorithms"]
    if not algorithms:
        raise ValueError("bench snapshot has no algorithm entries")
    for name, entry in algorithms.items():
        missing = _ALGORITHM_KEYS - set(entry)
        if missing:
            raise ValueError(
                "algorithm %r missing keys: %s" % (name, ", ".join(sorted(missing)))
            )
        for key in ("cells_per_sec", "splices_per_sec"):
            if not isinstance(entry[key], (int, float)) or entry[key] <= 0:
                raise ValueError("algorithm %r has non-positive %s" % (name, key))
    if not payload["engine"]:
        raise ValueError("bench snapshot has no engine rows")
    for row in payload["engine"]:
        missing = _ENGINE_KEYS - set(row)
        if missing:
            raise ValueError(
                "engine row missing keys: %s" % ", ".join(sorted(missing))
            )
    missing = _OVERHEAD_KEYS - set(payload["overhead"])
    if missing:
        raise ValueError(
            "overhead section missing keys: %s" % ", ".join(sorted(missing))
        )
    for plan_name, entry in payload.get("channel", {}).items():
        drift = set(entry) ^ _CHANNEL_KEYS
        if drift:
            raise ValueError(
                "channel plan %r key drift: %s"
                % (plan_name, ", ".join(sorted(drift)))
            )
        if not isinstance(entry["cells_per_sec"], (int, float)) \
                or entry["cells_per_sec"] <= 0:
            raise ValueError(
                "channel plan %r has non-positive cells_per_sec" % plan_name
            )
    corpus = payload.get("corpus")
    if corpus is not None:
        drift = set(corpus) ^ _CORPUS_GROUPS
        if drift:
            raise ValueError(
                "corpus section drift: %s" % ", ".join(sorted(drift))
            )
        for group, entries in sorted(corpus.items()):
            for name, entry in entries.items():
                label = "corpus %s %r" % (group[:-1], name)
                drift = set(entry) ^ _CORPUS_KEYS
                if drift:
                    raise ValueError(
                        "%s key drift: %s" % (label, ", ".join(sorted(drift)))
                    )
                if not isinstance(entry["mb_per_sec"], (int, float)) \
                        or entry["mb_per_sec"] <= 0:
                    raise ValueError("%s has non-positive mb_per_sec" % label)
    return payload


def _snapshots(directory):
    """Sorted ``[(index, path), ...]`` of snapshots in ``directory``."""
    directory = Path(directory)
    found = []
    if directory.is_dir():
        for path in directory.iterdir():
            match = _FILE_RE.match(path.name)
            if match:
                found.append((int(match.group(1)), path))
    return sorted(found)


def latest_snapshot(directory):
    """(payload, path) of the newest snapshot, or (None, None)."""
    found = _snapshots(directory)
    if not found:
        return None, None
    path = found[-1][1]
    return json.loads(path.read_text(encoding="utf-8")), path


def next_snapshot_path(directory):
    """The path the next snapshot should be written to."""
    found = _snapshots(directory)
    index = found[-1][0] + 1 if found else 1
    return Path(directory) / ("BENCH_%04d.json" % index)


def write_snapshot(payload, directory="."):
    """Validate and persist ``payload``; return its path."""
    validate_snapshot(payload)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = next_snapshot_path(directory)
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return path


def _pct_delta(new, old):
    if not old:
        return "n/a"
    return "%+.1f%%" % (100.0 * (new - old) / old)


def delta_table(previous, current_payload):
    """Markdown delta of ``current_payload`` against ``previous``.

    ``previous`` may be None (first snapshot): renders absolute rates
    only.
    """
    lines = ["| metric | now | previous | delta |", "|---|---:|---:|---:|"]
    prev_algorithms = (previous or {}).get("algorithms", {})
    for name, entry in sorted(current_payload["algorithms"].items()):
        for key, label in (("cells_per_sec", "cells/s"),
                           ("splices_per_sec", "splices/s")):
            old = prev_algorithms.get(name, {}).get(key)
            lines.append(
                "| %s %s | %.0f | %s | %s |"
                % (
                    name,
                    label,
                    entry[key],
                    "%.0f" % old if old else "-",
                    _pct_delta(entry[key], old),
                )
            )
    # Older snapshots may hold ``"engine": "scalar"`` rows, which timed
    # the byte-at-a-time receiver; only batch rows are comparable.
    prev_engine = {
        (r["algorithm"], r["placement"], r["corpus_bytes"]): r
        for r in (previous or {}).get("engine", [])
        if r.get("engine", "batch") == "batch"
    }
    for row in current_payload["engine"]:
        key = (row["algorithm"], row["placement"], row["corpus_bytes"])
        old = prev_engine.get(key, {}).get("splices_per_sec")
        lines.append(
            "| engine %s/%s @%d splices/s | %.0f | %s | %s |"
            % (
                row["algorithm"],
                row["placement"],
                row["corpus_bytes"],
                row["splices_per_sec"],
                "%.0f" % old if old else "-",
                _pct_delta(row["splices_per_sec"], old),
            )
        )
    prev_channel = (previous or {}).get("channel", {})
    for plan_name, entry in sorted(current_payload.get("channel", {}).items()):
        old = prev_channel.get(plan_name, {}).get("cells_per_sec")
        lines.append(
            "| channel %s cells/s | %.0f | %s | %s |"
            % (
                plan_name,
                entry["cells_per_sec"],
                "%.0f" % old if old else "-",
                _pct_delta(entry["cells_per_sec"], old),
            )
        )
    prev_corpus = (previous or {}).get("corpus", {})
    for group, entries in sorted(current_payload.get("corpus", {}).items()):
        for name, entry in sorted(entries.items()):
            old = prev_corpus.get(group, {}).get(name, {}).get("mb_per_sec")
            lines.append(
                "| corpus %s %s MB/s | %.2f | %s | %s |"
                % (
                    group[:-1],
                    name,
                    entry["mb_per_sec"],
                    "%.2f" % old if old else "-",
                    _pct_delta(entry["mb_per_sec"], old),
                )
            )
    overhead = current_payload["overhead"]
    lines.append(
        "| telemetry disabled overhead | %.3f%% | | |" % overhead["disabled_pct"]
    )
    return "\n".join(lines)
