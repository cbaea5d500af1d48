#!/usr/bin/env python3
"""Per-layer ledger of a traced benchmark run.

``run.py --trace 1`` writes one span file per workload
(``perfbench/.work/trace-<workload>.json``).  This script renders them
as markdown: for every workload, each layer's self seconds and share
of wall time, the remainder no layer span covers,
``trace.coverage_pct`` and ``trace.overhead_pct``::

    python3 perfbench/bench_ledger.py [--trace-dir DIR]

The functions here are also how ``run.py`` turns spans into the
per-layer metrics, so the ledger and the metrics cannot disagree.

A layer's self time is the time inside its spans minus the time inside
nested spans of other layers.  Spans of one layer nested in each other
(``corpus.english`` inside ``corpus.build``) count once, for that layer.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter, defaultdict
from pathlib import Path

#: Layers in pipeline order; a span's layer is its name up to the first dot.
LAYERS = ("cli", "corpus", "protocols", "checksums", "core", "store",
          "channel", "experiments")

#: Generator kinds timed on their own (children of ``corpus.build``).
TIMED_KINDS = ("english", "wordproc", "log")

#: ``engine.*`` telemetry spans read from the program's own span tree.
ENGINE_STAGES = ("header", "transport", "crc32", "identical", "aux")

#: Every per-layer metric the traced run computes, with its unit.
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "corpus.build_s": "s",
    **{"corpus.%s_s" % kind: "s" for kind in TIMED_KINDS},
    "corpus.bytes": "B",
    "corpus.mb_per_s": "MB/s",
    "protocols.packetize_s": "s",
    "protocols.packets": "count",
    "protocols.aal5_frame_s": "s",
    "protocols.cells": "count",
    "checksums.scalar_s": "s",
    "checksums.scalar_calls": "count",
    "checksums.scalar_mb": "MB",
    "core.engine_s": "s",
    "core.splices": "count",
    "core.splices_per_s": "1/s",
    "core.stream_ms_p50": "ms",
    "core.stream_ms_p90": "ms",
    "core.stream_samples": "count",
    **{"core.engine.%s_s" % stage: "s" for stage in ENGINE_STAGES},
    "core.sweep_s": "s",
    "core.retries": "count",
    "core.fallbacks": "count",
    "store.journal_s": "s",
    "store.journal_flushes": "count",
    "store.shard_get_s": "s",
    "store.shard_put_s": "s",
    "store.shard_lookups": "count",
    "store.shard_hits": "count",
    "store.shard_hit_ratio": "ratio",
    "store.result_get_s": "s",
    "store.result_put_s": "s",
    "store.result_hits": "count",
    "store.results_served_ratio": "ratio",
    "store.bytes_written": "B",
    "store.bytes_read": "B",
    "channel.transfer_s": "s",
    "channel.verify_s": "s",
    "channel.cells_sent": "count",
    "channel.cells_per_s": "1/s",
    "channel.retransmissions": "count",
    "channel.frames_failed": "count",
    "channel.useful_ratio": "ratio",
    "experiments.render_s": "s",
    "trace.overhead_pct": "%",
    "trace.coverage_pct": "%",
}

#: Percentiles the tail helper may report, lowest first.
PERCENTILE_LADDER = (50, 75, 90, 95, 99, 99.9)


def _rank(pct, n):
    """1-based nearest rank of percentile ``pct`` among ``n`` samples."""
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def percentile(samples, pct):
    """Nearest-rank percentile of ``samples`` (None when empty)."""
    if not samples:
        return None
    return sorted(samples)[_rank(pct, len(samples)) - 1]


def tail_percentile(samples, ladder=PERCENTILE_LADDER, beyond=10):
    """``(pct, value, n)`` for the highest percentile of ``ladder`` with
    at least ``beyond`` samples above its rank; ``(None, None, n)`` when
    even the lowest has fewer."""
    n = len(samples)
    best = (None, None, n)
    for pct in ladder:
        if n - _rank(pct, n) >= beyond:
            best = (pct, percentile(samples, pct), n)
    return best


def layer_of(name):
    return name.split(".", 1)[0]


def span_self_times(spans):
    """``[(name, self_s, duration_s), ...]``: each span minus its children.

    ``spans`` are ``(id, name, start, end, parent)`` rows of one table.
    """
    children = defaultdict(float)
    for _, _, start, end, parent in spans:
        children[parent] += end - start
    return [
        (name, (end - start) - children.get(span_id, 0.0), end - start)
        for span_id, name, start, end, _ in spans
    ]


def table_ledger(table):
    """Layer -> self seconds for one traced table, plus the remainder."""
    by_layer = dict.fromkeys(LAYERS, 0.0)
    for name, self_s, _ in span_self_times(table["spans"]):
        by_layer[layer_of(name)] = by_layer.get(layer_of(name), 0.0) + self_s
    remainder = table["wall_s"] - sum(by_layer.values())
    return by_layer, remainder


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(tables):
    """Every per-layer metric of :data:`PER_LAYER_UNITS` but the two
    ``trace.*`` figures, from a workload's traced tables."""
    span_self, span_total, span_count = Counter(), Counter(), Counter()
    layer_self = Counter()
    stream_ms = []
    counts, stages = Counter(), Counter()
    for table in tables:
        for name, self_s, duration in span_self_times(table["spans"]):
            span_self[name] += self_s
            span_total[name] += duration
            span_count[name] += 1
            layer_self[layer_of(name)] += self_s
            if name == "core.engine":
                stream_ms.append(duration * 1e3)
        counts.update(table["counts"])
        stages.update(table["engine_stages"])

    m = {"cli.import_s": span_self["cli.import"],
         "corpus.build_s": layer_self["corpus"]}
    for kind in TIMED_KINDS:
        m["corpus.%s_s" % kind] = span_total["corpus." + kind]
    m["corpus.bytes"] = counts["corpus.bytes"]
    m["corpus.mb_per_s"] = _ratio(counts["corpus.bytes"] / 1e6,
                                  span_total["corpus.build"])
    m["protocols.packetize_s"] = span_self["protocols.packetize"]
    m["protocols.packets"] = counts["protocols.packets"]
    m["protocols.aal5_frame_s"] = span_self["protocols.aal5_frame"]
    m["protocols.cells"] = counts["protocols.cells"]
    m["checksums.scalar_s"] = span_self["checksums.scalar"]
    m["checksums.scalar_calls"] = counts["checksums.scalar_calls"]
    m["checksums.scalar_mb"] = counts["checksums.scalar_bytes"] / 1e6
    m["core.engine_s"] = span_self["core.engine"]
    m["core.splices"] = counts["core.splices"]
    m["core.splices_per_s"] = _ratio(counts["core.splices"],
                                     span_total["core.engine"])
    m["core.stream_ms_p50"] = percentile(stream_ms, 50) or 0.0
    m["core.stream_ms_p90"] = percentile(stream_ms, 90) or 0.0
    m["core.stream_samples"] = len(stream_ms)
    for stage in ENGINE_STAGES:
        m["core.engine.%s_s" % stage] = stages["engine." + stage]
    m["core.sweep_s"] = span_self["core.sweep"]
    m["core.retries"] = counts["core.retries"]
    m["core.fallbacks"] = counts["core.fallbacks"]
    m["store.journal_s"] = span_self["store.journal"]
    m["store.journal_flushes"] = span_count["store.journal"]
    for short in ("shard", "result"):
        m["store.%s_get_s" % short] = span_self["store.%s_get" % short]
        m["store.%s_put_s" % short] = span_self["store.%s_put" % short]
    m["store.shard_lookups"] = span_count["store.shard_get"]
    m["store.shard_hits"] = counts["store.shard_hits"]
    m["store.shard_hit_ratio"] = _ratio(counts["store.shard_hits"],
                                        span_count["store.shard_get"])
    m["store.result_hits"] = counts["store.result_hits"]
    m["store.results_served_ratio"] = _ratio(counts["store.result_hits"],
                                             len(tables))
    m["store.bytes_written"] = counts["store.bytes_written"]
    m["store.bytes_read"] = counts["store.bytes_read"]
    m["channel.transfer_s"] = span_self["channel.transfer"]
    m["channel.verify_s"] = span_self["channel.verify"]
    m["channel.cells_sent"] = counts["channel.cells_sent"]
    m["channel.cells_per_s"] = _ratio(counts["channel.cells_sent"],
                                      span_total["channel.transfer"])
    m["channel.retransmissions"] = counts["channel.retransmissions"]
    m["channel.frames_failed"] = counts["channel.frames_failed"]
    m["channel.useful_ratio"] = _ratio(counts["channel.delivered"],
                                       counts["channel.transmissions"])
    m["experiments.render_s"] = span_self["experiments.render"]
    return m


def coverage_pct(tables):
    """Summed layer self time as a share of summed table wall time."""
    covered = sum(sum(table_ledger(t)[0].values()) for t in tables)
    return 100.0 * _ratio(covered, sum(t["wall_s"] for t in tables))


def render(trace):
    """Markdown ledger of one workload's trace file."""
    tables = trace["tables"]
    wall = sum(t["wall_s"] for t in tables)
    totals = Counter()
    for table in tables:
        totals.update(table_ledger(table)[0])
    lines = [
        "### %s (--bytes %d, --seed %d)" % (
            trace["workload"], trace["bytes"], trace["seed"]),
        "",
        "| layer | self s | share of wall |",
        "|---|---:|---:|",
    ]
    for layer in LAYERS:
        lines.append("| %s | %.4f | %.1f%% |" % (
            layer, totals[layer], 100.0 * _ratio(totals[layer], wall)))
    remainder = wall - sum(totals.values())
    lines += [
        "| (uncovered) | %.4f | %.1f%% |" % (
            remainder, 100.0 * _ratio(remainder, wall)),
        "| **wall** | %.4f | 100.0%% |" % wall,
        "",
        "trace.coverage_pct = %.2f %%, trace.overhead_pct = %.2f %% "
        "(traced %.4f s vs untraced median %.4f s at reference speed; "
        "%d tables)" % (
            coverage_pct(tables), trace["overhead_pct"],
            sum(t["wall_ref_s"] for t in tables), trace["untraced_wall_s"],
            len(tables)),
        "",
    ]
    return "\n".join(lines)


def main(argv=None):
    here = Path(__file__).resolve().parent
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--trace-dir", type=Path, default=here / ".work",
                        help="directory holding trace-<workload>.json files")
    args = parser.parse_args(argv)

    paths = sorted(args.trace_dir.glob("trace-*.json"))
    if not paths:
        print("no trace file in %s (run `perfbench/run.py --trace 1` first)"
              % args.trace_dir, file=sys.stderr)
        return 1
    for path in paths:
        print(render(json.loads(path.read_text(encoding="utf-8"))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
