"""The traced replay of one CLI invocation, with per-layer spans.

Run as a child process by ``run.py --trace 1``::

    python3 perfbench/bench_trace.py --out SPANS.json --table p1/table1 \\
        -- run table1 --bytes 200000 --seed 3

It installs wrappers around each layer's public entry points, imports
``repro.cli`` and ``repro.api`` under a ``cli.import`` span, and calls
``repro.cli.main(argv)`` with the program's own telemetry active (the
span tree ``--metrics PATH`` writes, read here for the ``engine.*``
sub-stages).  Spans stay in memory and are written to ``--out`` when
the call returns; stdout is the program's own, so the parent can
compare it byte for byte with an untraced run.

Callers bind names at import time (``from repro.corpus.profiles import
build_filesystem``), so the wrappers are installed by an import hook
that patches each defining module right after it executes and before
any importer binds the name.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import argparse
import functools
import importlib.abc
import itertools
import json
import sys
import time
from pathlib import Path

from bench_ledger import TIMED_KINDS


class SpanRecorder:
    """Spans and counts of one traced table, kept in memory.

    A span is ``(id, name, start, end, parent)``; id 0 is the table
    itself, so top-level spans have parent 0.  The layer of a span is
    the part of its name before the first dot.
    """

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.health = []
        self._ids = itertools.count(1)
        self._stack = [0]  # ids of the open spans

    def add(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name, function, account=None):
        """``function`` timed as span ``name``.

        ``account(recorder, args, result)`` records counts after the call.
        """
        stack, spans, ids = self._stack, self.spans, self._ids
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent))
            if account is not None:
                account(self, args, result)
            return result

        return traced

    def counted(self, function, account):
        """``function`` with ``account`` run after each call, untimed."""
        @functools.wraps(function)
        def call(*args, **kwargs):
            result = function(*args, **kwargs)
            account(self, args, result)
            return result

        return call


# ----------------------------------------------------------------------
# count hooks: ``account(recorder, args, result)``

def _count_bytes_built(recorder, args, fs):
    recorder.add("corpus.bytes", fs.total_bytes)


def _count_packets(recorder, args, packets):
    recorder.add("protocols.packets", len(packets))


def _count_cells(recorder, args, frame):
    recorder.add("protocols.cells", frame.cell_count)


def _count_scalar(recorder, args, value):
    recorder.add("checksums.scalar_calls", 1)
    recorder.add("checksums.scalar_bytes", len(args[1]))


def _count_splices(recorder, args, counters):
    recorder.add("core.splices", counters.total)


def _count_transfer(recorder, args, report):
    recorder.add("channel.cells_sent", report.cells_sent)
    recorder.add("channel.retransmissions", report.retransmissions)
    recorder.add("channel.frames_failed", report.frames_failed)
    recorder.add("channel.transmissions", report.transmissions)
    recorder.add("channel.delivered", report.delivered)


def _count_hit(counter):
    def account(recorder, args, value):
        recorder.add(counter, 1 if value is not None else 0)
    return account


def _count_read(recorder, args, payload):
    if payload is not None:
        recorder.add("store.bytes_read", len(payload))


def _count_written(recorder, args, key):
    recorder.add("store.bytes_written", len(args[1]))


# ----------------------------------------------------------------------
# the patches, one per defining module

def _patch_generators(module, recorder):
    for kind in TIMED_KINDS:
        module.GENERATORS[kind] = recorder.wrap(
            "corpus." + kind, module.GENERATORS[kind]
        )


def _patch_profiles(module, recorder):
    module.build_filesystem = recorder.wrap(
        "corpus.build", module.build_filesystem, _count_bytes_built
    )


def _patch_packetizer(module, recorder):
    module.Packetizer.packetize = recorder.wrap(
        "protocols.packetize", module.Packetizer.packetize, _count_packets
    )


def _patch_aal5(module, recorder):
    module.build_aal5_frame = recorder.wrap(
        "protocols.aal5_frame", module.build_aal5_frame, _count_cells
    )


def _patch_compute(*class_names):
    def patch(module, recorder):
        for name in class_names:
            cls = getattr(module, name)
            cls.compute = recorder.wrap(
                "checksums.scalar", cls.compute, _count_scalar
            )
    return patch


def _patch_engine(module, recorder):
    module.SpliceEngine.evaluate_stream = recorder.wrap(
        "core.engine", module.SpliceEngine.evaluate_stream, _count_splices
    )


def _patch_experiment(module, recorder):
    module.run_splice_experiment = recorder.wrap(
        "core.sweep", module.run_splice_experiment
    )


def _patch_supervisor(module, recorder):
    init = module.RunHealth.__init__

    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        recorder.health.append(self)

    module.RunHealth.__init__ = tracked_init


def _patch_journal(module, recorder):
    module.ShardJournal.flush = recorder.wrap(
        "store.journal", module.ShardJournal.flush
    )


def _patch_runner(module, recorder):
    """Time the ``shards`` and ``results`` caches of every RunStore."""
    init = module.RunStore.__init__

    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        for short, cache in (("shard", self.shards), ("result", self.results)):
            cache.get_object = recorder.wrap(
                "store.%s_get" % short, cache.get_object,
                _count_hit("store.%s_hits" % short),
            )
            cache.put_object = recorder.wrap(
                "store.%s_put" % short, cache.put_object
            )
            cache.get_bytes = recorder.counted(cache.get_bytes, _count_read)
            cache.put_bytes = recorder.counted(cache.put_bytes,
                                               _count_written)

    module.RunStore.__init__ = traced_init


def _patch_arq(module, recorder):
    module.run_channel_transfer = recorder.wrap(
        "channel.transfer", module.run_channel_transfer, _count_transfer
    )


def _patch_sim(module, recorder):
    module.frame_acceptable = recorder.wrap(
        "channel.verify", module.frame_acceptable
    )


def _patch_report(module, recorder):
    module.ExperimentReport.__str__ = recorder.wrap(
        "experiments.render", module.ExperimentReport.__str__
    )


def _patch_render(module, recorder):
    module.TextTable.render = recorder.wrap(
        "experiments.render", module.TextTable.render
    )


PATCHES = {
    "repro.corpus.generators": _patch_generators,
    "repro.corpus.profiles": _patch_profiles,
    "repro.protocols.packetizer": _patch_packetizer,
    "repro.protocols.aal5": _patch_aal5,
    "repro.checksums.crc": _patch_compute("CRCEngine"),
    "repro.checksums.internet": _patch_compute("InternetChecksum"),
    "repro.checksums.fletcher": _patch_compute("Fletcher8"),
    "repro.checksums.extra": _patch_compute("Fletcher16", "Adler32", "Xor16"),
    "repro.core.engine": _patch_engine,
    "repro.core.experiment": _patch_experiment,
    "repro.core.supervisor": _patch_supervisor,
    "repro.store.journal": _patch_journal,
    "repro.store.runner": _patch_runner,
    "repro.channel.arq": _patch_arq,
    "repro.sim.transfer": _patch_sim,
    "repro.experiments.report": _patch_report,
    "repro.experiments.render": _patch_render,
}


class PatchingFinder(importlib.abc.MetaPathFinder):
    """Applies ``patches[name](module, recorder)`` right after a module
    in ``patches`` executes, before its importer binds any name."""

    def __init__(self, patches, recorder):
        self.patches = patches
        self.recorder = recorder

    def find_spec(self, name, path, target=None):
        patch = self.patches.get(name)
        if patch is None:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                break
        else:
            return None
        exec_module = spec.loader.exec_module
        recorder = self.recorder

        def exec_and_patch(module):
            exec_module(module)
            patch(module, recorder)

        spec.loader.exec_module = exec_and_patch
        return spec


def install(recorder, patches=PATCHES):
    """Install the import hook; no patched module may be loaded yet."""
    loaded = sorted(name for name in patches if name in sys.modules)
    if loaded:
        raise RuntimeError("already imported, cannot trace: %s" % loaded)
    sys.meta_path.insert(0, PatchingFinder(patches, recorder))


def engine_stages(snapshot):
    """Summed wall seconds of each ``engine.*`` node of a telemetry tree."""
    totals = {}

    def walk(nodes):
        for node in nodes:
            name = node["name"]
            if name.startswith("engine."):
                totals[name] = totals.get(name, 0.0) + node["wall_s"]
            walk(node.get("children", ()))

    walk(snapshot["spans"])
    return totals


def _import_cli():
    import repro.api
    import repro.cli
    return repro.api, repro.cli


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, required=True,
                        help="span file written when the call returns")
    parser.add_argument("--table", required=True, help="table id, p1/table1")
    parser.add_argument("cli_argv", nargs=argparse.REMAINDER,
                        help="-- then the repro-checksums arguments")
    args = parser.parse_args(argv)
    cli_argv = args.cli_argv[1:] if args.cli_argv[:1] == ["--"] \
        else args.cli_argv

    recorder = SpanRecorder()
    install(recorder)
    api, cli = recorder.wrap("cli.import", _import_cli)()
    telemetry = api.activate_telemetry()
    code = None
    try:
        code = cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        for health in recorder.health:
            recorder.add("core.retries", health.retries)
            recorder.add("core.fallbacks", health.fallbacks)
        payload = {
            "table": args.table,
            "argv": cli_argv,
            "spans": recorder.spans,
            "counts": recorder.counts,
            "engine_stages": engine_stages(telemetry.snapshot()),
            # RunHealth.summary() is "clean" unless the run absorbed
            # something; it leaves out the degradation notes, which also
            # carry the simulated link's own outcomes (table data).
            "health": [health.summary() for health in recorder.health],
        }
        args.out.write_text(json.dumps(payload), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
