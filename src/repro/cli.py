"""Command-line interface: ``repro-checksums``.

Subcommands:

* ``algorithms`` -- list the registered checksum/CRC algorithms.
* ``profiles`` -- list the synthetic filesystem profiles.
* ``sum FILE [FILE...]`` -- checksum files with a chosen algorithm.
* ``run EXPERIMENT`` -- regenerate a paper table or figure (``--svg``
  writes the chart for figure experiments; ``--cache`` serves repeats
  from the artifact store, ``--workers N`` fans out splice runs).
* ``report`` -- regenerate every experiment into one Markdown file.
* ``splice`` -- run a custom splice simulation over a profile.
* ``channel run|replay|plans`` -- the timed discrete-event channel:
  sweep a corpus through a named impairment plan under ARQ recovery
  (``--trace`` records a replayable trace; exit 4 on degraded
  delivery), re-run a recorded trace and verify every event and
  checksum verdict reproduces (exit 1 on divergence, 2 on a tampered
  trace), or list the named plans.
* ``cache stats|audit|clear`` -- inspect, integrity-audit, or empty the
  content-addressed artifact store (default root
  ``~/.cache/repro-checksums``, overridable with ``--cache-dir`` or
  ``$REPRO_CHECKSUMS_CACHE``); ``stats`` counts each namespace's
  objects and bytes.
* ``chaos`` -- run a splice sweep under a named fault-injection plan
  (worker crashes, store bit rot, ENOSPC, ...) and assert the final
  counters are bit-identical to a fault-free run.
* ``bench`` -- run the fixed benchmark workload matrix (algorithms x
  placements x corpus sizes) and write a schema-versioned
  ``BENCH_<n>.json`` snapshot plus a delta table vs the previous one.
* ``lint`` -- run reprolint, the domain-aware static analysis that
  enforces the repo's determinism/concurrency/layering/crash-
  consistency invariants (``--format json|md``, ``--fix-baseline``).

``run``/``report``/``splice``/``chaos`` accept ``--metrics DEST``:
telemetry (span timings, counters, throughput meters, latency
histograms) is collected for the run and written as JSON or markdown
to stdout (``--metrics json``/``--metrics md``) or to a file path.

``run``/``splice``/``chaos``/``channel`` run under a sweep guard:
``--shard-timeout`` arms the supervisor's per-shard timeout rung,
``--deadline`` stops a sweep cleanly at a shard boundary once the time
budget is spent (partial report, exit 3), SIGINT/SIGTERM stop it
checkpointed (exit ``128 + signum``: 130/143), and — on ``run`` and
``splice`` — ``--journal`` (default on) checkpoints the completed
shards the store did not keep (all of them without ``--cache``), so
``--resume`` continues an interrupted sweep bit-identically.

Flags shared between subcommands (``--bytes``/``--seed``,
``--workers``, ``--cache``/``--cache-dir``, ``--metrics``) are defined
once, as functions that add them to a subcommand's parser --
per-subcommand defaults differ, so they take the defaults as
parameters.

Layering contract (enforced by reprolint REP301): this module imports
project code only through the stable :mod:`repro.api` facade -- plus
:mod:`repro.lint`, the tooling layer above the domain code.  Only what
building the parser itself needs (subcommand ``choices``) is imported
eagerly; everything else loads inside its handler so a warm
``--cache`` hit never imports the splice engine (REP303).

A process pays only for the command it runs.  :func:`main` registers
every subcommand by name and help, but adds flags and ``choices`` only
to the one its first argument names: ``run`` builds 12
``ArgumentParser`` objects where the full parser builds 18, and the
usage, help and error texts stay the same.  :func:`console_main`, the
entry of the console script and of ``python -m repro.cli``, also skips
the interpreter's final garbage collection when nothing but the main
thread is left.
"""

from __future__ import annotations

import argparse
import gc
import sys
import threading

from repro.api import (
    algorithm_names,
    experiment_ids,
    open_store,
    run_experiment,
    sum_file,
)

#: ``[p.value for p in ChecksumPlacement]``, spelled literally so parser
#: construction does not import the packetizer (and with it numpy) on
#: every CLI start-up; ``tests/test_cli.py`` pins the equivalence.
_PLACEMENT_CHOICES = ("header", "trailer")

#: ``repro.channel.arq.ARQ_KINDS``, spelled literally for the same
#: reason; ``tests/channel/test_cli.py`` pins the equivalence.
_ARQ_CHOICES = ("stop-and-wait", "go-back-n", "selective-repeat")

#: ``profile_names()``, spelled literally so parser construction does
#: not import the corpus generators (and with them numpy);
#: ``tests/test_cli.py`` pins the equivalence.
_PROFILE_CHOICES = (
    "nsc05", "nsc11", "nsc23", "nsc25",
    "pathological-binhex", "pathological-gmon", "pathological-hexps",
    "pathological-pbm",
    "sics-opt", "sics-solaris", "sics-src1", "sics-src2",
    "stanford-u1", "stanford-usr-local", "uniform",
)

#: ``plan_names()`` (the ``chaos --plan`` fault plans), spelled
#: literally so parser construction does not import the fault plans;
#: ``tests/test_cli.py`` pins the equivalence.
_CHAOS_PLAN_CHOICES = (
    "bitrot", "bursty-link", "congested-queue", "flaky-network",
    "flaky-workers", "full-disk", "monkey", "reordering-link",
    "replica-outage",
)

#: ``channel_plan_names()`` (the ``channel run --plan`` link plans),
#: spelled literally for the same reason; ``tests/test_cli.py`` pins
#: the equivalence.
_CHANNEL_PLAN_CHOICES = (
    "bursty-link", "clean", "congested-queue", "lossy-link",
    "reordering-link",
)

__all__ = ["build_parser", "console_main", "main"]


# ----------------------------------------------------------------------
# shared flag groups

def _corpus_flags(parser, bytes_default, seed_default):
    """``--bytes``/``--seed``: the synthetic corpus of a run."""
    parser.add_argument("--bytes", type=int, default=bytes_default,
                        help="synthetic filesystem size in bytes")
    parser.add_argument("--seed", type=int, default=seed_default)


def _workers_flag(parser, default=None,
                  help_text="fan splice runs out over N processes"):
    parser.add_argument("--workers", type=int, default=default,
                        help=help_text)


def _cache_flags(parser, toggle=True):
    """``--cache``/``--cache-dir``: a run's store."""
    if toggle:
        parser.add_argument("--cache", action=argparse.BooleanOptionalAction,
                            default=False,
                            help="serve repeat runs from the artifact store")
    parser.add_argument("--cache-dir", default=None,
                        help="store root (default: $REPRO_CHECKSUMS_CACHE or "
                             "~/.cache/repro-checksums)")


def _positive_seconds(text):
    """Argparse type: a strictly positive float number of seconds."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected a number of seconds, got %r" % text
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(
            "must be > 0 seconds, got %s" % text
        )
    return value


def _mss(text):
    """Argparse type: a segment size whose IP packet fits 65535 bytes.

    The IPv4 total length and the AAL5 Length field are 16 bits wide,
    and every packet carries 40 header bytes; trailer placement adds
    two more, which the packetizer config checks.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected a segment size in bytes, got %r" % text
        ) from None
    if not 1 <= value <= 0xFFFF - 40:
        raise argparse.ArgumentTypeError(
            "must be 1..%d bytes, got %s" % (0xFFFF - 40, text)
        )
    return value


def _sweep_flags(parser, journal=True):
    """``--shard-timeout``/``--deadline`` (+ journal/resume knobs)."""
    parser.add_argument("--shard-timeout", type=_positive_seconds,
                        metavar="SECONDS", default=None,
                        help="condemn and respawn a worker pool when one "
                             "shard exceeds this many seconds")
    parser.add_argument("--deadline", type=_positive_seconds,
                        metavar="SECONDS", default=None,
                        help="stop the sweep cleanly at a shard boundary "
                             "once this time budget is spent (partial "
                             "report, exit 3)")
    if journal:
        parser.add_argument("--journal",
                            action=argparse.BooleanOptionalAction,
                            default=True,
                            help="checkpoint completed shards so an "
                                 "interrupted sweep can --resume")
        parser.add_argument("--resume",
                            action=argparse.BooleanOptionalAction,
                            default=False,
                            help="merge a fingerprint-matching sweep "
                                 "journal before dispatching shards")


def _metrics_flag(parser):
    parser.add_argument("--metrics", metavar="DEST", default=None,
                        help="collect run telemetry and write it: 'json' or "
                             "'md' print to stdout; any other value is a "
                             "file path (.json suffix -> JSON, else "
                             "markdown)")


def _profile_flag(parser, default):
    parser.add_argument("--profile", default=default,
                        choices=_PROFILE_CHOICES)


# ----------------------------------------------------------------------
# each subcommand's flags

def _sum_arguments(parser):
    parser.add_argument("files", nargs="+")
    parser.add_argument("--algorithm", "-a", default="internet",
                        choices=algorithm_names())


def _run_arguments(parser):
    _corpus_flags(parser, None, None)
    _cache_flags(parser)
    _workers_flag(parser)
    _metrics_flag(parser)
    _sweep_flags(parser)
    parser.add_argument("experiment", choices=sorted(experiment_ids()))
    parser.add_argument("--svg", metavar="PATH", default=None,
                        help="for figure experiments: also write an SVG chart")


def _report_arguments(parser):
    _corpus_flags(parser, 400_000, 3)
    _cache_flags(parser)
    _workers_flag(parser)
    _metrics_flag(parser)
    parser.add_argument("--output", "-o", default="report.md")
    parser.add_argument("--only", nargs="*", default=None,
                        help="restrict to these experiment ids")


def _splice_arguments(parser):
    _profile_flag(parser, "stanford-u1")
    _corpus_flags(parser, 500_000, 3)
    _cache_flags(parser)
    _workers_flag(parser, help_text="fan files out over N processes")
    _metrics_flag(parser)
    _sweep_flags(parser)
    parser.add_argument("--mss", type=_mss, default=256)
    parser.add_argument("--algorithm", default="tcp",
                        choices=["tcp", "fletcher255", "fletcher256"])
    parser.add_argument("--placement", default="header",
                        choices=list(_PLACEMENT_CHOICES))


def _cache_arguments(parser):
    cache_sub = parser.add_subparsers(dest="cache_command", required=True)
    _cache_flags(cache_sub.add_parser(
        "stats", help="per-namespace object counts"), toggle=False)
    p_audit = cache_sub.add_parser(
        "audit", help="re-verify every stored object's integrity trailer",
    )
    _cache_flags(p_audit, toggle=False)
    p_audit.add_argument("--evict", action="store_true",
                         help="delete corrupt objects so runs recompute them")
    _cache_flags(cache_sub.add_parser(
        "clear", help="delete every stored object"), toggle=False)


def _chaos_arguments(parser):
    _profile_flag(parser, "stanford-u1")
    _corpus_flags(parser, 120_000, 3)
    _workers_flag(parser, 2, "pool width for the chaotic pass")
    _metrics_flag(parser)
    _sweep_flags(parser, journal=False)
    parser.add_argument("--mss", type=_mss, default=256)
    parser.add_argument("--plan", default="monkey",
                        choices=_CHAOS_PLAN_CHOICES,
                        help="named fault plan (default: monkey)")
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="seed of the fault schedule (replayable)")
    parser.add_argument("--cache-dir", default=None,
                        help="root for the chaotic run's stores "
                             "(default: a temporary directory, removed "
                             "when the command ends)")


def _channel_arguments(parser):
    channel_sub = parser.add_subparsers(dest="channel_command",
                                        required=True)
    channel_sub.add_parser("plans", help="list the named channel plans")
    p_crun = channel_sub.add_parser(
        "run",
        help="sweep a corpus through a simulated link under ARQ "
             "(exit 4 when delivery degraded)",
    )
    _profile_flag(p_crun, "nsc05")
    _corpus_flags(p_crun, 120_000, 2)
    _cache_flags(p_crun)
    _workers_flag(p_crun, help_text="fan files out over N processes")
    _metrics_flag(p_crun)
    _sweep_flags(p_crun)
    p_crun.add_argument("--plan", default="bursty-link",
                        choices=_CHANNEL_PLAN_CHOICES,
                        help="named channel plan (default: bursty-link)")
    p_crun.add_argument("--channel-seed", type=int, default=0,
                        help="seed of the channel's impairment streams")
    p_crun.add_argument("--arq", default="go-back-n", choices=_ARQ_CHOICES,
                        help="ARQ discipline (default: go-back-n)")
    p_crun.add_argument("--window", type=int, default=8,
                        help="sender window in frames")
    p_crun.add_argument("--timeout", type=float, default=64.0,
                        help="initial retransmission timeout in ticks")
    p_crun.add_argument("--budget", type=int, default=8,
                        help="retransmission budget per frame; exhausting "
                             "it abandons the frame (degraded, exit 4)")
    p_crun.add_argument("--algorithm", default="tcp",
                        choices=["tcp", "fletcher255", "fletcher256"])
    p_crun.add_argument("--no-crc", action="store_true",
                        help="drop the AAL5 CRC from the receiver's stack")
    p_crun.add_argument("--mss", type=_mss, default=256)
    p_crun.add_argument("--trace", metavar="PATH", default=None,
                        help="record the run as a replayable trace file")
    p_creplay = channel_sub.add_parser(
        "replay",
        help="re-run a recorded trace; exit 0 iff every event and "
             "verdict reproduces (1 diverged, 2 unreadable/tampered)",
    )
    _workers_flag(p_creplay, help_text="worker count for the replay "
                                       "(the result must not depend on it)")
    p_creplay.add_argument("trace", help="trace file written by "
                                         "'channel run --trace'")


def _bench_arguments(parser):
    parser.add_argument("--quick", action="store_true",
                        help="smaller matrix for CI smoke runs")
    parser.add_argument("--out", default=".", metavar="DIR",
                        help="directory for BENCH_<n>.json snapshots "
                             "(default: current directory)")
    parser.add_argument("--check", metavar="PATH", default=None,
                        help="validate an existing snapshot against the "
                             "bench schema and exit (CI drift gate)")


def _lint_arguments(parser):
    parser.add_argument("paths", nargs="*", default=None,
                        help="source roots to scan (default: ./src if it "
                             "exists, else .)")
    parser.add_argument("--format", dest="fmt", default="text",
                        choices=["text", "json", "md", "sarif"],
                        help="report format (default: text)")
    parser.add_argument("--baseline", metavar="PATH", default=None,
                        help="baseline file (default: "
                             ".reprolint-baseline.json if present)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore the committed baseline")
    parser.add_argument("--fix-baseline", action="store_true",
                        help="rewrite the baseline from current findings")
    parser.add_argument("--rules", metavar="IDS", default=None,
                        help="comma-separated rule ids to run "
                             "(default: all)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--cache", metavar="PATH", default=None,
                        help="incremental result cache: unchanged "
                             "files replay their stored findings")
    parser.add_argument("--contract", metavar="PATH", default=None,
                        help="layer contract for REP311 (default: "
                             ".reprolint.toml if present)")
    parser.add_argument("--no-contract", action="store_true",
                        help="skip the layer contract even if "
                             ".reprolint.toml exists")


def build_parser(command=None):
    """The ``repro-checksums`` argument parser.

    Every subcommand is registered by name and help, so usage, help and
    error texts do not depend on ``command``.  Only the subcommand that
    ``command`` names gets its flags and choices; ``None``, or a word
    that names no subcommand, builds them all.
    """
    parser = argparse.ArgumentParser(
        prog="repro-checksums",
        description="Reproduction of 'Performance of Checksums and CRCs over "
        "Real Data' (SIGCOMM 1995)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    build_all = command not in _SUBCOMMANDS
    for name, (help_text, add_arguments, _) in _SUBCOMMANDS.items():
        child = sub.add_parser(name, help=help_text)
        if add_arguments is not None and (build_all or name == command):
            add_arguments(child)
    return parser


def _make_store(args):
    """A RunStore when ``--cache`` was requested, else None."""
    if not getattr(args, "cache", False):
        return None
    return open_store(args.cache_dir)


def _cmd_algorithms(_args):
    from repro.api import algorithm_summaries

    for name, width, kind in algorithm_summaries():
        print("%-14s %2d-bit %s" % (name, width, kind))
    return 0


def _cmd_profiles(_args):
    from repro.api import profile_summaries

    for name, description in profile_summaries():
        print("%-22s %s" % (name, description))
    return 0


def _cmd_sum(args):
    from repro.api import algorithm_summaries

    width = dict(
        (name, bits) for name, bits, _ in algorithm_summaries()
    )[args.algorithm]
    hex_digits = (width + 3) // 4
    for path in args.files:
        print("%0*x  %s" % (hex_digits, sum_file(path, args.algorithm), path))
    return 0


def _cmd_run(args):
    kwargs = {}
    if args.bytes is not None and args.experiment != "epd":
        kwargs["fs_bytes"] = args.bytes
    if args.seed is not None and args.experiment != "epd":
        kwargs["seed"] = args.seed
    report = run_experiment(
        args.experiment,
        cache=_make_store(args),
        workers=args.workers,
        **kwargs,
    )
    print(report)
    if args.svg:
        from repro.api import write_figure_svg

        write_figure_svg(report, args.svg)
        print("\nSVG written to %s" % args.svg)
    return 0


def _cmd_report(args):
    from repro.api import generate_markdown_report

    document = generate_markdown_report(
        experiment_ids=args.only,
        fs_bytes=args.bytes,
        seed=args.seed,
        cache=_make_store(args),
        workers=args.workers,
    )
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(document)
    print("wrote %s (%d bytes)" % (args.output, len(document)))
    return 0


def _cmd_splice(args):
    from repro.api import (
        ChecksumPlacement,
        PacketizerConfig,
        build_filesystem,
        run_splice_experiment,
    )

    try:
        config = PacketizerConfig(
            mss=args.mss,
            algorithm=args.algorithm,
            placement=ChecksumPlacement(args.placement),
        )
    except ValueError as exc:
        # --mss passed its type check, but the trailer's two check bytes
        # push the packet past 65535.
        print("repro-checksums splice: %s" % exc, file=sys.stderr)
        return 2
    fs = build_filesystem(args.profile, args.bytes, args.seed)
    result = run_splice_experiment(
        fs, config, workers=args.workers, store=_make_store(args)
    )
    c = result.counters
    print("filesystem         %s (%d bytes, %d files)" % (
        fs.name, fs.total_bytes, len(fs)))
    print("transport          %s (%s placement)" % (
        args.algorithm, args.placement))
    print("total splices      %d" % c.total)
    print("caught by header   %d (%.2f%%)" % (c.caught_by_header,
                                              c.caught_by_header_pct))
    print("identical data     %d" % c.identical)
    print("remaining          %d" % c.remaining)
    print("missed (transport) %d (%.4f%% of remaining)" % (
        c.missed_transport, c.miss_rate_transport))
    print("missed (CRC-32)    %d" % c.missed_crc32)
    print("effective bits     %.1f" % c.effective_bits)
    if result.health.eventful:
        print(result.health.render())
    return 0


def _cmd_cache(args):
    from repro.api import audit_run_store

    store = open_store(args.cache_dir)
    if args.cache_command == "stats":
        stats = store.stats()
        print("root               %s" % stats["root"])
        total_objects = total_bytes = 0
        for name, _ in store.namespaces:
            entry = stats[name]
            total_objects += entry["objects"]
            total_bytes += entry["bytes"]
            print("%-11s %8d objects %12d bytes" % (
                name, entry["objects"], entry["bytes"]))
        print("%-11s %8d objects %12d bytes" % (
            "total", total_objects, total_bytes))
        return 0
    if args.cache_command == "audit":
        report = audit_run_store(store, evict=args.evict)
        print(report.render())
        return 0 if report.clean else 1
    if args.cache_command == "clear":
        removed = store.clear()
        print("removed %d objects from %s" % (removed, store.describe()))
        return 0
    return 1


def _cmd_chaos(args):
    """Dogfood the paper's thesis: inject faults, detect, survive.

    Three sweeps over the same corpus:

    1. a **clean** baseline (no store, no faults);
    2. a **chaotic populate** pass: supervised pool + fault-wrapped
       store, fresh root — worker crashes and write faults land here;
    3. a **chaotic resume** pass over the same root — read-side
       corruption (bit flips, torn reads) hits the now-populated
       store, exercising evict-and-recompute.

    Exit 0 iff both chaotic passes produce counters bit-identical to
    the baseline and the fault plan replays deterministically.
    """
    import shutil
    import tempfile
    from pathlib import Path

    from repro.api import (
        PacketizerConfig,
        RunHealth,
        build_filesystem,
        named_plan,
        run_splice_experiment,
        wrap_run_store,
    )

    fs = build_filesystem(args.profile, args.bytes, args.seed)
    config = PacketizerConfig(mss=args.mss)
    print("chaos plan         %s (fault seed %d)" % (args.plan, args.fault_seed))
    print("corpus             %s (%d bytes, %d files)" % (
        fs.name, fs.total_bytes, len(fs)))

    clean = run_splice_experiment(fs, config)

    # Without --cache-dir the stores live in a temporary root that goes
    # when the passes end, also on error.
    temporary = args.cache_dir is None
    root = Path(
        tempfile.mkdtemp(prefix="repro-chaos-") if temporary else args.cache_dir
    )
    health = RunHealth()
    passes = []
    try:
        for label, workers in (("populate", args.workers), ("resume", None)):
            plan = named_plan(args.plan, seed=args.fault_seed)
            pass_health = RunHealth()
            store = wrap_run_store(
                open_store(root / "store"), plan, pass_health
            )
            result = run_splice_experiment(
                fs, config, workers=workers, store=store,
                faults=plan, health=pass_health,
            )
            passes.append((label, result, plan, pass_health))
            health.merge(pass_health)
    finally:
        if temporary:
            shutil.rmtree(root, ignore_errors=True)

    replay_ok = (
        named_plan(args.plan, seed=args.fault_seed).preview()
        == named_plan(args.plan, seed=args.fault_seed).preview()
    )

    # A plan paired with a channel regime also proves the *link* is
    # replayable: two transfers under the same channel plan must agree
    # event-for-event (clean-vs-chaotic store state cannot leak in).
    channel_name = named_plan(args.plan, seed=args.fault_seed).channel
    channel_ok = True
    if channel_name:
        from repro.api import named_channel_plan, run_channel_transfer

        channel_plan = named_channel_plan(channel_name, seed=args.fault_seed)
        data = fs.files[0].data
        first_events, second_events = [], []
        first = run_channel_transfer(
            data, channel_plan, trace_events=first_events
        )
        second = run_channel_transfer(
            data, channel_plan, trace_events=second_events
        )
        channel_ok = (
            first_events == second_events
            and first.to_dict() == second.to_dict()
        )

    identical = True
    print("total splices      %d" % clean.counters.total)
    for label, result, plan, pass_health in passes:
        match = result.counters == clean.counters
        identical = identical and match
        print("%-18s %s (%s)" % (
            label,
            "counters identical" if match else "COUNTERS DIVERGED",
            pass_health.summary(),
        ))
    print("plan replay        %s" % ("deterministic" if replay_ok else "BROKEN"))
    if channel_name:
        print("channel link       %s (%s: %d frames, %d retransmissions)" % (
            "deterministic" if channel_ok else "BROKEN",
            channel_name, first.frames, first.retransmissions))
    print(health.render())
    print("store root         %s" % (
        "temporary (removed)" if temporary else root))
    ok = identical and replay_ok and channel_ok
    print("verdict            %s" % (
        "faults cost time, never correctness" if ok else "FAILED"))
    return 0 if ok else 1


def _cmd_channel(args):
    if args.channel_command == "plans":
        from repro.api import channel_plan_names, named_channel_plan

        for name in channel_plan_names():
            plan = named_channel_plan(name)
            knobs = {
                key: value for key, value in sorted(plan.to_dict().items())
                if key not in ("name", "seed") and value
                and value != getattr(type(plan)(), key, None)
            }
            print("%-18s %s" % (name, ", ".join(
                "%s=%s" % (k, v) for k, v in knobs.items()) or "(no "
                "impairments)"))
        return 0
    if args.channel_command == "replay":
        from repro.api import (
            TraceError,
            read_channel_trace,
            replay_channel_trace,
        )

        try:
            payload = read_channel_trace(args.trace)
        except TraceError as exc:
            print("repro-checksums: %s" % exc, file=sys.stderr)
            return 2
        result = replay_channel_trace(payload, workers=args.workers)
        print("trace              %s" % args.trace)
        print("corpus             %s (%s bytes, seed %s)" % (
            payload["corpus"]["profile"], payload["corpus"]["bytes"],
            payload["corpus"].get("seed", 0)))
        print("plan               %s" % payload["plan"].get("name"))
        print("events             %d recorded" % len(payload["events"]))
        print("verdict            %s" % result.describe())
        return 0 if result.identical else 1

    from repro.api import (
        ArqConfig,
        PacketizerConfig,
        RunHealth,
        build_channel_trace,
        build_filesystem,
        named_channel_plan,
        run_channel_sweep,
        write_channel_trace,
    )

    fs = build_filesystem(args.profile, args.bytes, args.seed)
    plan = named_channel_plan(args.plan, seed=args.channel_seed)
    arq = ArqConfig(kind=args.arq, window=args.window,
                    timeout=args.timeout, budget=args.budget)
    config = PacketizerConfig(mss=args.mss, algorithm=args.algorithm)
    use_crc = not args.no_crc
    health = RunHealth()
    events = [] if args.trace else None
    report = run_channel_sweep(
        fs, plan, arq=arq, config=config, use_crc=use_crc,
        workers=args.workers, health=health, store=_make_store(args),
        events_out=events,
    )
    print("corpus             %s (%d bytes, %d files)" % (
        fs.name, fs.total_bytes, len(fs)))
    print("channel plan       %s (seed %d)" % (plan.name, plan.seed))
    print("ARQ                %s (window %d, budget %d)" % (
        arq.kind, arq.window, arq.budget))
    print("frames             %d" % report.frames)
    print("transmissions      %d (%.2f per frame)" % (
        report.transmissions, report.retransmission_ratio))
    print("timeouts           %d" % report.timeouts)
    print("frames rejected    %d (checksum verdicts)" % report.frames_rejected)
    print("delivered clean    %d" % report.delivered_clean)
    print("silently corrupted %d" % report.delivered_corrupted)
    print("frames abandoned   %d" % report.frames_failed)
    print("goodput            %.3f" % report.goodput)
    print("simulated ticks    %d (%d events)" % (report.ticks, report.events))
    if args.trace:
        payload = build_channel_trace(
            plan, arq, config, use_crc,
            {"profile": args.profile, "bytes": args.bytes,
             "seed": args.seed},
            events, report,
        )
        write_channel_trace(args.trace, payload)
        print("trace              %s (%d events)" % (args.trace, len(events)))
    if health.eventful:
        print(health.render())
    # Degraded delivery (abandoned or silently corrupted frames) is
    # the documented exit 4 -- a partial result, not a failure.
    return 4 if report.degraded else 0


def _cmd_bench(args):
    import json

    from repro.api import (
        bench_delta_table,
        latest_bench_snapshot,
        run_bench,
        validate_bench_snapshot,
        write_bench_snapshot,
    )

    if args.check:
        with open(args.check, encoding="utf-8") as handle:
            payload = json.load(handle)
        try:
            validate_bench_snapshot(payload)
        except ValueError as exc:
            print("repro-checksums: bench schema drift in %s: %s"
                  % (args.check, exc), file=sys.stderr)
            return 1
        print("%s: schema %s ok (%d algorithms, %d engine rows)" % (
            args.check, payload["schema"],
            len(payload["algorithms"]), len(payload["engine"])))
        return 0

    previous, previous_path = latest_bench_snapshot(args.out)
    payload = run_bench(quick=args.quick)
    path = write_bench_snapshot(payload, args.out)
    print("wrote %s (schema %s, %s matrix)" % (
        path, payload["schema"], "quick" if args.quick else "full"))
    print("")
    print(bench_delta_table(previous, payload))
    if previous_path is not None:
        print("\n(delta vs %s)" % previous_path)
    return 0


def _cmd_lint(args):
    from pathlib import Path

    from repro.lint import (
        all_rules,
        load_baseline_entries,
        render_json,
        render_markdown,
        render_sarif,
        render_text,
        run_lint,
        write_baseline,
    )
    from repro.lint.cache import LintCache
    from repro.lint.config import (
        DEFAULT_BASELINE_NAME,
        DEFAULT_CONTRACT_NAME,
        load_contract,
    )

    if args.list_rules:
        for rule in all_rules():
            print("%s %-32s %-8s %s" % (
                rule.id, rule.title, rule.severity, rule.invariant))
        return 0

    paths = list(args.paths or [])
    if not paths:
        paths = ["src"] if Path("src").is_dir() else ["."]

    baseline_path = Path(args.baseline or DEFAULT_BASELINE_NAME)
    baseline = {}
    if not args.no_baseline and not args.fix_baseline:
        try:
            baseline = load_baseline_entries(baseline_path)
        except ValueError as exc:
            print("repro-checksums: %s" % exc, file=sys.stderr)
            return 2

    contract = None
    if not args.no_contract:
        contract_path = Path(args.contract or DEFAULT_CONTRACT_NAME)
        if args.contract or contract_path.is_file():
            try:
                contract = load_contract(contract_path)
            except (OSError, ValueError) as exc:
                print("repro-checksums: %s" % exc, file=sys.stderr)
                return 2

    cache = LintCache(args.cache) if args.cache else None

    rules = None
    if args.rules:
        rules = [token.strip() for token in args.rules.split(",") if token.strip()]

    try:
        result = run_lint(paths, rules=rules, baseline=baseline,
                          cache=cache, contract=contract,
                          baseline_path=baseline_path)
    except KeyError as exc:
        print("repro-checksums: %s" % exc.args[0], file=sys.stderr)
        return 2

    if args.fix_baseline:
        count = write_baseline(result.findings, baseline_path)
        print("baseline rewritten: %d finding(s) recorded in %s" % (
            count, baseline_path))
        return 0

    renderer = {"text": render_text, "json": render_json,
                "md": render_markdown, "sarif": render_sarif}[args.fmt]
    print(renderer(result))
    return result.exit_code


#: Each subcommand in ``--help`` order: its help line, the function that
#: adds its flags (None when it takes none) and its handler.
_SUBCOMMANDS = {
    "algorithms": ("list available checksum/CRC algorithms", None,
                   _cmd_algorithms),
    "profiles": ("list synthetic filesystem profiles", None, _cmd_profiles),
    "sum": ("checksum one or more files", _sum_arguments, _cmd_sum),
    "run": ("regenerate a paper table or figure", _run_arguments, _cmd_run),
    "report": ("regenerate every experiment into one Markdown file",
               _report_arguments, _cmd_report),
    "splice": ("run a custom splice simulation", _splice_arguments,
               _cmd_splice),
    "cache": ("inspect or maintain the artifact store", _cache_arguments,
              _cmd_cache),
    "chaos": ("run a sweep under fault injection; verify counters survive",
              _chaos_arguments, _cmd_chaos),
    "channel": ("timed channel simulation with ARQ recovery "
                "(run | replay | plans)", _channel_arguments, _cmd_channel),
    "bench": ("run the benchmark workload matrix, write BENCH_<n>.json",
              _bench_arguments, _cmd_bench),
    "lint": ("run reprolint, the repo's domain-aware static analysis",
             _lint_arguments, _cmd_lint),
}


def _dispatch(args):
    return _SUBCOMMANDS[args.command][2](args)


#: Commands dispatched under a sweep guard (signal + deadline control).
_GUARDED_COMMANDS = ("run", "splice", "chaos", "channel")


def _sweep_kwargs(args):
    """``sweep_guard`` kwargs for a guarded command, or None."""
    if args.command not in _GUARDED_COMMANDS:
        return None
    kwargs = {
        "deadline": getattr(args, "deadline", None),
        "shard_timeout": getattr(args, "shard_timeout", None),
        "resume": getattr(args, "resume", False),
    }
    if getattr(args, "journal", False):
        from repro.api import default_journal_dir

        kwargs["journal_dir"] = default_journal_dir(
            getattr(args, "cache_dir", None)
        )
    return kwargs


def main(argv=None):
    """Run one command line (default ``sys.argv[1:]``); its exit code."""
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    metrics_dest = getattr(args, "metrics", None)
    if metrics_dest:
        from repro.api import activate_telemetry

        activate_telemetry()
    controller = None
    try:
        guard_kwargs = _sweep_kwargs(args)
        if guard_kwargs is not None:
            from repro.api import sweep_guard

            with sweep_guard(**guard_kwargs) as controller:
                code = _dispatch(args)
        else:
            code = _dispatch(args)
        if controller is not None and controller.deadline_fired and code == 0:
            # The sweep stopped on --deadline: the report above merged
            # only the completed shards; exit 3 marks it partial.
            print(
                "repro-checksums: deadline of %gs exceeded; the report "
                "above is partial (completed shards only)"
                % controller.deadline,
                file=sys.stderr,
            )
            code = 3
        if metrics_dest:
            from repro.api import current_telemetry, write_metrics

            write_metrics(current_telemetry().snapshot(), metrics_dest)
        return code
    except Exception as exc:
        from repro.api import RunAborted, SweepInterrupted

        if isinstance(exc, SweepInterrupted):
            # Stopped on an operator signal, *after* the journal flush:
            # one line saying where, then the conventional signal exit
            # code (130 for SIGINT, 143 for SIGTERM).
            print(
                "repro-checksums: %s; rerun with --resume to continue"
                % exc,
                file=sys.stderr,
            )
            return 128 + (exc.signum or 2)
        if isinstance(exc, RunAborted):
            # Every rung of the degradation ladder failed: one line, no
            # traceback — the diagnostic is the message.
            print("repro-checksums: run aborted: %s" % exc, file=sys.stderr)
            return 2
        raise
    finally:
        if metrics_dest:
            from repro.api import deactivate_telemetry

            deactivate_telemetry()


def console_main():
    """Entry of the ``repro-checksums`` script and ``python -m repro.cli``.

    Returns :func:`main`'s exit code.  If the main thread is the last
    one left, it first freezes every live object (:func:`gc.freeze`),
    so the interpreter's collections at exit skip what NumPy and the
    run leave alive.  That is safe because every file the CLI writes is
    closed before :func:`main` returns; a thread still running, such as
    a pool's manager, may need finalizers at exit, so then nothing is
    frozen.  :func:`main` never freezes: tests and benchmarks call it
    in-process.
    """
    code = main()
    if threading.active_count() == 1:
        gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(console_main())
