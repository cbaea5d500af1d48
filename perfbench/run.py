#!/usr/bin/env python3
"""End-to-end table benchmark of the ``repro-checksums`` CLI.

    python3 perfbench/run.py --workload table1 --bytes 200000 \\
        --seed 3 --seconds 40 --trace 0

Each workload is a closed loop of fresh ``python -m repro.cli run ...``
processes with CLI defaults (journal on, no ``--workers``), one at a
time, every process starting when the previous one exits.  An
iteration runs the workload's tables twice against one fresh store
root: the second pass is the warm pass.  Iterations repeat until
``--seconds`` have passed, and each end-to-end metric is the median
over them.  ``--seed`` reaches the program only as ``--seed``.

On a shared host a CPU runs up to twice as slowly while its sibling
hardware thread is busy, and the hypervisor takes it away for other
guests (steal time), both in stretches of seconds whose share drifts
over minutes, so raw times of the same code spread by a quarter from
run to run.  The runner therefore pins itself and its children to one
CPU.  Each timed process's wall time, less the steal the kernel
counted on that CPU meanwhile, is scaled to reference speed by a
thread of the runner (:class:`HostGauge`) that times a fixed piece of
interpreter work on the same CPU every few milliseconds.  So the
end-to-end times are what the work takes on a CPU of its own where the
gauge work takes ``GAUGE_NOMINAL_S``, about an unslowed CPU of the
2-vCPU Xeon VM the benchmark was built on.  The raw times are printed
beside them.

Every table's stdout is checked: exit code 0, empty stderr, the same
bytes in every pass and iteration, the sha256 pinned in
``perfbench/pins.json`` (default seed), and table 1's CRC-32 miss
column all zero.  ``run`` prints a report without its ``health``
record, so for the ``--cache`` workload the reports left in the results
cache are read back after each iteration: every table must have one,
and its RunHealth summary must be clean.  A table failing any check
counts as failed.

``--trace 1`` then replays one iteration through
``perfbench/bench_trace.py``, which calls ``repro.cli.main(argv)``
under per-layer wrappers in a fresh process per table.  The replay
must print the same bytes as the untraced runs and carry no
supervision record.  Its spans are written to
``perfbench/.work/trace-<workload>.json`` and
``perfbench/bench_ledger.py`` renders them.

The last line of stdout is one JSON object: ``correct``,
``attempted`` and ``failed`` (tables), and ``metrics`` -- the
``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``.  ``--repin`` records the
digests of a default-seed run in ``pins.json`` instead of checking
them; a deliberate output change re-pins in its own change.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from bench_ledger import (
    PER_LAYER_UNITS,
    coverage_pct,
    layer_metrics,
    render,
    tail_percentile,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
PINS = HERE / "pins.json"

#: The CLI's own default seed for the paper tables.
DEFAULT_SEED = 3
#: Passes per iteration, all against one store root; the last is "warm".
PASSES = 2
#: Fewest fresh set-up probes per run; ``setup_s`` is their median.
SETUP_PROBES = 5
#: A single CLI process taking longer than this is killed and fails.
PROCESS_TIMEOUT_S = 150.0
#: Pause between two gauge samples; each takes about 0.3 ms.
GAUGE_PERIOD_S = 0.025
#: :func:`gauge_work` on an unslowed CPU of a 2-vCPU Xeon VM.
GAUGE_NOMINAL_S = 0.00025

@dataclass(frozen=True)
class Workload:
    name: str
    #: experiment ids, run in this order in every pass.
    experiments: tuple
    #: pass ``--cache``: one RunStore shared by every process of an iteration.
    cache: bool = False

    def argv(self, experiment, nbytes, seed):
        argv = ["run", experiment, "--bytes", str(nbytes), "--seed", str(seed)]
        return argv + (["--cache"] if self.cache else [])


WORKLOADS = {w.name: w for w in (
    Workload("table1", ("table1",)),
    Workload("tables8-10-cached", ("table8", "table9", "table10"), cache=True),
    Workload("channel-arq", ("channel-arq",)),
)}


@dataclass
class Proc:
    """One finished child process."""

    cmd: list
    code: int
    wall_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes
    #: ``time.perf_counter()`` at launch.
    start: float = 0.0
    #: :func:`steal_s` while it ran.
    steal_s: float = 0.0


def steal_s():
    """Seconds the hypervisor has given this process's CPUs to other
    guests, as the kernel counts them in ``/proc/stat``."""
    cpus = {"cpu%d" % cpu for cpu in os.sched_getaffinity(0)}
    with open("/proc/stat", encoding="ascii") as stat:
        ticks = sum(int(fields[8]) for fields in map(str.split, stat)
                    if fields and fields[0] in cpus)
    return ticks / os.sysconf("SC_CLK_TCK")


def gauge_work():
    """Fixed interpreter work -- small dicts, lists and strings, the mix
    of the CLI's Python layers -- that runs no program code."""
    table = {}
    for i in range(1500):
        table[i % 97] = [i, str(i)]
    return len(table)


class HostGauge:
    """The speed of the runner's CPU, sampled while children run on it.

    A thread of the runner wakes every ``GAUGE_PERIOD_S`` and times
    :func:`gauge_work`, pausing the child that shares its CPU for about
    1% of the child's time.  The samples taken while a process ran
    measure the slowdown that process met.
    """

    def __init__(self):
        self.starts, self.times = [], []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _sample(self):
        while not self._stop.wait(GAUGE_PERIOD_S):
            start = time.perf_counter()
            gauge_work()
            # ``times`` first: a reader slicing by ``starts`` finds both.
            self.times.append(time.perf_counter() - start)
            self.starts.append(start)

    def at_reference_speed(self, proc):
        """``proc``'s wall time less steal, on a CPU where the gauge work
        takes ``GAUGE_NOMINAL_S``, from the gauge samples taken while it
        ran.  A sample that steal interrupted runs several times longer;
        it is left out, as steal is already taken off."""
        lo = bisect.bisect_left(self.starts, proc.start)
        hi = bisect.bisect_left(self.starts, proc.start + proc.wall_s)
        during = self.times[lo:hi] or self.times
        typical = statistics.median(during)
        speed = statistics.fmean(t for t in during if t <= 4 * typical)
        return (proc.wall_s - proc.steal_s) * GAUGE_NOMINAL_S / speed


@dataclass
class Ledger:
    """Tables attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def judge(self, label, problems):
        self.attempted += 1
        if problems:
            self.failures.append("%s: %s" % (label, "; ".join(problems)))

    @property
    def failed(self):
        return len(self.failures)


def child_env(store_root):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["REPRO_CHECKSUMS_CACHE"] = str(store_root)
    return env


def launch(cmd, env, scratch):
    """Run ``cmd`` to completion; wall time, steal and max RSS of that
    child."""
    out, err = scratch / "stdout", scratch / "stderr"
    with open(out, "wb") as fout, open(err, "wb") as ferr:
        stolen = steal_s()
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fout, stderr=ferr, env=env,
                                cwd=ROOT)
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        status = None
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            if status is None:  # interrupted: stop the child before leaving
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
        stolen = steal_s() - stolen
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(cmd, proc.returncode, wall, usage.ru_maxrss / 1024.0,
                out.read_bytes(), err.read_bytes(), start, stolen)


def table_id(index, experiment):
    """``p<pass>/<experiment>``: one table of one iteration."""
    return "p%d/%s" % (index, experiment)


def cli_cmd(table, argv):
    return [sys.executable, "-m", "repro.cli"] + argv


def run_iteration(workload, nbytes, seed, scratch, cmd=cli_cmd):
    """One closed-loop iteration: every pass, one fresh store root.

    Returns ``[(pass_index, experiment, Proc), ...]`` in launch order,
    and for a ``--cache`` workload the problems of the reports its
    results cache holds at the end (:func:`stored_report_problems`).
    """
    store = Path(tempfile.mkdtemp(prefix="store-", dir=scratch))
    env = child_env(store)
    results, stored = [], {}
    try:
        for index in range(1, PASSES + 1):
            for experiment in workload.experiments:
                cmd_line = cmd(table_id(index, experiment),
                               workload.argv(experiment, nbytes, seed))
                results.append(
                    (index, experiment, launch(cmd_line, env, scratch)))
        if workload.cache:
            stored = stored_report_problems(store, workload.experiments)
    finally:
        shutil.rmtree(store, ignore_errors=True)
    return results, stored


def stored_report_problems(store_root, experiments):
    """``{experiment: [problem, ...]}`` for the reports in a store's
    results cache: each experiment needs a readable report whose
    RunHealth summary is "clean" (its degradation notes are table data).
    """
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.api import RunHealth, open_store
    from repro.experiments.report import ExperimentReport

    results = open_store(store_root).results
    summaries = {}
    for key in list(results.store):
        report = results.get_object(key, ExperimentReport.from_json)
        if report is not None:
            summaries[report.experiment_id] = RunHealth.from_dict(
                report.health or {}).summary()
    problems = {}
    for experiment in experiments:
        summary = summaries.get(experiment)
        if summary is None:
            problems[experiment] = ["no readable report in the results cache"]
        elif summary != "clean":
            problems[experiment] = ["stored report health: %s" % summary]
    return problems


def crc_column_problems(stdout):
    """Paper finding 1: no CRC-32 misses in any table 1 row."""
    lines = stdout.decode("utf-8", "replace").splitlines()
    header = next((i for i, l in enumerate(lines) if "CRC misses" in l), None)
    if header is None:
        return ["no CRC misses column"]
    rows = [l.split() for l in lines[header + 2:] if l.strip()]
    rows = [r for r in rows if len(r) == 8]
    if not rows:
        return ["no table 1 rows"]
    bad = [r[0] for r in rows if r[5] != "0"]
    return ["CRC-32 misses in %s" % ", ".join(bad)] if bad else []


def table_problems(proc, experiment, reference, pin):
    """Every check one table's output fails (empty when it passes)."""
    problems = []
    if proc.code != 0:
        problems.append("exit code %d" % proc.code)
    if proc.stderr:
        lines = proc.stderr.decode("utf-8", "replace").strip().splitlines()
        problems.append("stderr: %s" % (lines or [""])[-1][:160])
    if reference is not None and proc.stdout != reference:
        problems.append("output differs from the first run of %s"
                        % experiment)
    digest = hashlib.sha256(proc.stdout).hexdigest()
    if pin is not None and digest != pin:
        problems.append("sha256 %s... is not the pinned %s..."
                        % (digest[:12], pin[:12]))
    if experiment == "table1":
        problems.extend(crc_column_problems(proc.stdout))
    return problems


def load_pins(workload, nbytes, seed):
    """``{experiment: sha256}`` pinned for this run, or ``{}``."""
    if seed != DEFAULT_SEED or not PINS.is_file():
        return {}
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    return pins.get(workload, {}).get(str(nbytes), {})


def write_pins(workload, nbytes, outputs):
    pins = json.loads(PINS.read_text(encoding="utf-8")) if PINS.is_file() else {}
    pins.setdefault(workload, {})[str(nbytes)] = {
        experiment: hashlib.sha256(stdout).hexdigest()
        for experiment, stdout in sorted(outputs.items())
    }
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def probe_setup(workload, scratch):
    """One fresh set-up probe process, finished."""
    store = Path(tempfile.mkdtemp(prefix="probe-", dir=scratch))
    cmd = [sys.executable, str(HERE / "bench_probe.py")]
    if workload.cache:
        cmd.append(str(store))
    proc = launch(cmd, child_env(store), scratch)
    shutil.rmtree(store, ignore_errors=True)
    if proc.code != 0:
        raise RuntimeError("set-up probe failed: %s" % proc.stderr[-400:])
    return proc


def timed_loop(workload, nbytes, seed, seconds, scratch, ledger, pins,
               gauge):
    """Iterate within ``seconds``; returns the per-iteration timings at
    reference speed and raw (``{"wall_s": [...], "warm_s": [...],
    "setup_s": [...]}`` each), peak RSS, and the reference output of
    each experiment.

    An iteration starts only if one as long as the last still ends in
    time, so a run lasts about ``seconds`` however slow the machine is.
    A set-up probe follows each iteration, so ``setup_s`` samples the
    same stretch of time as ``wall_s``.
    """
    scaled = {"wall_s": [], "warm_s": [], "setup_s": []}
    raw = {name: [] for name in scaled}
    peaks = []
    reference = {}

    def record(name, procs):
        scaled[name].append(sum(gauge.at_reference_speed(p) for p in procs))
        raw[name].append(sum(p.wall_s for p in procs))

    start = last = time.perf_counter()
    while True:
        results, stored = run_iteration(workload, nbytes, seed, scratch)
        record("setup_s", [probe_setup(workload, scratch)])
        record("wall_s", [p for _, _, p in results])
        record("warm_s", [p for i, _, p in results if i == PASSES])
        peaks.append(max(p.rss_mb for _, _, p in results))
        for index, experiment, proc in results:
            ledger.judge(
                table_id(index, experiment),
                table_problems(proc, experiment, reference.get(experiment),
                               pins.get(experiment))
                + (stored.get(experiment, []) if index == PASSES else []),
            )
            reference.setdefault(experiment, proc.stdout)
        now = time.perf_counter()
        if 2 * now - last - start > seconds:
            while len(raw["setup_s"]) < SETUP_PROBES:
                record("setup_s", [probe_setup(workload, scratch)])
            return scaled, raw, peaks, reference
        last = now


def record_problems(record):
    """The checks a traced table's span record fails."""
    if record is None:
        return ["traced run wrote no spans"]
    return ["supervision record: %s" % summary
            for summary in record["health"] if summary != "clean"]


def traced_iteration(workload, nbytes, seed, scratch, ledger, reference,
                     gauge):
    """Replay one iteration under the tracer; returns its table records."""
    spans_dir = Path(tempfile.mkdtemp(prefix="spans-", dir=scratch))

    def span_file(table):
        return spans_dir / (table.replace("/", "-") + ".json")

    def traced_cmd(table, argv):
        return [sys.executable, str(HERE / "bench_trace.py"), "--out",
                str(span_file(table)), "--table", table, "--"] + argv

    tables = []
    results, stored = run_iteration(workload, nbytes, seed, scratch,
                                    cmd=traced_cmd)
    for index, experiment, proc in results:
        table = table_id(index, experiment)
        path = span_file(table)
        record = json.loads(path.read_text(encoding="utf-8")) \
            if path.is_file() else None
        ledger.judge("traced " + table, table_problems(
            proc, experiment, reference.get(experiment), None)
            + record_problems(record)
            + (stored.get(experiment, []) if index == PASSES else []))
        if record is not None:
            record["wall_s"] = proc.wall_s
            record["wall_ref_s"] = gauge.at_reference_speed(proc)
            tables.append(record)
    return tables


def median(values):
    return statistics.median(values) if values else 0.0


def describe_timing(values, unit):
    """Median with the highest percentile that has ten samples beyond it."""
    pct, value, n = tail_percentile(values)
    tail = ("p%g %.4f %s" % (pct, value, unit)) if pct is not None else \
        "no percentile has ten samples beyond it"
    return "median %.4f %s of n=%d; %s; samples %s" % (
        median(values), unit, n, tail, " ".join("%.3f" % v for v in values))


def provenance(workload, nbytes, seed):
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "workload": workload.name,
        "argv": [workload.argv(e, nbytes, seed) for e in workload.experiments],
        "passes": PASSES,
    }


def emit(metrics, wanted, ledger):
    """The result line: the ``wanted`` contract metrics with their units."""
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--bytes", type=int, required=True,
                        help="synthetic filesystem size per table")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repin", action="store_true",
                        help="record this run's digests in pins.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print("perfbench: no src/repro under %s; run from a full checkout"
              % ROOT, file=sys.stderr)
        return 2
    if args.repin and args.seed != DEFAULT_SEED:
        parser.error("--repin pins the default seed %d only" % DEFAULT_SEED)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    pins = {} if args.repin else load_pins(workload.name, args.bytes, args.seed)

    # On SIGTERM, unwind through the finally blocks that stop children.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # One CPU for the runner, its gauge and every child.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        # Byte-compile up front so no timed process pays for it.
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        str(ROOT / "src")], stdout=subprocess.DEVNULL,
                       check=False, cwd=ROOT)
        info = provenance(workload, args.bytes, args.seed)
        for key, value in info.items():
            print("%-10s %s" % (key, value))
        if not pins and not args.repin:
            print("pins       none for this seed and size: outputs are "
                  "checked against each other only")

        ledger = Ledger()
        with HostGauge() as gauge:
            scaled, raw, peaks, reference = timed_loop(
                workload, args.bytes, args.seed, args.seconds, scratch,
                ledger, pins, gauge)
            if args.trace:
                tables = traced_iteration(workload, args.bytes, args.seed,
                                          scratch, ledger, reference, gauge)
        if args.repin:
            write_pins(workload.name, args.bytes, reference)
            print("pinned     %d tables in %s" % (len(reference), PINS))

        print("gauge      cpu %d; gauge work median %.4f ms, mean %.4f ms "
              "over n=%d samples; the times below are at reference speed, "
              "then raw" % (cpu, 1e3 * median(gauge.times),
                            1e3 * statistics.fmean(gauge.times),
                            len(gauge.times)))
        for name in scaled:
            print("%-10s %s" % (name, describe_timing(scaled[name], "s")))
            print("%-10s raw %s" % ("", describe_timing(raw[name], "s")))

        if args.trace:
            untraced = median(scaled["wall_s"])
            traced = sum(t["wall_ref_s"] for t in tables)
            trace = {
                "workload": workload.name, "bytes": args.bytes,
                "seed": args.seed, "provenance": info,
                "untraced_wall_s": untraced,
                "overhead_pct": 100.0 * (traced - untraced) / untraced,
                "tables": tables,
            }
            (WORK / ("trace-%s.json" % workload.name)).write_text(
                json.dumps(trace), encoding="utf-8")
            metrics = layer_metrics(tables)
            metrics["trace.overhead_pct"] = trace["overhead_pct"]
            metrics["trace.coverage_pct"] = coverage_pct(tables)
            print()
            print(render(trace))
            units, wanted = PER_LAYER_UNITS, contract["per_layer"]
        else:
            metrics = {
                "wall_s": median(scaled["wall_s"]),
                "setup_s": median(scaled["setup_s"]),
                "peak_rss_mb": median(peaks),
                "warm_s": median(scaled["warm_s"]),
                "ok_ratio": 1.0 - ledger.failed / ledger.attempted,
            }
            wanted = contract["end_to_end"]
            units = {m["name"]: m["unit"] for m in wanted}
        for name, unit in units.items():
            print("%-30s %18.6f %s" % (name, metrics[name], unit))
        print("failed_ratio %.6f ratio (%d failed of %d tables attempted)" % (
            ledger.failed / ledger.attempted, ledger.failed,
            ledger.attempted))
        for failure in ledger.failures:
            print("FAILED     %s" % failure)
        print()
        emit(metrics, wanted, ledger)
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
