"""Self-tests of the table benchmark.

    python3 -m pytest perfbench/tests -q

The smoke tests run every workload at the smallest pinned size, traced
and untraced (about half a minute on two cores).
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import bench_ledger  # noqa: E402
import run  # noqa: E402

#: The smallest size pinned in ``pins.json``.
SMOKE_BYTES = 20000


# ----------------------------------------------------------------------
# the percentile helper

@pytest.mark.parametrize("n, expected", [
    (19, (None, None, 19)),
    (20, (50, 10, 20)),
    (52, (75, 39, 52)),
    (100, (90, 90, 100)),
    (1000, (99, 990, 1000)),
    (10000, (99.9, 9990, 10000)),
])
def test_tail_percentile_has_ten_samples_beyond(n, expected):
    samples = list(range(n, 0, -1))  # order must not matter
    assert bench_ledger.tail_percentile(samples) == expected


# ----------------------------------------------------------------------
# the host gauge

def test_gauge_scales_a_process_by_the_samples_taken_while_it_ran():
    gauge = run.HostGauge()
    nominal = run.GAUGE_NOMINAL_S
    gauge.starts = [0.0, 1.0, 2.0, 3.0, 3.2]
    # The last sample was interrupted by steal: 20 times the others.
    gauge.times = [nominal, nominal, 2 * nominal, 2 * nominal, 40 * nominal]

    def proc(start, wall_s, steal_s=0.0):
        return run.Proc([], 0, wall_s, 0.0, b"", b"", start, steal_s)

    # Ran while the CPU was unslowed: its time stands, less steal.
    assert gauge.at_reference_speed(proc(-0.5, 2.0)) == pytest.approx(2.0)
    assert gauge.at_reference_speed(proc(-0.5, 2.0, 0.5)) == pytest.approx(
        1.5)
    # Ran at half speed: half its time at reference speed; the sample
    # steal interrupted is left out.
    assert gauge.at_reference_speed(proc(1.5, 2.0)) == pytest.approx(1.0)
    # No sample fell inside it: all samples stand in.
    assert gauge.at_reference_speed(proc(3.5, 0.1)) == pytest.approx(
        0.1 / 1.5)


def test_steal_is_counted_in_seconds():
    before = run.steal_s()
    assert 0 <= before <= run.steal_s()


def test_gauge_samples_while_open():
    with run.HostGauge() as gauge:
        time.sleep(0.2)
    count = len(gauge.times)
    time.sleep(0.1)
    assert count >= 3 and len(gauge.times) == len(gauge.starts) == count
    assert all(t > 0 for t in gauge.times)
    assert gauge.starts == sorted(gauge.starts)


# ----------------------------------------------------------------------
# output checks

@pytest.fixture(scope="module")
def table1_outputs(tmp_path_factory):
    scratch = tmp_path_factory.mktemp("iteration")
    results, stored = run.run_iteration(run.WORKLOADS["table1"], SMOKE_BYTES,
                                        run.DEFAULT_SEED, scratch)
    assert stored == {}  # no --cache, so no results cache to read
    return results


def _tamper(proc, old, new):
    text = proc.stdout.decode()
    assert old in text
    return run.Proc(proc.cmd, proc.code, proc.wall_s, proc.rss_mb,
                    text.replace(old, new, 1).encode(), proc.stderr)


def test_tampered_table_counts_in_failed_ratio(table1_outputs):
    pins = run.load_pins("table1", SMOKE_BYTES, run.DEFAULT_SEED)
    (_, _, first), (_, _, second) = table1_outputs
    tampered = _tamper(second, "nsc05", "nsc06")
    ledger = run.Ledger()
    reference = first.stdout
    for proc in (first, tampered):
        ledger.judge("table1", run.table_problems(
            proc, "table1", reference, pins.get("table1")))
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert "pinned" in ledger.failures[0]
    assert "differs" in ledger.failures[0]


def test_crc32_miss_in_table1_fails(table1_outputs):
    _, _, proc = table1_outputs[0]
    row = next(line for line in proc.stdout.decode().splitlines()
               if line.startswith("nsc05"))
    fields = row.split()
    fields[5] = "1"
    tampered = _tamper(proc, row, " ".join(fields))
    assert run.crc_column_problems(proc.stdout) == []
    assert run.crc_column_problems(tampered.stdout) == [
        "CRC-32 misses in nsc05"]


def test_failed_exit_and_stderr_fail(table1_outputs):
    _, _, proc = table1_outputs[0]
    broken = run.Proc(proc.cmd, 2, proc.wall_s, proc.rss_mb, proc.stdout,
                      b"repro-checksums: run aborted: boom\n")
    problems = run.table_problems(broken, "table1", proc.stdout, None)
    assert problems == ["exit code 2",
                        "stderr: repro-checksums: run aborted: boom"]


def test_supervision_record_fails_a_traced_table():
    assert run.record_problems({"health": ["clean", "clean"]}) == []
    assert run.record_problems(
        {"health": ["clean", "2 in-process fallbacks"]}) == [
        "supervision record: 2 in-process fallbacks"]
    assert run.record_problems(None) == ["traced run wrote no spans"]


def test_stored_report_health_fails_a_cached_table(tmp_path):
    from repro.api import open_store
    from repro.experiments.report import ExperimentReport
    from repro.store.keys import experiment_key

    results = open_store(tmp_path).results
    reports = {
        "table8": None,
        "table9": {"store_errors": 1},
        # Degradation notes alone are table data, not supervision.
        "table10": {"degradations": ["1 frame abandoned"]},
    }
    for experiment, health in reports.items():
        results.put_object(experiment_key(experiment),
                           ExperimentReport(experiment, "t", "x", health=health))
    experiments = tuple(reports) + ("table1",)
    assert run.stored_report_problems(tmp_path, experiments) == {
        "table9": ["stored report health: 1 store error"],
        "table1": ["no readable report in the results cache"],
    }


# ----------------------------------------------------------------------
# smoke runs of every workload

def _run(workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--bytes", str(SMOKE_BYTES), "--seconds", "0", "--trace",
         str(trace)],
        capture_output=True, text=True, timeout=300, cwd=HERE.parent,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.fixture(scope="module")
def smoke():
    runs = {}
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            stdout = _run(workload, trace)
            trace_file = None
            if trace:
                path = run.WORK / ("trace-%s.json" % workload)
                trace_file = json.loads(path.read_text(encoding="utf-8"))
            runs[workload, trace] = (stdout, trace_file)
    return runs


def _contract():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text(
        encoding="utf-8"))


def test_contract_matches_the_code():
    contract = _contract()
    for metric in contract["per_layer"]:
        assert bench_ledger.PER_LAYER_UNITS[metric["name"]] == metric["unit"]
    assert [w["name"] for w in contract["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_unit(smoke, workload, trace):
    stdout, _ = smoke[workload, trace]
    lines = stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True, stdout
    assert result["failed"] == 0 and result["attempted"] >= 2
    section = "per_layer" if trace else "end_to_end"
    units = bench_ledger.PER_LAYER_UNITS if trace else {
        m["name"]: m["unit"] for m in _contract()[section]}
    named = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 3 and fields[0] in units:
            named[fields[0]] = fields[2]
    assert named == units
    assert "failed_ratio" in stdout
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in _contract()[section]}


def _union(spans):
    covered, reach = 0.0, None
    for start, end in sorted((s[2], s[3]) for s in spans):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_layer_self_times_plus_remainder_make_wall(smoke, workload):
    _, trace = smoke[workload, 1]
    assert len(trace["tables"]) == run.PASSES * len(
        run.WORKLOADS[workload].experiments)
    for table in trace["tables"]:
        by_layer, remainder = bench_ledger.table_ledger(table)
        assert set(by_layer) == set(bench_ledger.LAYERS)
        assert sum(by_layer.values()) + remainder == pytest.approx(
            table["wall_s"], abs=1e-9)
        # Self times tile the spans exactly: no gap, no double count.
        assert sum(by_layer.values()) == pytest.approx(
            _union(table["spans"]), abs=1e-9)
        assert 0 < remainder < table["wall_s"]


def test_bypass_predictions_hold(smoke):
    metrics = {
        workload: bench_ledger.layer_metrics(smoke[workload, 1][1]["tables"])
        for workload in run.WORKLOADS
    }
    assert metrics["channel-arq"]["core.splices"] == 0
    assert metrics["table1"]["store.shard_lookups"] == 0
    assert metrics["channel-arq"]["store.shard_lookups"] == 0
    assert metrics["tables8-10-cached"]["store.shard_hits"] > 0
    assert metrics["tables8-10-cached"]["store.results_served_ratio"] == 0.5
    warm = [t for t in smoke["tables8-10-cached", 1][1]["tables"]
            if t["table"].startswith("p%d/" % run.PASSES)]
    assert warm and all(
        not any(s[1].startswith("corpus.") for s in t["spans"]) for t in warm)
