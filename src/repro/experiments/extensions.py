"""Extension experiments beyond the paper's tables.

These probe the questions the paper raises but does not measure:

* :func:`error_models` -- detection rates under the Section 7
  "alternative error models" (bit flips, bursts, word swaps, 0x00/0xFF
  runs, garbage), empirically confirming the Section 2 guarantees.
* :func:`mss_sweep` -- how the splice miss rate changes with segment
  size (more cells per packet -> more convolved sums -> closer to
  uniform, per Corollary 3).
* :func:`loss_models` -- the Section 4.6 caveat quantified: weighted
  splice statistics under independent vs bursty cell loss, plus the
  fact that independent loss makes every splice equally likely.
* :func:`monte_carlo_crosscheck` -- the physical simulation (drop
  cells, reassemble, judge) agreeing with the exact enumeration.
"""

from __future__ import annotations

from repro.core.biterrors import (
    BitFlips,
    BurstError,
    GarbageRun,
    RunOverwrite,
    WordSwap,
    error_detection_experiment,
)
from repro.core.engine import EngineOptions, SpliceEngine
from repro.core.lossmodel import weighted_splice_rates
from repro.core.montecarlo import run_monte_carlo
from repro.core.results import SpliceCounters
from repro.experiments.render import TextTable, fmt_pct
from repro.experiments.report import ExperimentReport
from repro.experiments.splice_tables import _filesystem
from repro.protocols.cellstream import GilbertLoss, IndependentLoss
from repro.protocols.ftpsim import FileTransferSimulator
from repro.protocols.packetizer import PacketizerConfig

__all__ = [
    "corpus_stats",
    "error_models",
    "failure_locality",
    "fragment_splices",
    "loss_models",
    "monte_carlo_crosscheck",
    "mss_sweep",
    "uniformity_checks",
]

DEFAULT_FS_BYTES = 300_000
DEFAULT_SEED = 3


def error_models(
    fs_bytes=DEFAULT_FS_BYTES, seed=DEFAULT_SEED, system="stanford-u1", store=None
):
    """Detection rates under alternative error models (Section 7)."""
    fs = _filesystem(system, fs_bytes, seed, store)
    injectors = [
        BitFlips(1),
        BitFlips(3),
        BurstError(15),
        BurstError(16),
        BurstError(33),
        WordSwap(),
        RunOverwrite(32, 0x00),
        RunOverwrite(32, 0xFF),
        GarbageRun(48),
    ]
    data = {}
    table = TextTable(
        ["error model", "TCP detect %", "F-256 detect %", "CRC-32 detect %"]
    )
    tcp_rows = error_detection_experiment(
        fs, PacketizerConfig(), injectors, trials_per_packet=2, seed=seed
    )
    f256_rows = error_detection_experiment(
        fs, PacketizerConfig(algorithm="fletcher256"), injectors,
        trials_per_packet=2, seed=seed,
    )
    for injector in injectors:
        name = injector.name
        tcp = tcp_rows[name]
        f256 = f256_rows[name]
        table.add_row(
            name,
            fmt_pct(tcp.transport_rate(), 3),
            fmt_pct(f256.transport_rate(), 3),
            fmt_pct(tcp.crc32_rate(), 3),
        )
        data[name] = dict(
            tcp_pct=tcp.transport_rate(),
            f256_pct=f256.transport_rate(),
            crc32_pct=tcp.crc32_rate(),
            trials=tcp.trials,
        )
    return ExperimentReport(
        "error-models",
        "Detection rates under alternative error models (Sections 2 and 7)",
        table.render(),
        data,
    )


def mss_sweep(
    fs_bytes=DEFAULT_FS_BYTES,
    seed=DEFAULT_SEED,
    system="sics-opt",
    sizes=(128, 256, 536, 1024),
    sample=20_000, store=None,
):
    """Splice miss rate vs segment size.

    Larger segments mean more cells per packet, hence block sums
    convolved over more cells (Corollary 3 pushes them toward
    uniform); splice counts explode combinatorially, so pairs beyond
    ``sample`` splices are sampled uniformly.
    """
    fs = _filesystem(system, fs_bytes, seed, store)
    table = TextTable(
        ["MSS", "cells/packet", "splices judged", "TCP miss %"]
    )
    data = {"system": system, "rows": []}
    for mss in sizes:
        config = PacketizerConfig(mss=mss)
        simulator = FileTransferSimulator(config)
        options = EngineOptions.from_packetizer(
            config, sample_splices=sample, aux_crcs=()
        )
        engine = SpliceEngine(options)
        counters = SpliceCounters()
        for file in fs:
            counters += engine.evaluate_stream(simulator.wire(file.data))
        cells = (40 + mss + 8 + 47) // 48
        row = dict(
            mss=mss,
            cells=cells,
            splices=counters.total,
            miss_pct=counters.miss_rate_transport,
        )
        data["rows"].append(row)
        table.add_row(mss, cells, row["splices"], fmt_pct(row["miss_pct"]))
    return ExperimentReport(
        "mss-sweep",
        "Splice miss rate vs segment size (%s)" % system,
        table.render(),
        data,
    )


def loss_models(
    fs_bytes=DEFAULT_FS_BYTES, seed=DEFAULT_SEED, system="sics-opt", store=None
):
    """Weighted splice statistics under different loss processes."""
    fs = _filesystem(system, fs_bytes, seed, store)
    config = PacketizerConfig()
    options = EngineOptions.from_packetizer(config, aux_crcs=())
    simulator = FileTransferSimulator(config)
    models = [
        ("independent p=0.1", IndependentLoss(0.1)),
        ("independent p=0.3", IndependentLoss(0.3)),
        ("Gilbert bursty (0.05, 0.3)", GilbertLoss(0.05, 0.3)),
        ("Gilbert bursty (0.02, 0.15)", GilbertLoss(0.02, 0.15)),
    ]
    table = TextTable(
        ["loss process", "P[corrupted]/pair", "P[TCP miss]/pair",
         "conditional miss %"]
    )
    data = {"system": system}
    for label, model in models:
        totals = {"pairs": 0, "p_corrupted": 0.0, "p_transport_miss": 0.0}
        weighted_missed = weighted_remaining = 0.0
        for file in fs:
            units = simulator.transfer(file.data)
            if len(units) < 2:
                continue
            rates = weighted_splice_rates(units, model, options)
            totals["pairs"] += rates["pairs"]
            weighted_remaining += rates["p_corrupted"] * rates["pairs"]
            weighted_missed += rates["p_transport_miss"] * rates["pairs"]
        pairs = max(totals["pairs"], 1)
        conditional = (
            100.0 * weighted_missed / weighted_remaining if weighted_remaining else 0.0
        )
        table.add_row(
            label,
            "%.3e" % (weighted_remaining / pairs),
            "%.3e" % (weighted_missed / pairs),
            fmt_pct(conditional),
        )
        data[label] = dict(
            p_corrupted=weighted_remaining / pairs,
            p_transport_miss=weighted_missed / pairs,
            conditional_miss_pct=conditional,
        )
    return ExperimentReport(
        "loss-models",
        "Splice statistics weighted by cell-loss process (Section 4.6)",
        table.render(),
        data,
    )


def monte_carlo_crosscheck(
    fs_bytes=120_000, seed=DEFAULT_SEED, system="pathological-gmon", trials=40,
    store=None,
):
    """Physical drop-and-reassemble simulation vs exact enumeration."""
    fs = _filesystem(system, fs_bytes, seed, store)
    config = PacketizerConfig()
    options = EngineOptions.from_packetizer(config, aux_crcs=())
    simulator = FileTransferSimulator(config)
    engine = SpliceEngine(options)

    tally = None
    counters = SpliceCounters()
    for index, file in enumerate(fs):
        part = run_monte_carlo(
            simulator.transfer(file.data),
            IndependentLoss(0.25),
            options,
            trials=trials,
            seed=seed + index,
        )
        tally = part if tally is None else tally + part
        counters += engine.evaluate_stream(simulator.wire(file.data))

    table = TextTable(["statistic", "Monte Carlo", "enumeration"])
    table.add_row("corrupted frames judged", tally.corrupted_frames,
                  counters.remaining)
    table.add_row("transport miss rate", fmt_pct(tally.transport_miss_rate, 3),
                  fmt_pct(counters.miss_rate_transport, 3))
    table.add_row("undetected corruption", tally.undetected_corruption,
                  "n/a (CRC covers)")
    spans = ", ".join(
        "%d frames: %d" % (span, count)
        for span, count in sorted(tally.corrupted_by_span.items())
    )
    table.add_row("corrupted-frame spans", spans or "none", "2 frames only")
    data = dict(
        mc_miss_pct=tally.transport_miss_rate,
        enum_miss_pct=counters.miss_rate_transport,
        mc_corrupted=tally.corrupted_frames,
        undetected=tally.undetected_corruption,
        frames=tally.frames_received,
        corrupted_by_span={int(k): v for k, v in tally.corrupted_by_span.items()},
    )
    return ExperimentReport(
        "montecarlo",
        "Monte Carlo cell loss vs exact splice enumeration (%s)" % system,
        table.render(),
        data,
    )


def fragment_splices(
    fs_bytes=150_000, seed=DEFAULT_SEED, system="sics-opt", mtu=92, store=None
):
    """The fragmentation-and-reassembly error model vs the cell model.

    Same-offset fragment substitutions do not shift any byte, so
    Fletcher's positional term loses the "colouring" advantage it has
    against cell splices -- the abstract's offset-colouring claim
    measured from the other direction.
    """
    from repro.core.fragsplice import run_fragment_splice_experiment
    from repro.core.experiment import run_splice_experiment

    fs = _filesystem(system, fs_bytes, seed, store)
    base = PacketizerConfig()
    fragment_results = run_fragment_splice_experiment(fs, base, mtu=mtu)

    cell_rates = {}
    for algorithm in ("tcp", "fletcher255", "fletcher256"):
        counters = run_splice_experiment(
            fs, base.with_overrides(algorithm=algorithm)
        ).counters
        cell_rates[algorithm] = counters.miss_rate_transport

    table = TextTable(
        ["checksum", "cell-splice miss %", "fragment-splice miss %"]
    )
    data = {"system": system, "mtu": mtu}
    for algorithm in ("tcp", "fletcher255", "fletcher256"):
        fragment = fragment_results[algorithm]
        table.add_row(
            algorithm,
            fmt_pct(cell_rates[algorithm]),
            fmt_pct(fragment.miss_rate(algorithm)),
        )
        data[algorithm] = dict(
            cell_pct=cell_rates[algorithm],
            fragment_pct=fragment.miss_rate(algorithm),
            fragment_remaining=fragment.remaining,
        )
    return ExperimentReport(
        "fragment-splices",
        "Cell splices (shifted) vs fragment splices (same offset)",
        table.render(),
        data,
    )


def failure_locality(
    fs_bytes=600_000, seed=DEFAULT_SEED, system="stanford-u1", store=None
):
    """Section 5.5's locality of failure: misses spike in a few files."""
    from repro.core.experiment import run_per_file_experiment

    fs = _filesystem(system, fs_bytes, seed, store)
    per_file = run_per_file_experiment(fs, PacketizerConfig())
    total_missed = sum(c.missed_transport for _, c in per_file)
    total_bytes = sum(f.size for f, _ in per_file)
    ranked = sorted(per_file, key=lambda item: item[1].missed_transport,
                    reverse=True)

    table = TextTable(["file", "kind", "bytes", "missed", "miss %"])
    for file, counters in ranked[:8]:
        table.add_row(
            file.name.split("/")[-1], file.kind, file.size,
            counters.missed_transport, fmt_pct(counters.miss_rate_transport),
        )
    top = ranked[: max(1, len(ranked) // 20)]
    top_missed = sum(c.missed_transport for _, c in top)
    top_bytes = sum(f.size for f, _ in top)
    share = 100.0 * top_missed / total_missed if total_missed else 0.0
    byte_share = 100.0 * top_bytes / total_bytes if total_bytes else 0.0
    text = table.render() + (
        "\n\ntop 5%% of files (%.1f%% of bytes) account for %.1f%% of all "
        "TCP misses" % (byte_share, share)
    )
    return ExperimentReport(
        "failure-locality",
        "Locality of checksum failure (Section 5.5)",
        text,
        dict(
            system=system,
            files=len(per_file),
            total_missed=total_missed,
            top_share_pct=share,
            top_byte_share_pct=byte_share,
            worst=[
                dict(name=f.name, kind=f.kind, missed=c.missed_transport)
                for f, c in ranked[:8]
            ],
        ),
    )


def uniformity_checks(samples=150_000, seed=2024, fs_bytes=None):
    """Theorems 6/7 verified statistically against the implementations.

    ``fs_bytes`` is accepted (and ignored) for registry uniformity.
    """
    from repro.analysis.uniformity import (
        checksum_uniformity_test,
        fletcher_component_test,
    )

    table = TextTable(["test", "samples", "chi-square", "p-value", "uniform?"])
    data = {}
    results = [
        checksum_uniformity_test("internet", samples=samples, seed=seed),
        checksum_uniformity_test("fletcher255", samples=samples, seed=seed),
        checksum_uniformity_test("fletcher256", samples=samples, seed=seed),
        fletcher_component_test(255, samples=samples, seed=seed),
        fletcher_component_test(256, samples=samples, seed=seed),
    ]
    for result in results:
        table.add_row(
            result.algorithm, result.samples, "%.1f" % result.statistic,
            "%.4f" % result.p_value,
            "yes" if result.consistent_with_uniform else "NO",
        )
        data[result.algorithm] = result.p_value
    return ExperimentReport(
        "uniformity",
        "Checksum uniformity over uniform data (Theorems 6 and 7)",
        table.render(),
        data,
    )


def corpus_stats(
    fs_bytes=DEFAULT_FS_BYTES, seed=DEFAULT_SEED, system="stanford-u1", store=None
):
    """Per-family corpus statistics: the entropy chain behind the misses.

    Byte entropy -> cell-checksum concentration (Renyi-2 "effective
    bits") -> splice miss rate.  Documents what the synthetic corpus
    actually looks like to a checksum.
    """
    from repro.analysis.entropy import corpus_statistics

    fs = _filesystem(system, fs_bytes, seed, store)
    table = TextTable(
        ["family", "bytes", "byte entropy", "zero frac",
         "checksum pmax", "effective bits"]
    )
    data = {}
    for stats in corpus_statistics(fs):
        table.add_row(
            stats.name,
            stats.sample_bytes,
            "%.2f b/B" % stats.byte_entropy_bits,
            "%.3f" % stats.zero_fraction,
            fmt_pct(stats.checksum_pmax_pct, 3),
            "%.1f" % stats.checksum_effective_bits,
        )
        data[stats.name] = dict(
            byte_entropy=stats.byte_entropy_bits,
            zero_fraction=stats.zero_fraction,
            pmax_pct=stats.checksum_pmax_pct,
            effective_bits=stats.checksum_effective_bits,
        )
    return ExperimentReport(
        "corpus-stats",
        "Per-family corpus statistics (%s)" % system,
        table.render(),
        data,
    )
