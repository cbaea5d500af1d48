"""Tables 1-3, 7, 8, 9 and 10: the splice simulation tables.

Each function materialises the named synthetic filesystems, runs the
splice simulation under the relevant packetizer configuration, and
renders rows in the paper's layout.  Sizes default to about a million
bytes per filesystem -- large enough for every observable rate, small
enough to regenerate a table in seconds; pass ``fs_bytes`` to scale up.

With a ``store`` (``run --cache``), each filesystem comes from the
store's ``corpora/`` namespace (:meth:`repro.store.runner.RunStore.filesystem`)
and each file's counters from its ``shards/``, so a table whose corpora
and shards are all stored imports neither the corpus generators nor the
engine, nor NumPy.
"""

from __future__ import annotations

from repro.core.experiment import run_splice_experiment
from repro.corpus.transforms import compress_filesystem
from repro.experiments.render import TextTable, fmt_count, fmt_pct
from repro.experiments.report import ExperimentReport
from repro.protocols.config import ChecksumPlacement, PacketizerConfig

__all__ = [
    "table1_nsc",
    "table2_sics",
    "table3_stanford",
    "table7_compressed",
    "table8_fletcher",
    "table9_trailer",
    "table10_header_vs_trailer",
]

DEFAULT_FS_BYTES = 1_000_000
DEFAULT_SEED = 3

_UNIFORM_MISS_PCT = 100.0 / 65536  # the 2^-16 expectation, in percent

TABLE1_SYSTEMS = ("nsc05", "nsc11", "nsc23", "nsc25")
TABLE2_SYSTEMS = ("sics-src1", "sics-src2", "sics-opt", "sics-solaris")
TABLE3_SYSTEMS = ("stanford-u1", "stanford-usr-local")
FLETCHER_SYSTEMS = (
    "sics-opt",
    "stanford-u1",
    "stanford-usr-local",
    "sics-src1",
    "sics-src2",
)


def _filesystem(name, fs_bytes, seed, store):
    """One system's corpus, read from ``store`` when the run holds one.

    Every experiment that builds a corpus gets it here.
    """
    if store is not None:
        return store.filesystem(name, fs_bytes, seed)
    from repro.corpus.profiles import build_filesystem

    return build_filesystem(name, fs_bytes, seed)


def _splice_rows(systems, fs_bytes, seed, config, workers=None, store=None, health=None):
    rows = []
    for name in systems:
        fs = _filesystem(name, fs_bytes, seed, store)
        result = run_splice_experiment(fs, config, workers=workers, store=store, health=health)
        rows.append((name, result.counters))
    return rows


def _render_splice_table(rows):
    table = TextTable(
        ["system", "total", "hdr-caught", "identical", "remaining",
         "CRC misses", "TCP misses", "TCP miss %"]
    )
    data = []
    for name, c in rows:
        table.add_row(
            name,
            fmt_count(c.total),
            fmt_count(c.caught_by_header),
            fmt_count(c.identical),
            fmt_count(c.remaining),
            fmt_count(c.missed_crc32),
            fmt_count(c.missed_transport),
            fmt_pct(c.miss_rate_transport),
        )
        data.append(
            dict(
                system=name,
                total=c.total,
                caught_by_header=c.caught_by_header,
                identical=c.identical,
                remaining=c.remaining,
                missed_crc32=c.missed_crc32,
                missed_tcp=c.missed_transport,
                miss_rate_tcp_pct=c.miss_rate_transport,
                miss_rate_crc16_pct=c.miss_rate_aux("crc16-ccitt"),
                effective_bits=c.effective_bits,
            )
        )
    footer = (
        "\nuniform-data expectation: TCP %s, CRC-32 %.2e%%"
        % (fmt_pct(_UNIFORM_MISS_PCT), 100 * 2**-32)
    )
    return table.render() + footer, data


def _splice_table_report(
    experiment_id, title, systems, fs_bytes, seed, workers=None, store=None, health=None
):
    rows = _splice_rows(
        systems, fs_bytes, seed, PacketizerConfig(),
        workers=workers, store=store, health=health,
    )
    text, data = _render_splice_table(rows)
    return ExperimentReport(experiment_id, title, text, {"rows": data})


def table1_nsc(fs_bytes=DEFAULT_FS_BYTES, seed=DEFAULT_SEED, workers=None, store=None, health=None):
    """Table 1: CRC and TCP checksum results, NSC-profile systems."""
    return _splice_table_report(
        "table1", "Splice results, 256-byte packets (NSC profiles)",
        TABLE1_SYSTEMS, fs_bytes, seed, workers=workers, store=store, health=health,
    )


def table2_sics(fs_bytes=DEFAULT_FS_BYTES, seed=DEFAULT_SEED, workers=None, store=None, health=None):
    """Table 2: CRC and TCP checksum results, SICS-profile systems."""
    return _splice_table_report(
        "table2", "Splice results, 256-byte packets (SICS profiles)",
        TABLE2_SYSTEMS, fs_bytes, seed, workers=workers, store=store, health=health,
    )


def table3_stanford(fs_bytes=DEFAULT_FS_BYTES, seed=DEFAULT_SEED, workers=None, store=None, health=None):
    """Table 3: CRC and TCP checksum results, Stanford-profile systems."""
    return _splice_table_report(
        "table3", "Splice results, 256-byte packets (Stanford profiles)",
        TABLE3_SYSTEMS, fs_bytes, seed, workers=workers, store=store, health=health,
    )


def table7_compressed(fs_bytes=DEFAULT_FS_BYTES, seed=DEFAULT_SEED, workers=None, store=None, health=None):
    """Table 7: the Section 5.1 compression counterfactual.

    Compressing the worst filesystem (sics-opt) restores a near-uniform
    distribution, so the TCP miss rate should fall back to ~2^-16.
    """
    fs = _filesystem("sics-opt", fs_bytes, seed, store)
    config = PacketizerConfig()
    before = run_splice_experiment(fs, config, workers=workers, store=store, health=health).counters
    after = run_splice_experiment(
        compress_filesystem(fs), config,
        workers=workers, store=store, health=health,
    ).counters
    table = TextTable(["corpus", "remaining", "TCP misses", "TCP miss %"])
    for label, c in (("sics-opt", before), ("sics-opt compressed", after)):
        table.add_row(
            label, fmt_count(c.remaining), fmt_count(c.missed_transport),
            fmt_pct(c.miss_rate_transport),
        )
    text = table.render() + "\nuniform-data expectation: %s" % fmt_pct(
        _UNIFORM_MISS_PCT
    )
    return ExperimentReport(
        "table7",
        "TCP checksum results on compressed data (Section 5.1)",
        text,
        {
            "miss_rate_before_pct": before.miss_rate_transport,
            "miss_rate_after_pct": after.miss_rate_transport,
            "uniform_pct": _UNIFORM_MISS_PCT,
            "remaining_after": after.remaining,
        },
    )


def table8_fletcher(fs_bytes=DEFAULT_FS_BYTES, seed=DEFAULT_SEED, workers=None, store=None, health=None):
    """Table 8: Fletcher mod-255 / mod-256 vs the TCP checksum."""
    base = PacketizerConfig()
    configs = [
        ("TCP", base),
        ("F-255", base.with_overrides(algorithm="fletcher255")),
        ("F-256", base.with_overrides(algorithm="fletcher256")),
    ]
    table = TextTable(["system", "checksum", "missed", "remaining", "miss %"])
    data = []
    for name in FLETCHER_SYSTEMS:
        fs = _filesystem(name, fs_bytes, seed, store)
        for label, config in configs:
            c = run_splice_experiment(
                fs, config,
                workers=workers, store=store, health=health,
            ).counters
            table.add_row(
                name if label == "TCP" else "",
                label,
                fmt_count(c.missed_transport),
                fmt_count(c.remaining),
                fmt_pct(c.miss_rate_transport),
            )
            data.append(
                dict(
                    system=name,
                    checksum=label,
                    missed=c.missed_transport,
                    remaining=c.remaining,
                    miss_rate_pct=c.miss_rate_transport,
                )
            )
    return ExperimentReport(
        "table8", "Fletcher's checksum results (256-byte packets)",
        table.render(), {"rows": data},
    )


def table9_trailer(fs_bytes=DEFAULT_FS_BYTES, seed=DEFAULT_SEED, workers=None, store=None, health=None):
    """Table 9: trailer-placed TCP checksum vs the header placement."""
    base = PacketizerConfig()
    trailer = base.with_overrides(placement=ChecksumPlacement.TRAILER)
    table = TextTable(
        ["system", "TCP miss %", "trailer miss %", "uniform %", "improvement"]
    )
    data = []
    for name in FLETCHER_SYSTEMS:
        fs = _filesystem(name, fs_bytes, seed, store)
        header_c = run_splice_experiment(fs, base, workers=workers, store=store, health=health).counters
        trailer_c = run_splice_experiment(fs, trailer, workers=workers, store=store, health=health).counters
        ratio = (
            header_c.miss_rate_transport / trailer_c.miss_rate_transport
            if trailer_c.miss_rate_transport
            else float("inf")
        )
        table.add_row(
            name,
            fmt_pct(header_c.miss_rate_transport),
            fmt_pct(trailer_c.miss_rate_transport),
            fmt_pct(_UNIFORM_MISS_PCT),
            "%.0fx" % ratio if ratio != float("inf") else "inf",
        )
        data.append(
            dict(
                system=name,
                tcp_miss_pct=header_c.miss_rate_transport,
                trailer_miss_pct=trailer_c.miss_rate_transport,
                improvement=ratio,
            )
        )
    return ExperimentReport(
        "table9", "Trailer checksum results (256-byte packets)",
        table.render(), {"rows": data},
    )


def table10_header_vs_trailer(
    fs_bytes=DEFAULT_FS_BYTES, seed=DEFAULT_SEED, workers=None, store=None, health=None
):
    """Table 10: false positives/negatives, header vs trailer placement."""
    fs = _filesystem("stanford-u1", fs_bytes, seed, store)
    base = PacketizerConfig()
    header_c = run_splice_experiment(fs, base, workers=workers, store=store, health=health).counters
    trailer_c = run_splice_experiment(
        fs, base.with_overrides(placement=ChecksumPlacement.TRAILER),
        workers=workers, store=store, health=health,
    ).counters

    def pct(count, total):
        return 100.0 * count / total if total else 0.0

    table = TextTable(["outcome", "header", "trailer"])
    table.add_row(
        "fails checksum, data identical",
        fmt_count(header_c.identical_rejected),
        fmt_count(trailer_c.identical_rejected),
    )
    table.add_row(
        "passes checksum, data changed",
        fmt_count(header_c.missed_transport),
        fmt_count(trailer_c.missed_transport),
    )
    table.add_row(
        "fails checksum, data identical (%)",
        fmt_pct(pct(header_c.identical_rejected, header_c.total)),
        fmt_pct(pct(trailer_c.identical_rejected, trailer_c.total)),
    )
    table.add_row(
        "passes checksum, data changed (%)",
        fmt_pct(header_c.miss_rate_transport),
        fmt_pct(trailer_c.miss_rate_transport),
    )
    data = dict(
        header_identical_rejected=header_c.identical_rejected,
        trailer_identical_rejected=trailer_c.identical_rejected,
        header_missed=header_c.missed_transport,
        trailer_missed=trailer_c.missed_transport,
        header_miss_pct=header_c.miss_rate_transport,
        trailer_miss_pct=trailer_c.miss_rate_transport,
    )
    return ExperimentReport(
        "table10",
        "Header vs trailer checksum failure modes (Section 5.3)",
        table.render(),
        data,
    )
