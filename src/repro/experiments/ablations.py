"""Section 5.5 / 6.x studies: pathological data and design ablations.

* :func:`pathological_families` -- Section 5.5: data patterns that
  defeat specific checksums (PBM 0/255 bitmaps vs Fletcher-255,
  hex-encoded PostScript bitmaps vs F-256 and TCP, gmon-style sparse
  profiles vs TCP).
* :func:`ablation_inverted_checksum` -- Section 6.3: storing the sum
  instead of its complement leaves the miss rate essentially unchanged
  (for TCP/IP, because the filled IP header already distinguishes the
  header cell).
* :func:`ablation_unfilled_ip_header` -- Section 6.2: the SIGCOMM '95
  simulator bug.  Leaving the IP ID/TTL/checksum bytes zero makes the
  header cell of an all-zero-payload packet zero-congruent, inflating
  the miss count by orders of magnitude.
* :func:`ablation_add_constant` -- Section 6.1: adding a constant to
  every word permutes the checksum distribution but leaves the failure
  rate roughly unchanged -- zero is frequent, not special.
* :func:`early_packet_discard` -- Section 7: with EPD-style tail
  dropping, no valid splice can form at all.
"""

from __future__ import annotations

from repro.core.experiment import run_splice_experiment
from repro.corpus.transforms import add_constant_to_words
from repro.experiments.render import TextTable, fmt_count, fmt_pct
from repro.experiments.report import ExperimentReport
from repro.experiments.splice_tables import _filesystem
from repro.protocols.packetizer import PacketizerConfig

__all__ = [
    "ablation_add_constant",
    "ablation_inverted_checksum",
    "ablation_unfilled_ip_header",
    "early_packet_discard",
    "pathological_families",
]

DEFAULT_FS_BYTES = 600_000
DEFAULT_SEED = 3

PATHOLOGICAL_SYSTEMS = (
    "pathological-pbm",
    "pathological-hexps",
    "pathological-gmon",
    "pathological-binhex",
    "uniform",
)


def pathological_families(fs_bytes=DEFAULT_FS_BYTES, seed=DEFAULT_SEED, store=None):
    """Section 5.5: per-family miss rates for TCP, F-255 and F-256."""
    base = PacketizerConfig()
    configs = [
        ("TCP", base),
        ("F-255", base.with_overrides(algorithm="fletcher255")),
        ("F-256", base.with_overrides(algorithm="fletcher256")),
    ]
    table = TextTable(["family", "TCP miss %", "F-255 miss %", "F-256 miss %"])
    data = {}
    for system in PATHOLOGICAL_SYSTEMS:
        fs = _filesystem(system, fs_bytes, seed, store)
        rates = {}
        for label, config in configs:
            c = run_splice_experiment(fs, config).counters
            rates[label] = c.miss_rate_transport
        table.add_row(
            system, fmt_pct(rates["TCP"]), fmt_pct(rates["F-255"]),
            fmt_pct(rates["F-256"]),
        )
        data[system] = rates
    return ExperimentReport(
        "pathological",
        "Pathological data patterns (Section 5.5)",
        table.render(),
        data,
    )


def ablation_inverted_checksum(
    fs_bytes=DEFAULT_FS_BYTES, seed=DEFAULT_SEED, system="sics-opt", store=None
):
    """Section 6.3: inverted vs non-inverted stored checksum."""
    fs = _filesystem(system, fs_bytes, seed, store)
    base = PacketizerConfig()
    inverted = run_splice_experiment(fs, base).counters
    plain = run_splice_experiment(fs, base.with_overrides(invert=False)).counters
    table = TextTable(["stored value", "missed", "remaining", "miss %"])
    table.add_row("~sum (standard)", fmt_count(inverted.missed_transport),
                  fmt_count(inverted.remaining), fmt_pct(inverted.miss_rate_transport))
    table.add_row("sum (ablation)", fmt_count(plain.missed_transport),
                  fmt_count(plain.remaining), fmt_pct(plain.miss_rate_transport))
    return ExperimentReport(
        "ablation-inverted",
        "Inverted vs non-inverted stored checksum (Section 6.3)",
        table.render(),
        dict(
            inverted_pct=inverted.miss_rate_transport,
            plain_pct=plain.miss_rate_transport,
        ),
    )


def ablation_unfilled_ip_header(
    fs_bytes=DEFAULT_FS_BYTES, seed=DEFAULT_SEED, system="sics-opt", store=None
):
    """Section 6.2: the unfilled-IP-header simulator bug."""
    fs = _filesystem(system, fs_bytes, seed, store)
    base = PacketizerConfig()
    filled = run_splice_experiment(fs, base).counters
    unfilled = run_splice_experiment(
        fs, base.with_overrides(fill_ip_header=False)
    ).counters
    ratio = (
        unfilled.miss_rate_transport / filled.miss_rate_transport
        if filled.miss_rate_transport
        else float("inf")
    )
    table = TextTable(["IP header", "missed", "remaining", "miss %"])
    table.add_row("filled (correct)", fmt_count(filled.missed_transport),
                  fmt_count(filled.remaining), fmt_pct(filled.miss_rate_transport))
    table.add_row("unfilled (1995 bug)", fmt_count(unfilled.missed_transport),
                  fmt_count(unfilled.remaining), fmt_pct(unfilled.miss_rate_transport))
    return ExperimentReport(
        "ablation-unfilled-header",
        "Filled vs unfilled IP header bytes (Section 6.2)",
        table.render() + "\ninflation factor: %.1fx" % ratio,
        dict(
            filled_pct=filled.miss_rate_transport,
            unfilled_pct=unfilled.miss_rate_transport,
            inflation=ratio,
        ),
    )


def ablation_add_constant(
    fs_bytes=DEFAULT_FS_BYTES, seed=DEFAULT_SEED, system="sics-opt", constant=1,
    store=None,
):
    """Section 6.1: is zero special?  Shift every word and re-measure."""
    fs = _filesystem(system, fs_bytes, seed, store)
    shifted = add_constant_to_words(fs, constant)
    config = PacketizerConfig()
    original = run_splice_experiment(fs, config).counters
    moved = run_splice_experiment(shifted, config).counters
    table = TextTable(["corpus", "missed", "remaining", "miss %"])
    table.add_row("original", fmt_count(original.missed_transport),
                  fmt_count(original.remaining), fmt_pct(original.miss_rate_transport))
    table.add_row("+%d per word" % constant, fmt_count(moved.missed_transport),
                  fmt_count(moved.remaining), fmt_pct(moved.miss_rate_transport))
    return ExperimentReport(
        "ablation-add-constant",
        "Adding a constant to every word (Section 6.1)",
        table.render(),
        dict(
            original_pct=original.miss_rate_transport,
            shifted_pct=moved.miss_rate_transport,
        ),
    )


def early_packet_discard(mss=256):
    """Section 7: EPD-style tail dropping admits no valid splice.

    Under Early Packet Discard a switch that drops one cell of a frame
    drops every subsequent cell of that frame too.  The deliverable
    cell sequences are then a *prefix* of the first frame's unmarked
    cells followed by the intact second frame; any non-empty prefix
    makes the cell count exceed the AAL5 length check, so the count of
    undetectable splices is identically zero.
    """
    cells = (40 + mss + 8 + 47) // 48
    # Prefix lengths 1 .. cells-1 each add that many cells to the
    # second frame's n2; the length check requires exactly n2 cells.
    reachable = [p for p in range(1, cells) if p + cells == cells]
    table = TextTable(["prefix cells kept", "frame cells", "passes length check"])
    for p in range(0, cells):
        table.add_row(p, p + cells, "yes" if p == 0 else "no")
    text = table.render() + (
        "\nEPD-reachable splices passing the AAL5 length check: %d"
        % len(reachable)
    )
    return ExperimentReport(
        "epd",
        "Early Packet Discard eliminates valid splices (Section 7)",
        text,
        dict(reachable_splices=len(reachable)),
    )
