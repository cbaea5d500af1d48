"""Tables 4-6: match probabilities, locality, and the colouring model.

These are the paper's diagnostic tables explaining *why* the splice
failure rates are what they are:

* Table 4 -- P[two k-cell blocks have congruent checksums]: the
  uniform-data expectation, the i.i.d. convolution prediction from the
  single-cell distribution, and the measured value.
* Table 5 -- the same probability measured globally, locally (blocks
  within 512 bytes), and locally excluding byte-identical pairs.
* Table 6 -- per-filesystem comparison of those sample statistics with
  the *actual* splice failure rate by substitution length, including
  the Section 5.4 cell-colouring correction that reconciles them.
"""

from __future__ import annotations

from repro.analysis.convolution import class_pmf, predicted_match_probability
from repro.analysis.distribution import block_checksum_values, cell_checksum_values
from repro.analysis.locality import locality_statistics
from repro.analysis.theory import coloring_correction
from repro.core.experiment import run_splice_experiment
from repro.experiments.render import TextTable, fmt_pct
from repro.experiments.report import ExperimentReport
from repro.experiments.splice_tables import _filesystem
from repro.protocols.packetizer import PacketizerConfig

__all__ = ["table4_matchprob", "table5_locality", "table6_local_vs_actual"]

DEFAULT_FS_BYTES = 1_000_000
DEFAULT_SEED = 3
_KS = (1, 2, 3, 4, 5)
_UNIFORM_PCT = 100.0 / 65536


def _measured_match_pct(fs, k):
    """Measured congruence probability of k-cell blocks, in percent."""
    if k == 1:
        values = cell_checksum_values(fs, "internet")
    else:
        values = block_checksum_values(fs, k)
    pmf = class_pmf(values)
    return 100.0 * float((pmf * pmf).sum())


def table4_matchprob(
    fs_bytes=DEFAULT_FS_BYTES, seed=DEFAULT_SEED, system="stanford-u1", store=None
):
    """Table 4: checksum match probability for k-cell substitutions."""
    fs = _filesystem(system, fs_bytes, seed, store)
    cell_values = cell_checksum_values(fs, "internet")
    table = TextTable(["length (cells)", "uniform", "predicted", "measured"])
    rows = []
    for k in _KS:
        predicted = 100.0 * predicted_match_probability(cell_values, k)
        measured = _measured_match_pct(fs, k)
        table.add_row(k, fmt_pct(_UNIFORM_PCT), fmt_pct(predicted), fmt_pct(measured))
        rows.append(
            dict(k=k, uniform_pct=_UNIFORM_PCT, predicted_pct=predicted,
                 measured_pct=measured)
        )
    return ExperimentReport(
        "table4",
        "Probability of checksum match for substitutions of length k (%s)" % system,
        table.render(),
        {"rows": rows, "system": system},
    )


def table5_locality(
    fs_bytes=DEFAULT_FS_BYTES, seed=DEFAULT_SEED, system="stanford-u1", store=None
):
    """Table 5: global vs local congruence, with identical exclusion."""
    fs = _filesystem(system, fs_bytes, seed, store)
    stats = locality_statistics(fs, ks=_KS)
    table = TextTable(
        ["length (cells)", "globally congruent", "locally congruent",
         "excluding identical"]
    )
    rows = []
    for k in _KS:
        g, local, excl = stats[k].as_percentages()
        table.add_row(k, fmt_pct(g), fmt_pct(local), fmt_pct(excl))
        rows.append(dict(k=k, global_pct=g, local_pct=local, excl_identical_pct=excl))
    return ExperimentReport(
        "table5",
        "Checksum match probability from local data (%s)" % system,
        table.render(),
        {"rows": rows, "system": system},
    )


def table6_local_vs_actual(
    fs_bytes=DEFAULT_FS_BYTES,
    seed=DEFAULT_SEED,
    systems=("stanford-u1", "sics-opt", "sics-src1", "sics-src2"), store=None,
):
    """Table 6: sample congruence statistics vs actual splice failures.

    The "colour-corrected" row applies Section 5.4's factor
    ``(m - k) / (m - 1)``: only substitutions avoiding the second
    packet's header cell can fail at the local-data rate.
    """
    config = PacketizerConfig()
    m = (40 + config.mss + 8 + 47) // 48  # cells per full-size frame
    sections = []
    data = {}
    for system in systems:
        fs = _filesystem(system, fs_bytes, seed, store)
        cell_values = cell_checksum_values(fs, "internet")
        stats = locality_statistics(fs, ks=_KS)
        counters = run_splice_experiment(fs, config).counters
        table = TextTable(["k"] + [str(k) for k in _KS])
        predicted = [100.0 * predicted_match_probability(cell_values, k) for k in _KS]
        global_row = [stats[k].as_percentages()[0] for k in _KS]
        local_row = [stats[k].as_percentages()[1] for k in _KS]
        excl_row = [stats[k].as_percentages()[2] for k in _KS]
        corrected = [
            excl_row[i] * coloring_correction(m, k) for i, k in enumerate(_KS)
        ]
        actual = [counters.miss_rate_by_len(k) for k in _KS]
        for label, row in (
            ("predicted (iid)", predicted),
            ("measured global", global_row),
            ("local congruence", local_row),
            ("exclude identical", excl_row),
            ("colour-corrected", corrected),
            ("actual", actual),
        ):
            table.add_row(label, *[fmt_pct(v) for v in row])
        sections.append("%s\n%s" % (system, table.render(indent="  ")))
        data[system] = dict(
            ks=list(_KS), predicted_pct=predicted, global_pct=global_row,
            local_pct=local_row, excl_identical_pct=excl_row,
            corrected_pct=corrected, actual_pct=actual,
        )
    return ExperimentReport(
        "table6",
        "Checksum congruence samples vs actual splice failures (Section 4.6/5.4)",
        "\n\n".join(sections),
        data,
    )
