"""Figures 2 and 3: checksum value distributions over real data.

Figure 2 plots the frequency-sorted PDF and CDF of the TCP checksum
over k-cell blocks (k = 1, 2, 4, 5) of one filesystem, against the
i.i.d. convolution prediction and the uniform line.  Figure 3 compares
the single-cell PDFs of the TCP checksum and both Fletcher variants.

The reports carry the sorted series in ``data`` and render a small
ASCII log-plot plus the headline statistics (most common value share,
top-0.1% coverage) in ``text``.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.convolution import predicted_block_distribution
from repro.analysis.distribution import distribution_over
from repro.experiments.render import TextTable, ascii_series, fmt_pct
from repro.experiments.report import ExperimentReport
from repro.experiments.splice_tables import _filesystem

__all__ = ["figure2_distribution", "figure3_fletcher_pdf"]

DEFAULT_FS_BYTES = 1_000_000
DEFAULT_SEED = 3
_TOP = 65  # the most common 0.1% of a 16-bit space, as in the paper


def figure2_distribution(
    fs_bytes=DEFAULT_FS_BYTES, seed=DEFAULT_SEED, system="stanford-u1", ks=(1, 2, 4, 5),
    store=None,
):
    """Figure 2: TCP checksum distribution over k-cell blocks."""
    fs = _filesystem(system, fs_bytes, seed, store)
    series_pdf = []
    series_cdf = []
    data = {"system": system, "ks": list(ks)}
    single = distribution_over(fs, "internet", 1)
    cell_values = None
    for k in ks:
        dist = distribution_over(fs, "internet", k=k)
        pdf = dist.sorted_pmf()[:_TOP]
        cdf = dist.sorted_cdf()[:_TOP]
        series_pdf.append(("k=%d" % k, pdf.tolist()))
        series_cdf.append(("k=%d" % k, cdf.tolist()))
        data["pdf_k%d" % k] = pdf.tolist()
        data["cdf_k%d" % k] = cdf.tolist()
    # The i.i.d. prediction for 2-cell blocks (the paper's dotted line).
    from repro.analysis.distribution import cell_checksum_values

    cell_values = cell_checksum_values(fs, "internet")
    predict = np.sort(predicted_block_distribution(cell_values, 2))[::-1][:_TOP]
    series_pdf.append(("predict k=2", predict.tolist()))
    data["predict_k2"] = predict.tolist()
    data["uniform"] = 1.0 / 65536
    data["pmax_pct"] = 100.0 * single.pmax
    data["top_0p1pct_share_pct"] = 100.0 * single.top_value_share(_TOP)

    stats = TextTable(["statistic", "value"])
    stats.add_row("cells measured", single.observations)
    stats.add_row("most common value share", fmt_pct(data["pmax_pct"]))
    stats.add_row(
        "top 0.1% of values cover", fmt_pct(data["top_0p1pct_share_pct"], 2)
    )
    stats.add_row("uniform per-value share", fmt_pct(100.0 / 65536))
    text = "\n\n".join(
        [
            ascii_series(
                series_pdf, title="sorted PDF, %d most common values (log y)" % _TOP
            ),
            ascii_series(
                series_cdf, logy=False, title="CDF over the %d most common" % _TOP
            ),
            stats.render(),
        ]
    )
    return ExperimentReport(
        "figure2",
        "Distribution of the TCP checksum over k-cell blocks (%s)" % system,
        text,
        data,
    )


def figure3_fletcher_pdf(
    fs_bytes=DEFAULT_FS_BYTES, seed=DEFAULT_SEED, system="stanford-u1", top=256,
    store=None,
):
    """Figure 3: single-cell PDFs of TCP, Fletcher-255 and Fletcher-256."""
    fs = _filesystem(system, fs_bytes, seed, store)
    series = []
    data = {"system": system, "top": top}
    match = {}
    for label, algorithm in (
        ("IP/TCP", "internet"),
        ("F255", "fletcher255"),
        ("F256", "fletcher256"),
    ):
        dist = distribution_over(fs, algorithm, 1)
        pdf = dist.sorted_pmf()[:top]
        series.append((label, pdf.tolist()))
        data["pdf_%s" % label.lower().replace("/", "_")] = pdf.tolist()
        match[label] = 100.0 * dist.match_probability()
    data["match_pct"] = match

    stats = TextTable(["checksum", "P[two cells match]"])
    for label in ("IP/TCP", "F255", "F256"):
        stats.add_row(label, fmt_pct(match[label]))
    text = "\n\n".join(
        [
            ascii_series(
                series,
                title="sorted single-cell PDF, %d most common values (log y)" % top,
            ),
            stats.render(),
        ]
    )
    return ExperimentReport(
        "figure3",
        "PDF of TCP, F-255 and F-256 checksums over 48-byte cells (%s)" % system,
        text,
        data,
    )
