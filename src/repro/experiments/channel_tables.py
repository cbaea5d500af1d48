"""The channel-resilience experiment family.

The splice tables ask "what fraction of corrupted frames does each
checksum miss?"; these experiments ask the operational question behind
it: **when a protocol stack actually retransmits on those verdicts,
what reaches the application?**  Three views:

* :func:`channel_regimes` -- undetected-corruption rate per checksum
  algorithm across channel regimes, with the AAL5 CRC removed so the
  transport checksum is the last line of defence (the paper's
  Section 4 scenario, now under a timed channel with burst errors);
* :func:`channel_goodput` -- goodput and retransmission overhead as
  the channel degrades (independent loss swept from clean to awful);
* :func:`channel_arq` -- the ARQ disciplines compared on the same
  bursty link: transmissions, timeouts, out-of-order discards, and
  what each delivered.

Every run is a seeded simulation; the tables are bit-identical across
runs and ``--workers`` settings.
"""

from __future__ import annotations

from repro.channel.arq import ArqConfig
from repro.channel.plan import ChannelPlan, named_channel_plan
from repro.channel.sweep import run_channel_sweep
from repro.experiments.render import TextTable, fmt_count, fmt_pct
from repro.experiments.report import ExperimentReport
from repro.experiments.splice_tables import _filesystem

__all__ = ["channel_arq", "channel_goodput", "channel_regimes"]

DEFAULT_FS_BYTES = 400_000
DEFAULT_SEED = 3


def _row_data(report):
    return dict(
        frames=report.frames,
        transmissions=report.transmissions,
        retransmissions=report.retransmissions,
        timeouts=report.timeouts,
        frames_rejected=report.frames_rejected,
        out_of_order=report.out_of_order,
        delivered_clean=report.delivered_clean,
        delivered_corrupted=report.delivered_corrupted,
        frames_failed=report.frames_failed,
        goodput=report.goodput,
        delivery_ratio=report.delivery_ratio,
        retransmission_ratio=report.retransmission_ratio,
        cells_sent=report.cells_sent,
        ticks=report.ticks,
    )


def channel_regimes(
    fs_bytes=DEFAULT_FS_BYTES,
    seed=DEFAULT_SEED,
    system="nsc05",
    workers=None,
    store=None,
    health=None,
):
    """Silent corruption per checksum algorithm x channel regime.

    The AAL5 CRC is disabled (``use_crc=False``) so acceptance rests
    on the transport checksum alone -- the configuration in which the
    paper's miss rates translate directly into corrupted frames handed
    to the application.  Burst regimes are where the algorithms
    separate: clustered bit errors produce exactly the structured
    differences weak checksums miss.
    """
    fs = _filesystem(system, fs_bytes, seed, store)
    regimes = ("clean", "lossy-link", "bursty-link", "congested-queue")
    algorithms = ("tcp", "fletcher255", "fletcher256")
    table = TextTable(
        ["regime", "algorithm", "delivered", "corrupted", "failed",
         "silent corruption %"]
    )
    data = {"system": system, "rows": []}
    from repro.protocols.packetizer import PacketizerConfig

    for regime in regimes:
        plan = named_channel_plan(regime, seed=seed)
        for algorithm in algorithms:
            report = run_channel_sweep(
                fs, plan, arq=ArqConfig(),
                config=PacketizerConfig(algorithm=algorithm),
                use_crc=False, workers=workers, health=health, store=store,
            )
            rate = (
                report.delivered_corrupted / report.delivered
                if report.delivered else 0.0
            )
            table.add_row(
                regime, algorithm,
                fmt_count(report.delivered),
                fmt_count(report.delivered_corrupted),
                fmt_count(report.frames_failed),
                fmt_pct(rate * 100, 4),
            )
            data["rows"].append(dict(
                regime=regime, algorithm=algorithm,
                silent_corruption_rate=rate, **_row_data(report),
            ))
    return ExperimentReport(
        "channel-regimes",
        "Silent corruption by checksum algorithm across channel regimes "
        "(no CRC)",
        table.render(),
        data,
    )


def channel_goodput(
    fs_bytes=DEFAULT_FS_BYTES,
    seed=DEFAULT_SEED,
    system="nsc05",
    loss_rates=(0.0, 0.02, 0.05, 0.1, 0.2),
    workers=None,
    store=None,
    health=None,
):
    """Goodput and retransmission overhead vs channel badness."""
    fs = _filesystem(system, fs_bytes, seed, store)
    table = TextTable(
        ["loss rate", "transmissions", "retx ratio", "goodput",
         "delivered %", "ticks"]
    )
    data = {"system": system, "rows": []}
    for loss_rate in loss_rates:
        plan = ChannelPlan(
            name="goodput-%g" % loss_rate, seed=seed, loss_rate=loss_rate
        )
        report = run_channel_sweep(
            fs, plan, arq=ArqConfig(), workers=workers, health=health,
            store=store,
        )
        table.add_row(
            "%.2f" % loss_rate,
            fmt_count(report.transmissions),
            "%.2f" % report.retransmission_ratio,
            "%.3f" % report.goodput,
            fmt_pct(report.delivery_ratio * 100, 2),
            fmt_count(int(report.ticks)),
        )
        data["rows"].append(dict(loss_rate=loss_rate, **_row_data(report)))
    return ExperimentReport(
        "channel-goodput",
        "Goodput and retransmission overhead vs channel loss rate",
        table.render(),
        data,
    )


def channel_arq(
    fs_bytes=DEFAULT_FS_BYTES,
    seed=DEFAULT_SEED,
    system="nsc05",
    workers=None,
    store=None,
    health=None,
):
    """The three ARQ disciplines on the same bursty link."""
    fs = _filesystem(system, fs_bytes, seed, store)
    plan = named_channel_plan("bursty-link", seed=seed)
    table = TextTable(
        ["ARQ", "transmissions", "timeouts", "out-of-order", "delivered %",
         "failed", "ticks"]
    )
    data = {"system": system, "plan": plan.to_dict(), "rows": []}
    for kind in ("stop-and-wait", "go-back-n", "selective-repeat"):
        report = run_channel_sweep(
            fs, plan, arq=ArqConfig(kind=kind), workers=workers,
            health=health, store=store,
        )
        table.add_row(
            kind,
            fmt_count(report.transmissions),
            fmt_count(report.timeouts),
            fmt_count(report.out_of_order),
            fmt_pct(report.delivery_ratio * 100, 2),
            fmt_count(report.frames_failed),
            fmt_count(int(report.ticks)),
        )
        data["rows"].append(dict(arq=kind, **_row_data(report)))
    return ExperimentReport(
        "channel-arq",
        "ARQ disciplines compared on the bursty link",
        table.render(),
        data,
    )
