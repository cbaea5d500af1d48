"""repro: reproduction of "Performance of Checksums and CRCs over Real Data".

Stone, Greenwald, Partridge, Hughes -- SIGCOMM 1995 (corrected version).

The library has four layers:

* :mod:`repro.checksums` -- the check codes themselves (Internet
  checksum, Fletcher mod-255/mod-256, a generic CRC engine with the
  AAL5 CRC-32 and friends) plus the partial-sum/combine algebra.
* :mod:`repro.protocols` -- IPv4/TCP packet construction, AAL5 framing
  into ATM cells, and the simulated FTP transfer.
* :mod:`repro.corpus` -- deterministic synthetic filesystems with the
  statistical structure of the paper's real UNIX volumes.
* :mod:`repro.core` / :mod:`repro.analysis` / :mod:`repro.experiments`
  -- the packet-splice engine, the distribution analyses, and one
  callable per published table and figure.
* :mod:`repro.store` -- the content-addressed artifact store behind
  cached, resumable, integrity-audited experiment runs.
* :mod:`repro.faults` -- deterministic fault injection (seeded fault
  plans, store/worker injectors) behind the chaos-tested execution
  layer (:mod:`repro.core.supervisor`).
* :mod:`repro.channel` -- the seeded discrete-event link simulator
  (burst loss, bit errors, bounded queues, reordering/duplication)
  with ARQ recovery driven by checksum verdicts, replayable
  bit-identically from recorded traces.
* :mod:`repro.telemetry` -- span-based tracing, counters/meters/
  histograms, and the ``bench`` harness; a strict no-op unless enabled.
* :mod:`repro.api` -- the stable facade these lazy exports come from
  (``run_experiment``, ``open_store``, ``algorithms``, ``sum_file``,
  ``experiment_ids``, ``Telemetry``).

Quickstart::

    from repro import build_filesystem, run_splice_experiment
    fs = build_filesystem("stanford-u1", 1_000_000, seed=3)
    result = run_splice_experiment(fs)
    print(result.counters.miss_rate_transport)  # % of bad splices missed
"""

import importlib

__version__ = "1.0.0"

#: Public name -> defining submodule, resolved lazily (PEP 562) so that
#: light entry points (the CLI, a warm cache hit) do not pay for the
#: whole package import graph.  ``from repro import X`` still works.
_EXPORTS = {
    # Implementation classes re-exported for power users; everything
    # else below comes through the stable facade.
    "EngineOptions": "repro.core",
    "FaultPlan": "repro.faults",
    "RunStore": "repro.store",
    "SpliceEngine": "repro.core",
    "SupervisedPool": "repro.core",
    "get_algorithm": "repro.checksums",
    "internet_checksum": "repro.checksums",
}

#: Every facade name (``repro.api.__all__``) re-exports here too, so
#: ``repro.X is repro.api.X`` holds across the whole contract.
_FACADE_EXPORTS = (
    "ArqConfig",
    "ChannelPlan",
    "ChannelReport",
    "ChecksumPlacement",
    "PacketizerConfig",
    "RunAborted",
    "RunHealth",
    "ShardJournal",
    "SweepInterrupted",
    "Telemetry",
    "TraceError",
    "activate_telemetry",
    "algorithm_names",
    "algorithm_summaries",
    "algorithms",
    "audit_run_store",
    "bench_delta_table",
    "build_channel_trace",
    "build_filesystem",
    "channel_plan_names",
    "current_controller",
    "current_telemetry",
    "deactivate_telemetry",
    "default_journal_dir",
    "experiment_ids",
    "generate_markdown_report",
    "latest_bench_snapshot",
    "lint_rules",
    "named_channel_plan",
    "named_plan",
    "open_journal",
    "open_store",
    "plan_names",
    "profile_names",
    "profile_summaries",
    "read_channel_trace",
    "replay_channel_trace",
    "run_bench",
    "run_channel_sweep",
    "run_channel_transfer",
    "run_experiment",
    "run_lint",
    "run_splice_experiment",
    "sum_file",
    "sweep_guard",
    "validate_bench_snapshot",
    "wrap_run_store",
    "write_bench_snapshot",
    "write_channel_trace",
    "write_figure_svg",
    "write_metrics",
)
for _name in _FACADE_EXPORTS:
    _EXPORTS[_name] = "repro.api"
del _name

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            "module %r has no attribute %r" % (__name__, name)
        ) from None
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: resolve each name at most once
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
