"""The stable public API of the ``repro`` package.

Everything a downstream script (or the CLI) needs lives behind this
facade; the implementation modules behind it may move between
releases, this module will not.  Import either way::

    from repro.api import run_experiment, sum_file
    from repro import run_experiment            # same objects, lazily

Each function imports its implementation on first call, and the names
in :data:`_LAZY` resolve on first attribute access (PEP 562), so
importing :mod:`repro.api` costs nothing beyond the interpreter seeing
this file -- the CLI's ``--help`` and a warm cache hit stay fast.
reprolint rules REP301 (the CLI imports only this facade) and REP303
(no eager engine imports on cold paths) enforce both halves of that
contract.
"""

from __future__ import annotations

import importlib

__all__ = [
    # run / store / algorithm entry points
    "Telemetry",
    "algorithm_names",
    "algorithm_summaries",
    "algorithms",
    "experiment_ids",
    "open_store",
    "run_experiment",
    "sum_file",
    # corpus / profiles
    "build_filesystem",
    "profile_names",
    "profile_summaries",
    # splice runs and their configuration
    "ChecksumPlacement",
    "PacketizerConfig",
    "RunAborted",
    "RunHealth",
    "run_splice_experiment",
    # checkpointed interruption and resume
    "ShardJournal",
    "SweepInterrupted",
    "current_controller",
    "default_journal_dir",
    "open_journal",
    "sweep_guard",
    # the timed channel simulator
    "ArqConfig",
    "ChannelPlan",
    "ChannelReport",
    "TraceError",
    "build_channel_trace",
    "channel_plan_names",
    "named_channel_plan",
    "read_channel_trace",
    "replay_channel_trace",
    "run_channel_sweep",
    "run_channel_transfer",
    "write_channel_trace",
    # store maintenance
    "audit_run_store",
    # fault injection / chaos
    "named_plan",
    "plan_names",
    "wrap_run_store",
    # reporting and rendering
    "generate_markdown_report",
    "write_figure_svg",
    # static analysis
    "lint_rules",
    "run_lint",
    # telemetry and bench
    "activate_telemetry",
    "bench_delta_table",
    "current_telemetry",
    "deactivate_telemetry",
    "latest_bench_snapshot",
    "run_bench",
    "validate_bench_snapshot",
    "write_bench_snapshot",
    "write_metrics",
]

#: Facade name -> ``(module, attribute)``, resolved lazily so the
#: import bill of each subsystem is paid only by callers that use it.
_LAZY = {
    "ChecksumPlacement": ("repro.protocols.config", "ChecksumPlacement"),
    "ArqConfig": ("repro.channel.arq", "ArqConfig"),
    "ChannelPlan": ("repro.channel.plan", "ChannelPlan"),
    "ChannelReport": ("repro.channel.arq", "ChannelReport"),
    "TraceError": ("repro.channel.trace", "TraceError"),
    "build_channel_trace": ("repro.channel.trace", "build_channel_trace"),
    "channel_plan_names": ("repro.channel.plan", "channel_plan_names"),
    "named_channel_plan": ("repro.channel.plan", "named_channel_plan"),
    "read_channel_trace": ("repro.channel.trace", "read_channel_trace"),
    "replay_channel_trace": ("repro.channel.trace", "replay_channel_trace"),
    "run_channel_sweep": ("repro.channel.sweep", "run_channel_sweep"),
    "run_channel_transfer": ("repro.channel.arq", "run_channel_transfer"),
    "write_channel_trace": ("repro.channel.trace", "write_channel_trace"),
    "PacketizerConfig": ("repro.protocols.config", "PacketizerConfig"),
    "RunAborted": ("repro.core.supervisor", "RunAborted"),
    "RunHealth": ("repro.core.supervisor", "RunHealth"),
    "ShardJournal": ("repro.store.journal", "ShardJournal"),
    "SweepInterrupted": ("repro.core.checkpoint", "SweepInterrupted"),
    "current_controller": ("repro.core.checkpoint", "current_controller"),
    "default_journal_dir": ("repro.store.journal", "default_journal_dir"),
    "open_journal": ("repro.store.journal", "open_journal"),
    "sweep_guard": ("repro.core.checkpoint", "sweep_guard"),
    "Telemetry": ("repro.telemetry.core", "Telemetry"),
    "activate_telemetry": ("repro.telemetry.core", "activate"),
    "audit_run_store": ("repro.store.audit", "audit_run_store"),
    "bench_delta_table": ("repro.telemetry.bench", "delta_table"),
    "build_filesystem": ("repro.corpus.profiles", "build_filesystem"),
    "current_telemetry": ("repro.telemetry.core", "current"),
    "deactivate_telemetry": ("repro.telemetry.core", "deactivate"),
    "generate_markdown_report": (
        "repro.experiments.markdown", "generate_markdown_report"),
    "latest_bench_snapshot": ("repro.telemetry.bench", "latest_snapshot"),
    "named_plan": ("repro.faults.plan", "named_plan"),
    "plan_names": ("repro.faults.plan", "plan_names"),
    "lint_rules": ("repro.lint.engine", "all_rules"),
    "run_lint": ("repro.lint.engine", "run_lint"),
    "run_bench": ("repro.telemetry.bench", "run_bench"),
    "run_splice_experiment": (
        "repro.core.experiment", "run_splice_experiment"),
    "validate_bench_snapshot": ("repro.telemetry.bench", "validate_snapshot"),
    "wrap_run_store": ("repro.faults.injector", "wrap_run_store"),
    "write_bench_snapshot": ("repro.telemetry.bench", "write_snapshot"),
    "write_figure_svg": ("repro.experiments.svg", "write_figure_svg"),
    "write_metrics": ("repro.telemetry.export", "write_metrics"),
}


def run_experiment(experiment_id, cache=None, workers=None, store=None, **kwargs):
    """Run a registered experiment; returns its ``ExperimentReport``.

    ``cache`` may be a ``ResultCache`` or a ``RunStore`` (from
    :func:`open_store`); ``workers`` fans splice runs over a process
    pool; ``store`` makes them resumable.  See
    :func:`repro.experiments.registry.run_experiment`.
    """
    from repro.experiments.registry import run_experiment as _run

    return _run(
        experiment_id,
        cache=cache,
        workers=workers,
        store=store,
        **kwargs,
    )


def experiment_ids():
    """All registered experiment ids (paper tables first)."""
    from repro.experiments.registry import experiment_ids as _ids

    return _ids()


def algorithms():
    """Name -> :class:`~repro.checksums.registry.ChecksumAlgorithm`.

    Every value conforms to the protocol (``compute``/``field``/
    ``verify``/``width``/``name``); iteration order is sorted by name.
    """
    from repro.checksums.registry import available_algorithms, get_algorithm

    return {name: get_algorithm(name) for name in available_algorithms()}


def algorithm_names():
    """Sorted names of every registered check code."""
    from repro.checksums.registry import available_algorithms

    return available_algorithms()


def algorithm_summaries():
    """``[(name, width_bits, kind), ...]`` sorted by name.

    ``kind`` is ``"CRC"`` or ``"checksum"`` -- what the ``algorithms``
    CLI listing shows.
    """
    from repro.checksums.crc import CRCEngine
    from repro.checksums.registry import available_algorithms, get_algorithm

    summaries = []
    for name in available_algorithms():
        algorithm = get_algorithm(name)
        kind = "CRC" if isinstance(algorithm, CRCEngine) else "checksum"
        summaries.append((name, algorithm.width, kind))
    return summaries


def profile_names():
    """Names of the synthetic filesystem profiles."""
    from repro.corpus.profiles import profile_names as _names

    return _names()


def profile_summaries():
    """``[(name, description), ...]`` for the synthetic profiles."""
    from repro.corpus.profiles import PROFILES, profile_names

    return [(name, PROFILES[name].description) for name in profile_names()]


def sum_file(path, algorithm="internet"):
    """The check value of the file at ``path`` as an ``int``."""
    from repro.checksums.registry import get_algorithm

    engine = get_algorithm(algorithm)
    with open(path, "rb") as handle:
        return engine.compute(handle.read())


def open_store(root=None, algorithm=None):
    """A :class:`~repro.store.runner.RunStore` rooted at ``root``.

    ``root`` defaults to ``$REPRO_CHECKSUMS_CACHE`` or
    ``~/.cache/repro-checksums``; ``algorithm`` names the integrity-
    trailer check code (default CRC-32/AAL5).  Pass the result as
    ``cache=``/``store=`` to :func:`run_experiment`.
    """
    from repro.store.objstore import DEFAULT_ALGORITHM
    from repro.store.runner import RunStore

    return RunStore(root, algorithm or DEFAULT_ALGORITHM)


def __getattr__(name):
    try:
        module_name, attribute = _LAZY[name]
    except KeyError:
        raise AttributeError(
            "module %r has no attribute %r" % (__name__, name)
        ) from None
    value = getattr(importlib.import_module(module_name), attribute)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
