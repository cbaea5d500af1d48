"""Registry mapping experiment ids to their functions.

:func:`run_experiment` is the single entry point the CLI and the
Markdown report generator go through, so it is also where the
``repro.store`` persistence layer hooks in:

* ``cache=`` consults the experiment-level result cache: a verified
  hit deserializes the stored :class:`ExperimentReport` (bit-identical
  rendered text); a miss runs the experiment and stores it; a corrupt
  entry is evicted and recomputed.
* ``workers=`` / ``store=`` are forwarded only to experiments whose
  signatures accept them (``store`` to every experiment that builds a
  corpus, which it then reads from ``corpora/``), and never enter
  cache keys — neither can change a result.

The registry maps ids to ``"module:function"`` spec strings resolved
on first use, so importing it (e.g. to build CLI ``choices``) does not
drag in every experiment module — a warm ``--cache`` hit deserializes
a stored report without ever importing the splice engine.
"""

from __future__ import annotations

import importlib
import inspect

from repro.experiments.report import ExperimentReport

__all__ = [
    "EXPERIMENTS",
    "ExperimentReport",
    "experiment_ids",
    "resolve",
    "run_experiment",
]

_ABLATIONS = "repro.experiments.ablations"
_CHANNEL = "repro.experiments.channel_tables"
_DIST = "repro.experiments.distribution_tables"
_EXT = "repro.experiments.extensions"
_FIGURES = "repro.experiments.figures"
_SPLICE = "repro.experiments.splice_tables"

#: Experiment id -> ``"module:function"`` spec, resolved lazily.
#: Iteration/membership still works as an id set for CLI choices and
#: the Markdown generator's selection logic.
EXPERIMENTS = {
    "table1": _SPLICE + ":table1_nsc",
    "table2": _SPLICE + ":table2_sics",
    "table3": _SPLICE + ":table3_stanford",
    "table4": _DIST + ":table4_matchprob",
    "table5": _DIST + ":table5_locality",
    "table6": _DIST + ":table6_local_vs_actual",
    "table7": _SPLICE + ":table7_compressed",
    "table8": _SPLICE + ":table8_fletcher",
    "table9": _SPLICE + ":table9_trailer",
    "table10": _SPLICE + ":table10_header_vs_trailer",
    "figure2": _FIGURES + ":figure2_distribution",
    "figure3": _FIGURES + ":figure3_fletcher_pdf",
    "pathological": _ABLATIONS + ":pathological_families",
    "ablation-inverted": _ABLATIONS + ":ablation_inverted_checksum",
    "ablation-unfilled-header": _ABLATIONS + ":ablation_unfilled_ip_header",
    "ablation-add-constant": _ABLATIONS + ":ablation_add_constant",
    "epd": _ABLATIONS + ":early_packet_discard",
    "error-models": _EXT + ":error_models",
    "mss-sweep": _EXT + ":mss_sweep",
    "loss-models": _EXT + ":loss_models",
    "montecarlo": _EXT + ":monte_carlo_crosscheck",
    "fragment-splices": _EXT + ":fragment_splices",
    "failure-locality": _EXT + ":failure_locality",
    "uniformity": _EXT + ":uniformity_checks",
    "corpus-stats": _EXT + ":corpus_stats",
    "channel-regimes": _CHANNEL + ":channel_regimes",
    "channel-goodput": _CHANNEL + ":channel_goodput",
    "channel-arq": _CHANNEL + ":channel_arq",
}


def resolve(experiment_id):
    """Import and return the function behind ``experiment_id``."""
    if experiment_id not in EXPERIMENTS:
        raise KeyError(
            "unknown experiment %r; available: %s"
            % (experiment_id, ", ".join(EXPERIMENTS))
        )
    module_name, _, attribute = EXPERIMENTS[experiment_id].partition(":")
    return getattr(importlib.import_module(module_name), attribute)


def experiment_ids():
    """All registered experiment ids, tables first."""
    return list(EXPERIMENTS)


def _accepts(function, name):
    """True if ``function`` takes a ``name`` keyword."""
    try:
        return name in inspect.signature(function).parameters
    except (TypeError, ValueError):  # pragma: no cover - builtins only
        return False


def run_experiment(experiment_id, cache=None, workers=None, store=None, **kwargs):
    """Run a registered experiment and return its report.

    ``cache`` is a :class:`repro.store.cache.ResultCache` (or a
    :class:`repro.store.runner.RunStore`, whose ``results`` cache and
    ``store`` hook are both used).  ``workers`` fans splice runs over a
    process pool; ``store`` makes them resumable at shard granularity.
    Neither enters the cache key — cached and direct runs are
    bit-identical by construction.
    """
    if experiment_id not in EXPERIMENTS:
        raise KeyError(
            "unknown experiment %r; available: %s"
            % (experiment_id, ", ".join(EXPERIMENTS))
        )

    if cache is not None and store is None and hasattr(cache, "results"):
        store = cache  # a RunStore doubles as shard store + result cache
    result_cache = getattr(cache, "results", cache)

    key = None
    if result_cache is not None:
        from repro.store.keys import experiment_key

        key = experiment_key(experiment_id, kwargs)
        try:
            report = result_cache.get_object(key, ExperimentReport.from_json)
        except OSError:
            # A failing cache root must never fail the experiment; a
            # read error is just a miss.
            report = None
        if report is not None:
            from repro.telemetry.core import current as _telemetry

            telemetry = _telemetry()
            if telemetry.enabled and report.metrics is None:
                report.metrics = telemetry.snapshot()
            _attach_provenance(report)
            return report

    function = resolve(experiment_id)
    call_kwargs = dict(kwargs)
    if workers is not None and _accepts(function, "workers"):
        call_kwargs["workers"] = workers
    if store is not None and _accepts(function, "store"):
        call_kwargs["store"] = store

    health = None
    if _accepts(function, "health"):
        from repro.core.supervisor import RunHealth

        health = RunHealth()
        call_kwargs["health"] = health
    report = function(**call_kwargs)

    # Attach the supervision record so reports say what they survived.
    if health is not None and health.eventful and report.health is None:
        report.health = health.to_dict()

    if result_cache is not None:
        try:
            result_cache.put_object(key, report)
        except OSError as exc:
            import warnings

            warnings.warn(
                "could not cache report for %r (%s); result is unaffected"
                % (experiment_id, exc),
                RuntimeWarning,
                stacklevel=2,
            )

    # Ride the telemetry snapshot alongside the health record — but only
    # after the cache put, so persisted reports never carry the (run-
    # specific, timing-laden) metrics of the run that produced them.
    from repro.telemetry.core import current as _telemetry

    telemetry = _telemetry()
    if telemetry.enabled and report.metrics is None:
        report.metrics = telemetry.snapshot()
    _attach_provenance(report)
    return report


def _attach_provenance(report):
    """Record the ambient run-shaping knobs on ``report`` (post-cache).

    Like ``metrics``, provenance describes the *invocation* rather than
    the result, so it is attached only after the cache put — persisted
    reports stay knob-free and replay identically under any flags.
    """
    from repro.core.checkpoint import current_controller

    provenance = current_controller().provenance()
    if provenance and report.provenance is None:
        report.provenance = provenance
