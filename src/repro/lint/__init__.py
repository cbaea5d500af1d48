"""``repro.lint``: domain-aware static analysis for this repository.

The paper's headline numbers (CRC-32 at ~2^-32 versus an Internet
checksum 10-100x worse than 2^-16) are only trustworthy if every
splice sweep is bit-reproducible.  The invariants that guarantee that
-- seeded randomness, picklable worker payloads, parent-side telemetry
accounting, fsync-ordered store renames, lazy-import discipline, and
the :class:`~repro.checksums.registry.ChecksumAlgorithm` protocol --
were previously enforced by convention alone.  This package enforces
them with an AST pass, the way Koopman's checksum papers recommend
catching width/modulus/byte-order slips *before* they corrupt a
measurement.

Layout:

* :mod:`repro.lint.findings`  -- the :class:`Finding` record.
* :mod:`repro.lint.config`    -- :class:`LintConfig`, the policy knobs.
* :mod:`repro.lint.pragmas`   -- ``# reprolint: disable=RULE`` parsing.
* :mod:`repro.lint.engine`    -- project scanner, rule registry, runner.
* :mod:`repro.lint.callgraph` -- import graph + intra-project call graph.
* :mod:`repro.lint.dataflow`  -- forward taint summaries over the graph.
* :mod:`repro.lint.reporters` -- text / JSON / markdown renderers.
* ``repro.lint.rules_*``      -- the rule catalogue (REP1xx-REP6xx).

One cold pass lints the whole tree; an inline pragma is the only way
to suppress a finding, and any other finding fails the run.

Entry points: ``repro-checksums lint`` (the CLI), ``make lint``, and
:func:`run_lint` for programmatic use (the test suite's self-check).

Exports resolve lazily (PEP 562) so that importing :mod:`repro.lint`
from the CLI costs nothing until a lint actually runs -- the same
discipline rule REP303 enforces on everyone else.
"""

from __future__ import annotations

import importlib

_EXPORTS = {
    "CallGraph": "repro.lint.callgraph",
    "DataflowAnalysis": "repro.lint.dataflow",
    "Finding": "repro.lint.findings",
    "LayerContract": "repro.lint.config",
    "LintConfig": "repro.lint.config",
    "LintResult": "repro.lint.engine",
    "REPORT_SCHEMA": "repro.lint.reporters",
    "all_rules": "repro.lint.engine",
    "findings_from_json": "repro.lint.reporters",
    "load_contract": "repro.lint.config",
    "render_json": "repro.lint.reporters",
    "render_markdown": "repro.lint.reporters",
    "render_text": "repro.lint.reporters",
    "run_lint": "repro.lint.engine",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            "module %r has no attribute %r" % (__name__, name)
        ) from None
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
