"""The paper's experimental instrument: the AAL5 packet-splice engine.

A *packet splice* happens when ATM cell losses merge pieces of two
adjacent AAL5 frames into something that still looks like one frame
(Section 3.1).  This package enumerates every possible splice of each
adjacent packet pair of a simulated file transfer and tests it against
the header checks, the AAL5 CRC-32, and the configured transport
checksum -- exactly the paper's methodology.

- :mod:`repro.core.enumeration` -- exact splice combinatorics.
- :mod:`repro.core.checks` -- the IP/TCP/AAL5 header validity checks.
- :mod:`repro.core.results` -- the counters behind the paper's tables.
- :mod:`repro.core.options` -- how the engine judges splices.
- :mod:`repro.core.engine` -- the vectorized splice evaluator.
- :mod:`repro.core.experiment` -- drives an engine over a filesystem.
- :mod:`repro.core.shard` -- the sweep's pool worker: one file's
  counters.
- :mod:`repro.core.supervisor` -- fault-surviving pool execution and
  the :class:`RunHealth` record experiments attach to their reports.

Exports resolve lazily (PEP 562), mirroring the top-level package:
importing :mod:`repro.core` -- which happens whenever *any* submodule
is imported, including :mod:`repro.core.supervisor` and
:mod:`repro.core.results` that the CLI and the store rely on -- must
not drag in the vectorized engine and numpy.  The supervisor imports
its process pool where it spawns the first one, so only a
``--workers`` sweep loads :mod:`multiprocessing`.  Cold entry points
(a warm ``--cache`` hit, ``--help``) stay fast; reprolint rule REP303
enforces the engine half of this discipline.
"""

from __future__ import annotations

import importlib

#: Public name -> defining submodule, resolved on first attribute use.
_EXPORTS = {
    "EngineOptions": "repro.core.options",
    "RunAborted": "repro.core.supervisor",
    "RunHealth": "repro.core.supervisor",
    "SpliceCounters": "repro.core.results",
    "SpliceEngine": "repro.core.engine",
    "SpliceEnumeration": "repro.core.enumeration",
    "SpliceExperimentResult": "repro.core.experiment",
    "SupervisedPool": "repro.core.supervisor",
    "enumerate_splices": "repro.core.enumeration",
    "run_per_file_experiment": "repro.core.experiment",
    "run_splice_experiment": "repro.core.experiment",
    "splice_count": "repro.core.enumeration",
    "structural_splice_count": "repro.core.enumeration",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        # ``from repro.core import reference`` style submodule access.
        try:
            return importlib.import_module("%s.%s" % (__name__, name))
        except ModuleNotFoundError:
            raise AttributeError(
                "module %r has no attribute %r" % (__name__, name)
            ) from None
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: resolve each name at most once
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
