"""repro.faults: deterministic fault injection for chaos-tested sweeps.

* :mod:`repro.faults.plan` — seeded, bounded, replayable fault
  schedules (:class:`FaultPlan`, named plans for the ``chaos`` CLI);
* :mod:`repro.faults.injector` — the injection surfaces: a faulty
  object-store proxy and a pool-worker shim.

Names resolve lazily (PEP 562, matching the top-level package) so
importing :mod:`repro.faults.plan` for CLI ``choices`` never drags in
the store layer or NumPy.
"""

from __future__ import annotations

import importlib

_EXPORTS = {
    "FaultEvent": "repro.faults.plan",
    "FaultInjected": "repro.faults.injector",
    "FaultPlan": "repro.faults.plan",
    "FaultyObjectStore": "repro.faults.injector",
    "NAMED_PLANS": "repro.faults.plan",
    "SimulatedCrash": "repro.faults.injector",
    "named_plan": "repro.faults.plan",
    "plan_names": "repro.faults.plan",
    "shim_file_counters": "repro.faults.injector",
    "worker_prepare": "repro.faults.injector",
    "wrap_run_store": "repro.faults.injector",
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
