"""One splice shard: the counters of one file's bytes.

The worker every splice sweep hands its pool.  It lives apart from
:mod:`repro.core.experiment` because it imports the engine and the
packetizer, and with them NumPy: the sweep driver imports this module
only when a sweep has shards to compute, so a sweep whose shards all
come from the store never loads them.
"""

from __future__ import annotations

from repro.core.engine import SpliceEngine
from repro.protocols.ftpsim import FileTransferSimulator

__all__ = ["file_counters"]


def file_counters(args):
    """Splice counters for ``(data, config, options)``: one file's bytes."""
    data, config, options = args
    simulator = FileTransferSimulator(config)
    counters = SpliceEngine(options).evaluate_stream(simulator.wire(data))
    counters.files += 1
    return counters
