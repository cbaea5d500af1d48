"""Set-up probe: the one-time cost every CLI process pays before work.

Run as a fresh process by ``run.py``, which times it from launch to
exit (``setup_s``)::

    python3 perfbench/bench_probe.py [STORE_ROOT]

It imports ``repro.cli`` and ``repro.api`` and constructs the public
objects that build one-time tables: a ``SpliceEngine`` with default
options and a ``FileTransferSimulator`` with the default packetizer
config.  With ``STORE_ROOT`` it also opens the artifact store there,
as the ``--cache`` workload does in every process.
"""

from __future__ import annotations

import sys


def main(argv):
    import repro.api
    import repro.cli  # noqa: F401  (the import is what is measured)
    from repro.core.engine import EngineOptions, SpliceEngine
    from repro.protocols.ftpsim import FileTransferSimulator

    SpliceEngine(EngineOptions())
    FileTransferSimulator(repro.api.PacketizerConfig())
    if argv:
        repro.api.open_store(argv[0])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
