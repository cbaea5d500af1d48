#!/usr/bin/env python
"""Loss processes: weighted splices, Monte Carlo, and why EPD works.

Run with::

    python examples/loss_processes.py [--bytes N]

The paper treats every splice as equally likely and notes (Section
4.6) that real loss processes might not.  This example:

1. shows that under *independent* cell loss every splice of a pair is
   exactly equally likely (so the paper's treatment is exact there);
2. re-weights the enumeration under a bursty (Gilbert) channel and
   shows the conditional miss rate move;
3. runs the physical simulation -- drop cells, reassemble, judge --
   and compares it with the exact enumeration;
4. repeats it under Early Packet Discard, where no splice survives.
"""

import argparse

from repro.core.engine import EngineOptions, SpliceEngine
from repro.core.lossmodel import (
    splice_pattern_probabilities,
    weighted_splice_rates,
)
from repro.core.enumeration import enumerate_splices
from repro.core.montecarlo import run_monte_carlo
from repro.corpus import build_filesystem
from repro.protocols.cellstream import (
    EarlyPacketDiscard,
    GilbertLoss,
    IndependentLoss,
)
from repro.protocols.ftpsim import FileTransferSimulator
from repro.protocols.packetizer import PacketizerConfig


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bytes", type=int, default=150_000)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    # 1. Independent loss weights are uniform over splices.
    enum = enumerate_splices(7, 7)
    weights = splice_pattern_probabilities(enum, IndependentLoss(0.2))
    print("splices of a 7-cell pair:", enum.splices)
    print("weight spread under independent loss: %.3g (identical weights)"
          % float(weights.max() - weights.min()))

    fs = build_filesystem("pathological-gmon", args.bytes, args.seed)
    config = PacketizerConfig()
    options = EngineOptions.from_packetizer(config, aux_crcs=())
    simulator = FileTransferSimulator(config)
    data = max((f.data for f in fs), key=len)
    units = simulator.transfer(data)

    # 2. Weighted conditional rates.
    for label, model in [("independent p=0.2", IndependentLoss(0.2)),
                         ("Gilbert bursty", GilbertLoss(0.05, 0.3))]:
        rates = weighted_splice_rates(units, model, options)
        print("%-20s conditional miss %% = %.4f   P[miss]/pair = %.2e" % (
            label, rates["conditional_miss_pct"], rates["p_transport_miss"]))

    # 3. Monte Carlo vs enumeration.
    counters = SpliceEngine(options).evaluate_stream(simulator.wire(data))
    tally = run_monte_carlo(units, IndependentLoss(0.25), options,
                            trials=150, seed=args.seed)
    print("\nenumeration miss rate : %.3f%% over %d corrupted splices"
          % (counters.miss_rate_transport, counters.remaining))
    print("Monte Carlo miss rate : %.3f%% over %d corrupted frames"
          % (tally.transport_miss_rate, tally.corrupted_frames))
    print("undetected by both checks: %d (the CRC backstops the sum)"
          % tally.undetected_corruption)

    # 4. Early Packet Discard.
    epd = run_monte_carlo(units, EarlyPacketDiscard(IndependentLoss(0.25)),
                          options, trials=150, seed=args.seed)
    print("\nunder Early Packet Discard: %d corrupted frames reached the "
          "checksums (Section 7)" % epd.corrupted_frames)


if __name__ == "__main__":
    main()
