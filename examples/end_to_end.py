#!/usr/bin/env python
"""End to end: what does the application actually receive?

Run with::

    python examples/end_to_end.py [--bytes N] [--seed S]

Everything else in this repository measures how often checks fail;
this example runs the whole loop -- packetize, frame, send cells
through a congested queue that drops runs of them, reassemble,
validate, retransmit under go-back-N -- and reports the
application-level outcome.  With the AAL5 CRC in place, corrupted
frames are all caught (at the price of retransmissions); strip the CRC
away and the TCP checksum alone lets splices through as silent
corruption, exactly as the paper warns for checksum-only links like
Compressed SLIP ("that's probably not wise").
"""

import argparse

from repro.api import named_channel_plan, run_channel_transfer
from repro.corpus.generators import generate
from repro.experiments.render import TextTable, fmt_count


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bytes", type=int, default=250_000)
    parser.add_argument("--seed", type=int, default=2,
                        help="seed of the channel's impairment streams")
    args = parser.parse_args()

    data = generate("gmon", args.bytes, 3)  # checksum-hostile profile data
    plan = named_channel_plan("congested-queue", seed=args.seed)

    table = TextTable(
        ["integrity stack", "clean", "silently corrupted", "rejected",
         "retx ratio"]
    )
    for label, use_crc in (("TCP checksum + AAL5 CRC", True),
                           ("TCP checksum only", False)):
        report = run_channel_transfer(data, plan, use_crc=use_crc)
        table.add_row(
            label,
            fmt_count(report.delivered_clean),
            fmt_count(report.delivered_corrupted),
            fmt_count(report.frames_rejected),
            "%.2f" % report.retransmission_ratio,
        )
    print(table.render())
    print("\n'silently corrupted' frames passed every check the stack had")
    print("and delivered wrong bytes to the application -- the event the")
    print("paper's entire analysis exists to quantify.")


if __name__ == "__main__":
    main()
