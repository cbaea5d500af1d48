#!/usr/bin/env python
"""Quickstart: checksums, framing, and a first splice experiment.

Run with::

    python examples/quickstart.py
"""

from repro import build_filesystem, get_algorithm, run_splice_experiment
from repro.checksums import internet_checksum
from repro.protocols import build_aal5_frame
from repro.protocols.packetizer import Packetizer, PacketizerConfig


def checksum_basics():
    print("== checksum basics ==")
    data = b"Performance of Checksums and CRCs over Real Data"

    internet = get_algorithm("internet")
    print("Internet checksum : 0x%04x" % internet.compute(data))

    # The order-independence weakness: swap two 16-bit words, same sum.
    swapped = data[2:4] + data[0:2] + data[4:]
    assert internet_checksum(swapped) == internet_checksum(data)
    print("word-swapped data : 0x%04x  (identical -- the paper's weakness)"
          % internet.compute(swapped))

    for name in ("fletcher255", "fletcher256", "crc32-aal5", "crc16-ccitt"):
        algorithm = get_algorithm(name)
        print("%-18s: 0x%0*x" % (name, (algorithm.width + 3) // 4,
                                 algorithm.compute(data)))

    # CRCs compose: the CRC of a concatenation from the piece registers.
    crc = get_algorithm("crc32-aal5")
    a, b = data[:20], data[20:]
    state = crc.combine(crc.prefix_state(a), crc.prefix_state(b), len(b))
    assert crc.state_value(state) == crc.compute(data)
    print("combine(a, b) == crc(a || b): OK")


def framing_basics():
    print("\n== packetize and frame a payload ==")
    packet = Packetizer(PacketizerConfig()).packetize(bytes(range(256)))[0]
    frame = build_aal5_frame(packet.ip_packet)
    print("IP packet bytes   : %d" % len(packet.ip_packet))
    print("AAL5 frame bytes  : %d (%d ATM cells)" % (len(frame.frame),
                                                     frame.cell_count))


def first_experiment():
    print("\n== the paper's experiment, in four lines ==")
    fs = build_filesystem("stanford-u1", 400_000, seed=3)
    result = run_splice_experiment(fs)
    c = result.counters
    print("splices inspected : %d" % c.total)
    print("remaining (bad)   : %d" % c.remaining)
    print("missed by TCP sum : %d (%.4f%% -- uniform data predicts %.4f%%)"
          % (c.missed_transport, c.miss_rate_transport, 100 / 65536))
    print("missed by CRC-32  : %d" % c.missed_crc32)
    print("effective bits    : %.1f (a 16-bit checksum acting like ~%d bits)"
          % (c.effective_bits, round(c.effective_bits)))


if __name__ == "__main__":
    checksum_basics()
    framing_basics()
    first_experiment()
