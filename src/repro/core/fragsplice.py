"""The fragmentation-and-reassembly error model.

A non-strict reassembler (IP ID wrap, middlebox bug) can combine
fragments from *two* datagrams of the same flow when their offsets
tile the packet -- the IP-layer analogue of the AAL5 splice.  For two
adjacent packets fragmented identically, every non-empty subset of
fragment positions can be taken from the second packet instead of the
first; the result reassembles cleanly and only the transport checksum
can object.

The key structural difference from the cell splice: substituted
fragments sit at the **same byte offset** they came from.  Nothing is
shifted, so Fletcher's positional term sees identical positions and
loses exactly the "colouring" advantage it enjoys in the cell-splice
model (where dropped cells shift their successors).  Comparing the
two models quantifies the paper's Section 5.2 analysis from the other
direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.checksums.fletcher import fletcher8
from repro.checksums.internet import word_sums
from repro.core.batch import fold16
from repro.protocols.fragmentation import fragment_packet
from repro.protocols.ftpsim import FileTransferSimulator
from repro.protocols.ip import IP_HEADER_LEN
from repro.protocols.tcp import pseudo_header_word_sum

__all__ = ["FragmentSpliceCounters", "run_fragment_splice_experiment"]


@dataclass
class FragmentSpliceCounters:
    """Counters of the fragment-interchange experiment."""

    pairs: int = 0
    total: int = 0
    identical: int = 0
    remaining: int = 0
    missed: dict = field(default_factory=dict)

    def miss_rate(self, algorithm):
        if not self.remaining:
            return 0.0
        return 100.0 * self.missed.get(algorithm, 0) / self.remaining

    def __add__(self, other):
        merged = FragmentSpliceCounters(
            pairs=self.pairs + other.pairs,
            total=self.total + other.total,
            identical=self.identical + other.identical,
            remaining=self.remaining + other.remaining,
        )
        merged.missed = dict(self.missed)
        for key, value in other.missed.items():
            merged.missed[key] = merged.missed.get(key, 0) + value
        return merged


def run_fragment_splice_experiment(
    filesystem,
    config,
    mtu=92,
    algorithms=("tcp", "fletcher255", "fletcher256"),
    max_positions=8,
    max_files=None,
):
    """Run the fragment-interchange error model over a filesystem.

    For every adjacent packet pair (built per ``config``, one
    packetizer run per algorithm so each carries its own checksum),
    both packets are fragmented at ``mtu`` and every non-empty,
    non-total subset of same-offset fragment substitutions is applied
    to the first packet.  ``max_positions`` caps the number of
    fragment positions considered (2^k subsets).  All subsets of a
    pair are judged at once from per-position partial sums
    (:func:`_judge_pair`).

    Returns ``{algorithm: FragmentSpliceCounters}``.
    """
    results = {}
    for algorithm in algorithms:
        simulator = FileTransferSimulator(config.with_overrides(algorithm=algorithm))
        counters = FragmentSpliceCounters()
        for index, file in enumerate(filesystem):
            if max_files is not None and index >= max_files:
                break
            packets = [u.packet.ip_packet for u in simulator.transfer(file.data)]
            for first, second in zip(packets, packets[1:]):
                if len(first) != len(second):
                    continue
                frags1 = fragment_packet(_clear_df(first), mtu)
                frags2 = fragment_packet(_clear_df(second), mtu)
                positions = min(len(frags1), max_positions)
                if positions < 2:
                    continue
                counters.pairs += 1
                counters += _judge_pair(
                    frags1[:positions] + frags1[positions:],
                    frags2,
                    positions,
                    algorithm,
                )
        results[algorithm] = counters
    return results


def _clear_df(packet):
    """Clear the DF bit (and fix the header checksum) so we may fragment."""
    from repro.checksums.internet import internet_checksum_field

    patched = bytearray(packet)
    flags = int.from_bytes(patched[6:8], "big") & ~0x4000
    patched[6:8] = flags.to_bytes(2, "big")
    patched[10:12] = b"\x00\x00"
    patched[10:12] = internet_checksum_field(patched[:IP_HEADER_LEN]).to_bytes(
        2, "big"
    )
    return bytes(patched)


def _subset_masks(positions):
    """Boolean rows of every non-empty, non-total position subset."""
    rows = np.arange(1, (1 << positions) - 1, dtype=np.uint32)
    bits = np.arange(positions, dtype=np.uint32)
    return ((rows[:, None] >> bits) & 1).astype(bool)


def _judge_pair(frags1, frags2, positions, algorithm):
    """Judge every substitution subset of one pair, vectorized.

    Fragment offsets are 8-byte multiples, so every non-final payload
    is word-aligned and both check codes decompose over positions: the
    TCP sum into per-payload word sums, Fletcher into per-payload
    ``(A, B)`` pairs with the positional shift ``B + D * A`` for a
    payload ending ``D`` bytes before the segment end.  One mask-matrix
    product then judges all ``2^k - 2`` subsets at once.
    tests/core/test_fragsplice.py holds it bit-identical to a receiver
    that reassembles and verifies each subset byte-at-a-time.
    """
    counters = FragmentSpliceCounters()
    masks = _subset_masks(positions)
    pay1 = [f[IP_HEADER_LEN:] for f in frags1[:positions]]
    pay2 = [f[IP_HEADER_LEN:] for f in frags2[:positions]]
    tail = b"".join(f[IP_HEADER_LEN:] for f in frags1[positions:])
    seg_len = sum(len(p) for p in pay1) + len(tail)

    diff = np.array([p1 != p2 for p1, p2 in zip(pay1, pay2)], dtype=bool)
    changed = (masks & diff).any(axis=1)
    counters.total = masks.shape[0]
    counters.identical = int((~changed).sum())
    counters.remaining = int(changed.sum())
    if not counters.remaining:
        return counters

    taken = masks.astype(np.int64)
    kept = 1 - taken
    if algorithm == "tcp":
        header = frags1[0]
        src = int.from_bytes(header[12:16], "big")
        dst = int.from_bytes(header[16:20], "big")
        base = pseudo_header_word_sum(src, dst, seg_len) + word_sums(tail)
        ws1 = np.array([word_sums(p) for p in pay1], dtype=np.int64)
        ws2 = np.array([word_sums(p) for p in pay2], dtype=np.int64)
        totals = (base + taken @ ws2 + kept @ ws1).astype(np.uint64)
        ok = fold16(totals) == 0xFFFF
    else:
        modulus = int(algorithm[-3:])
        ends = np.cumsum([len(p) for p in pay1])
        distance = (seg_len - ends).astype(np.int64)

        def sums(payloads):
            pairs = [fletcher8(p, modulus) for p in payloads]
            a = np.array([s.a for s in pairs], dtype=np.int64)
            b = np.array([s.b for s in pairs], dtype=np.int64)
            return a, (b + distance * a) % modulus

        a1, b1 = sums(pay1)
        a2, b2 = sums(pay2)
        t = fletcher8(tail, modulus)
        a_total = taken @ a2 + kept @ a1 + t.a
        b_total = taken @ b2 + kept @ b1 + t.b
        ok = (a_total % modulus == 0) & (b_total % modulus == 0)

    missed = int((changed & ok).sum())
    if missed:
        counters.missed[algorithm] = missed
    return counters
