"""Tests for the fragmentation-and-reassembly error model."""

from itertools import combinations

import pytest

from repro.checksums.fletcher import Fletcher8
from repro.checksums.internet import fold_carries, word_sums
from repro.core import fragsplice
from repro.core.fragsplice import (
    FragmentSpliceCounters,
    run_fragment_splice_experiment,
)
from repro.protocols.fragmentation import reassemble_fragments
from repro.protocols.ip import IP_HEADER_LEN
from repro.protocols.packetizer import PacketizerConfig
from repro.protocols.tcp import pseudo_header_word_sum
from tests.conftest import make_filesystem


def _verify(algorithm, packet):
    """Receiver-side transport verification of a reassembled packet."""
    segment = packet[IP_HEADER_LEN:]
    if algorithm == "tcp":
        src = int.from_bytes(packet[12:16], "big")
        dst = int.from_bytes(packet[16:20], "big")
        total = pseudo_header_word_sum(src, dst, len(segment))
        total += word_sums(segment)
        return int(fold_carries(total)) == 0xFFFF
    return Fletcher8(int(algorithm[-3:])).verify(segment)


def judge_pair_reference(frags1, frags2, positions, algorithm):
    """Byte-at-a-time oracle of ``_judge_pair``: reassemble and verify
    every substitution subset."""
    counters = FragmentSpliceCounters()
    original = reassemble_fragments(frags1, check_header=False)
    for count in range(1, positions):
        for subset in combinations(range(positions), count):
            mixed = list(frags1)
            changed = False
            for position in subset:
                if frags1[position][IP_HEADER_LEN:] != frags2[position][IP_HEADER_LEN:]:
                    changed = True
                mixed[position] = (
                    mixed[position][:IP_HEADER_LEN]
                    + frags2[position][IP_HEADER_LEN:]
                )
            counters.total += 1
            if not changed:
                counters.identical += 1
                continue
            counters.remaining += 1
            spliced = reassemble_fragments(mixed, check_header=False)
            assert len(spliced) == len(original)
            if _verify(algorithm, spliced):
                counters.missed[algorithm] = counters.missed.get(algorithm, 0) + 1
    return counters


class TestCounters:
    def test_rates_and_addition(self):
        a = FragmentSpliceCounters(pairs=1, total=10, identical=2, remaining=8,
                                   missed={"tcp": 2})
        b = FragmentSpliceCounters(pairs=1, total=10, identical=0, remaining=10,
                                   missed={"tcp": 1})
        merged = a + b
        assert merged.total == 20
        assert merged.remaining == 18
        assert merged.missed["tcp"] == 3
        assert merged.miss_rate("tcp") == pytest.approx(100.0 * 3 / 18)
        assert merged.miss_rate("fletcher255") == 0.0

    def test_empty_rate(self):
        assert FragmentSpliceCounters().miss_rate("tcp") == 0.0


class TestExperiment:
    @pytest.fixture(scope="class")
    def results(self):
        fs = make_filesystem([("gmon", 12_000), ("english", 8_000)])
        return run_fragment_splice_experiment(fs, PacketizerConfig(), mtu=92)

    def test_all_algorithms_judged_same_splices(self, results):
        totals = {c.total for c in results.values()}
        remainings = {c.remaining for c in results.values()}
        assert len(totals) == 1 and totals.pop() > 0
        assert len(remainings) == 1

    def test_accounting(self, results):
        for counters in results.values():
            assert counters.total == counters.identical + counters.remaining
            assert counters.missed.get(
                next(iter(counters.missed), "tcp"), 0
            ) <= counters.remaining

    def test_tcp_misses_on_zero_heavy_data(self, results):
        # Same-offset substitutions of congruent fragments: gmon data
        # guarantees observable misses.
        assert results["tcp"].miss_rate("tcp") > 0.5

    def test_fletcher_loses_coloring_advantage(self, results):
        # Substituted fragments keep their byte offsets, so Fletcher's
        # positional term cannot help the way it does on cell splices:
        # its miss rate is within a small factor of TCP's, not the
        # 10-100x advantage of the shifted model.
        tcp = results["tcp"].miss_rate("tcp")
        f256 = results["fletcher256"].miss_rate("fletcher256")
        assert f256 > tcp / 5

    def test_mismatched_lengths_skipped(self):
        # Files one packet long produce no pairs; runt tails mismatch.
        fs = make_filesystem([("english", 300)])
        results = run_fragment_splice_experiment(fs, PacketizerConfig(), mtu=92)
        assert results["tcp"].total == 0

    def test_max_positions_cap(self):
        fs = make_filesystem([("gmon", 3_000)])
        results = run_fragment_splice_experiment(
            fs, PacketizerConfig(), mtu=60, max_positions=4,
            algorithms=("tcp",),
        )
        counters = results["tcp"]
        # 2^4 - 2 = 14 substitutions per pair at most.
        assert counters.total <= 14 * counters.pairs


class TestConformance:
    # A cap below the fragment count leaves an unsubstituted tail.
    @pytest.mark.parametrize("mtu,max_positions", [(60, 8), (92, 8), (60, 4)])
    def test_vectorized_judge_matches_reference(
        self, mtu, max_positions, monkeypatch
    ):
        fs = make_filesystem(
            [("gmon", 6_000), ("english", 4_000), ("zero-heavy", 3_000)]
        )
        config = PacketizerConfig()
        vectorized = run_fragment_splice_experiment(
            fs, config, mtu=mtu, max_positions=max_positions
        )
        monkeypatch.setattr(fragsplice, "_judge_pair", judge_pair_reference)
        reference = run_fragment_splice_experiment(
            fs, config, mtu=mtu, max_positions=max_positions
        )
        assert set(vectorized) == {"tcp", "fletcher255", "fletcher256"}
        assert reference["tcp"].missed.get("tcp", 0) > 0
        for algorithm, counters in vectorized.items():
            assert counters == reference[algorithm], algorithm
