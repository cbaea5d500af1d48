"""Behavioural tests for the splice engine and its counters."""

import numpy as np
import pytest

from repro.core.engine import EngineOptions, SpliceEngine
from repro.core.results import SpliceCounters
from repro.corpus.generators import generate
from repro.protocols.ftpsim import FileTransferSimulator
from repro.protocols.packetizer import ChecksumPlacement, PacketizerConfig
from repro.telemetry.core import collect


def run_stream(data, config=None, **option_overrides):
    config = config or PacketizerConfig()
    options = EngineOptions.from_packetizer(config, **option_overrides)
    wire = FileTransferSimulator(config).wire(data)
    return SpliceEngine(options).evaluate_stream(wire)


class TestCounterConsistency:
    def test_partition_of_total(self):
        counters = run_stream(generate("gmon", 4000, 1))
        assert counters.sanity_check()
        assert counters.total > 0
        assert (
            counters.total
            == counters.caught_by_header + counters.identical + counters.remaining
        )

    def test_expected_totals_for_uniform_packets(self):
        # 4000 bytes -> 16 packets -> 15 pairs x 923 splices.
        counters = run_stream(generate("uniform", 4096, 1))
        assert counters.pairs == 15
        assert counters.total == 15 * 923

    def test_by_length_breakdown_sums(self):
        counters = run_stream(generate("english", 4096, 1))
        assert sum(counters.remaining_by_len.values()) == counters.remaining
        assert set(counters.remaining_by_len) <= set(range(1, 8))


class TestBatchingEquivalence:
    def test_batched_equals_pairwise(self):
        data = generate("gmon", 6000, 3)
        config = PacketizerConfig()
        options = EngineOptions.from_packetizer(config)
        simulator = FileTransferSimulator(config)
        units = simulator.transfer(data)
        engine = SpliceEngine(options)

        whole = engine.evaluate_stream(simulator.wire(data))

        accumulated = SpliceCounters()
        accumulated.packets = len(units)
        for first, second in zip(units, units[1:]):
            accumulated += engine.evaluate_batch(
                first.frame.cells()[None],
                second.frame.cells()[None],
                len(first.packet.ip_packet),
                len(second.packet.ip_packet),
            )
        for field in ("total", "caught_by_header", "identical", "remaining",
                      "missed_transport", "missed_crc32"):
            assert getattr(whole, field) == getattr(accumulated, field), field

    def test_small_batch_elements_still_exact(self):
        data = generate("gmon", 6000, 3)
        config = PacketizerConfig()
        wire = FileTransferSimulator(config).wire(data)
        base = SpliceEngine(EngineOptions.from_packetizer(config))
        tiny = SpliceEngine(
            EngineOptions.from_packetizer(config, batch_elements=1000)
        )
        a = base.evaluate_stream(wire)
        b = tiny.evaluate_stream(wire)
        assert a.missed_transport == b.missed_transport
        assert a.total == b.total


class TestKnownSplices:
    def test_all_zero_data_floods_identical(self):
        # With an all-zero file, swapping one all-zero cell for another
        # yields identical packets, never checksum misses.
        counters = run_stream(bytes(2048))
        assert counters.identical > 0
        assert counters.missed_transport == 0

    def test_crafted_congruent_miss(self):
        # Two packets whose payloads are word-swapped copies: dropping
        # one data cell and inserting the matching swapped cell keeps
        # the TCP sum, so at least one splice must be missed.
        payload = bytearray(generate("uniform", 512, 9))
        payload[256:512] = payload[0:256]
        # Swap two words inside the second packet's first data cell
        # region so the data differs but the sum is unchanged.
        payload[260:262], payload[262:264] = payload[262:264], payload[260:262]
        counters = run_stream(bytes(payload))
        assert counters.missed_transport > 0
        assert counters.missed_crc32 == 0  # CRC-32 sees the reordering

    def test_second_header_splices_tracked(self):
        counters = run_stream(generate("english", 4096, 1))
        assert 0 < counters.remaining_with_hdr2 < counters.remaining
        assert counters.missed_with_hdr2 <= counters.remaining_with_hdr2


class TestAuxCrcs:
    def test_aux_rate_near_uniform(self):
        counters = run_stream(generate("gmon", 60_000, 3))
        # gmon data defeats the TCP sum but not a 16-bit CRC: the aux
        # CRC-16 miss count stays near remaining / 2^16.
        expectation = counters.remaining / 65536
        assert counters.missed_aux["crc16-ccitt"] <= max(10 * expectation, 10)
        assert counters.missed_transport > 100 * max(expectation, 1)

    def test_unknown_aux_rejected(self):
        with pytest.raises((ValueError, KeyError)):
            SpliceEngine(EngineOptions(aux_crcs=("internet",)))

    def test_aux_disabled(self):
        counters = run_stream(bytes(1024), aux_crcs=())
        assert counters.missed_aux == {}


class TestOptions:
    def test_from_packetizer_mirrors_config(self):
        config = PacketizerConfig(
            algorithm="fletcher255",
            placement=ChecksumPlacement.TRAILER,
            invert=False,
        )
        options = EngineOptions.from_packetizer(config)
        assert options.algorithm == "fletcher255"
        assert options.placement is ChecksumPlacement.TRAILER
        assert options.invert is False
        assert options.require_ip_checksum is True
        assert options.legacy_coverage is False

    def test_from_packetizer_legacy_mode(self):
        config = PacketizerConfig(fill_ip_header=False)
        options = EngineOptions.from_packetizer(config)
        assert options.require_ip_checksum is False
        assert options.legacy_coverage is True

    def test_unsupported_algorithm(self):
        with pytest.raises(ValueError):
            SpliceEngine(EngineOptions(algorithm="md5"))


class TestCountersArithmetic:
    def test_add_merges_everything(self):
        a = run_stream(generate("gmon", 3000, 1))
        b = run_stream(generate("english", 3000, 2))
        merged = a + b
        assert merged.total == a.total + b.total
        assert merged.missed_transport == a.missed_transport + b.missed_transport
        assert merged.remaining_by_len[4] == (
            a.remaining_by_len[4] + b.remaining_by_len[4]
        )
        assert merged.sanity_check()

    def test_rates_of_empty_counters(self):
        empty = SpliceCounters()
        assert empty.miss_rate_transport == 0.0
        assert empty.caught_by_header_pct == 0.0
        assert empty.effective_bits == float("inf")
        assert empty.sanity_check()


class TestPerLengthAttribution:
    def test_by_length_matches_reference(self):
        # Brute-force the per-substitution-length accounting on one
        # pair: group reference verdicts by the enumeration's k and
        # compare with the engine's counters.
        from collections import Counter

        from repro.core import reference
        from repro.core.enumeration import enumerate_splices

        config = PacketizerConfig()
        options = EngineOptions.from_packetizer(config, aux_crcs=())
        units = FileTransferSimulator(config).transfer(generate("gmon", 600, 4))
        first, second = units[0], units[1]
        engine = SpliceEngine(options)
        counters = engine.evaluate_batch(
            first.frame.cells()[None], second.frame.cells()[None],
            len(first.packet.ip_packet), len(second.packet.ip_packet),
        )

        enum = enumerate_splices(first.frame.cell_count, second.frame.cell_count)
        expected_remaining = Counter()
        expected_missed = Counter()
        for row in range(enum.splices):
            verdict = reference.judge_splice(
                first.frame, second.frame, enum.selection[row], options
            )
            if verdict["header_pass"] and not verdict["identical"]:
                k = int(enum.substitution_len[row])
                expected_remaining[k] += 1
                if verdict["transport"]:
                    expected_missed[k] += 1
        assert counters.remaining_by_len == expected_remaining
        assert counters.missed_by_len == +expected_missed


class TestSpans:
    def test_evaluate_stream_span_tree(self):
        # The tree the bench overhead section walks and the table
        # ledger's per-stage rows sum.
        simulator = FileTransferSimulator()
        engine = SpliceEngine(EngineOptions())
        with collect() as telemetry:
            engine.evaluate_stream(simulator.wire(generate("english", 3000, 1)))
        spans = telemetry.snapshot()["spans"]
        assert [node["name"] for node in spans] == ["protocols.wire", "engine.stream"]
        assert spans[0]["count"] == 1 and not spans[0].get("children")
        children = spans[1]["children"]
        assert [node["name"] for node in children] == ["engine.batch"]
        assert {node["name"] for node in children[0]["children"]} == {
            "engine.enumeration",
            "engine.header",
            "engine.transport",
            "engine.crc32",
            "engine.identical",
            "engine.aux",
        }
