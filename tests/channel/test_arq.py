"""Tests for the ARQ layer: recovery, budgets, graceful degradation."""

import pytest

from repro.channel.arq import (
    ARQ_KINDS,
    ArqConfig,
    ChannelReport,
    NOTE_BUDGET,
    run_channel_transfer,
)
from repro.channel.plan import ChannelPlan, named_channel_plan
from repro.core.supervisor import RunHealth
from repro.corpus.generators import generate
from repro.protocols.packetizer import ChecksumPlacement, PacketizerConfig

DATA = generate("english", 12_000, 1)


class TestArqConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ArqConfig(kind="hybrid")
        with pytest.raises(ValueError):
            ArqConfig(window=0)
        with pytest.raises(ValueError):
            ArqConfig(backoff=0.5)
        with pytest.raises(ValueError):
            ArqConfig(max_timeout=1.0, timeout=2.0)

    def test_round_trip(self):
        config = ArqConfig(kind="selective-repeat", window=4, budget=3)
        assert ArqConfig.from_dict(config.to_dict()) == config

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            ArqConfig.from_dict({"kind": "go-back-n", "nagle": True})


class TestChannelReport:
    def test_add_merges_counters_and_notes(self):
        a = ChannelReport(files=1, frames=10, transmissions=12,
                          notes=["x"])
        b = ChannelReport(files=1, frames=5, transmissions=5,
                          notes=["x", "y"])
        merged = a + b
        assert merged.files == 2
        assert merged.frames == 15
        assert merged.transmissions == 17
        assert merged.notes == ["x", "y"]

    def test_json_round_trip(self):
        report = ChannelReport(frames=3, delivered_clean=2,
                               frames_failed=1, ticks=42.5,
                               notes=["degraded"])
        assert ChannelReport.from_json(report.to_json()) == report

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            ChannelReport.from_dict({"frames": 1, "bogus": 2})

    def test_degraded_property(self):
        assert not ChannelReport(frames=1, delivered_clean=1).degraded
        assert ChannelReport(frames_failed=1).degraded
        assert ChannelReport(delivered_corrupted=1).degraded


class TestCleanChannel:
    def test_one_transmission_per_frame(self):
        report = run_channel_transfer(DATA, ChannelPlan())
        assert report.delivered_clean == report.frames
        assert report.transmissions == report.frames
        assert report.retransmissions == 0
        assert report.frames_failed == 0
        assert report.delivered_corrupted == 0
        assert not report.degraded
        assert report.ticks > 0


class TestRecovery:
    @pytest.mark.parametrize("kind", ARQ_KINDS)
    def test_every_kind_recovers_a_lossy_link(self, kind):
        plan = ChannelPlan(seed=3, loss_rate=0.08)
        report = run_channel_transfer(DATA, plan, arq=ArqConfig(kind=kind))
        assert report.delivered_clean == report.frames, kind
        assert report.retransmissions > 0, kind
        assert report.frames_failed == 0, kind

    def test_checksum_verdicts_drive_recovery(self):
        # Bit errors never *lose* cells; only checksum rejections make
        # the receiver discard frames, so every retransmission here was
        # triggered by a checksum verdict.
        plan = ChannelPlan(seed=5, bit_errors=(0.08, 0.2, 0.0, 0.01))
        report = run_channel_transfer(DATA, plan)
        assert report.cells_lost == 0
        assert report.frames_rejected > 0
        assert report.retransmissions > 0
        assert report.delivered_clean == report.frames

    def test_trailer_checksum_config(self):
        # The receiver finds the transport checksum in the trailer when
        # the packetizer put it there: every frame recovers clean.
        data = generate("gmon", 20_000, 7)
        config = PacketizerConfig(placement=ChecksumPlacement.TRAILER)
        report = run_channel_transfer(
            data, named_channel_plan("lossy-link"), config=config
        )
        assert report.retransmissions > 0
        assert report.delivered_clean == report.frames
        assert report.delivered_corrupted == 0
        assert report.frames_failed == 0

    def test_go_back_n_discards_out_of_order(self):
        plan = ChannelPlan(seed=3, loss_rate=0.08)
        gbn = run_channel_transfer(
            DATA, plan, arq=ArqConfig(kind="go-back-n")
        )
        srp = run_channel_transfer(
            DATA, plan, arq=ArqConfig(kind="selective-repeat")
        )
        assert gbn.out_of_order > 0
        assert srp.out_of_order == 0
        assert gbn.transmissions > srp.transmissions

    def test_stop_and_wait_serializes(self):
        plan = ChannelPlan()
        report = run_channel_transfer(
            DATA, plan, arq=ArqConfig(kind="stop-and-wait")
        )
        assert report.delivered_clean == report.frames
        # One frame in flight at a time takes strictly longer than the
        # windowed disciplines on the same clean link.
        windowed = run_channel_transfer(DATA, plan)
        assert report.ticks > windowed.ticks


class TestGracefulDegradation:
    def test_budget_exhaustion_never_hangs(self):
        # A brutal link and a tiny budget: frames are abandoned, the
        # session still terminates with a partial report.
        plan = ChannelPlan(seed=9, loss_rate=0.6)
        health = RunHealth()
        report = run_channel_transfer(
            DATA, plan, arq=ArqConfig(budget=1, timeout=16.0),
            health=health,
        )
        assert report.frames_failed > 0
        assert report.degraded
        assert NOTE_BUDGET in report.notes
        assert health.eventful
        assert any("budget" in note for note in health.degradations)
        # Abandoned or not, every frame was resolved.
        assert (
            report.delivered_clean + report.delivered_corrupted
            + report.frames_failed >= report.frames
        )

    def test_total_blackout_terminates(self):
        plan = ChannelPlan(seed=1, loss_rate=1.0)
        report = run_channel_transfer(
            DATA, plan, arq=ArqConfig(budget=2, timeout=8.0)
        )
        assert report.frames_failed == report.frames
        assert report.delivered_clean == 0
        assert report.degraded

    def test_overflow_storm_terminates(self):
        plan = ChannelPlan(seed=2, queue_capacity=2, queue_service=50.0)
        report = run_channel_transfer(
            DATA, plan, arq=ArqConfig(budget=2, timeout=16.0)
        )
        assert report.cells_overflowed > 0
        assert report.frames_failed + report.delivered_clean >= report.frames

    def test_notes_are_canonical_and_deduped(self):
        plan = ChannelPlan(seed=9, loss_rate=0.9)
        report = run_channel_transfer(
            DATA, plan, arq=ArqConfig(budget=0, timeout=8.0)
        )
        assert report.notes.count(NOTE_BUDGET) == 1


class TestSilentCorruption:
    def test_weak_checksum_leaks_under_splices(self):
        # The congested queue drops cell runs, splicing adjacent
        # packets -- the paper's error model.  Without the CRC, the
        # TCP checksum misses some splices: silent corruption.
        plan = named_channel_plan("congested-queue", seed=3)
        data = generate("zero-heavy", 40_000, 3)
        report = run_channel_transfer(data, plan, use_crc=False)
        assert report.delivered_corrupted > 0
        assert report.degraded

    def test_crc_stops_the_leak(self):
        plan = named_channel_plan("congested-queue", seed=3)
        data = generate("zero-heavy", 40_000, 3)
        report = run_channel_transfer(data, plan, use_crc=True)
        assert report.delivered_corrupted == 0


class TestDeterminism:
    @pytest.mark.parametrize(
        "name", ["clean", "lossy-link", "bursty-link", "reordering-link",
                 "congested-queue"]
    )
    def test_trace_is_bit_identical(self, name):
        plan = named_channel_plan(name, seed=21)
        first_events, second_events = [], []
        first = run_channel_transfer(DATA, plan, trace_events=first_events)
        second = run_channel_transfer(DATA, plan, trace_events=second_events)
        assert first_events == second_events
        assert first.to_dict() == second.to_dict()

    def test_trace_records_verdicts(self):
        plan = ChannelPlan(seed=5, loss_rate=0.1)
        events = []
        run_channel_transfer(DATA, plan, trace_events=events)
        kinds = {entry["event"] for entry in events}
        assert {"send", "deliver"} <= kinds
        delivers = [e for e in events if e["event"] == "deliver"]
        assert all("clean" in e for e in delivers)
