"""Tests for the end-to-end reliable-transfer simulation.

The timed channel is the one transfer simulator: a file is framed by
the packetizer, sent as cells over a seeded :class:`ChannelPlan` and
recovered by ARQ, with every frame judged by the shared receiver.
"""

from repro.channel.arq import (
    NOTE_BUDGET,
    ArqConfig,
    ChannelReport,
    run_channel_transfer,
)
from repro.channel.link import plan_trajectory
from repro.channel.plan import ChannelPlan, named_channel_plan
from repro.core.supervisor import RunHealth
from repro.corpus.generators import generate

#: One send and one retransmission per frame, then give up.
GIVE_UP = ArqConfig(kind="stop-and-wait", budget=1)


def _hostile_link():
    data = generate("english", 2_000, 5)
    return data, ChannelPlan(seed=6, loss_rate=0.9)


class TestLosslessTransfer:
    def test_everything_delivered_clean(self):
        data = generate("english", 5_000, 1)
        report = run_channel_transfer(data, ChannelPlan())
        assert report.delivered_clean == report.frames
        assert report.delivered_corrupted == 0
        assert report.transmissions == report.frames
        assert report.frames_rejected == 0
        assert report.retransmission_ratio == 1.0


class TestLossyTransfer:
    def test_retransmissions_recover_the_file(self):
        data = generate("english", 8_000, 2)
        report = run_channel_transfer(
            data, ChannelPlan(seed=3, loss_rate=0.1)
        )
        assert report.delivered_clean == report.frames
        assert report.frames_failed == 0
        assert report.transmissions > report.frames
        assert report.frames_rejected > 0
        assert report.cells_delivered < report.cells_sent

    def test_deterministic(self):
        data = generate("gmon", 6_000, 1)
        plan = ChannelPlan(seed=9, loss_rate=0.2)
        a = run_channel_transfer(data, plan)
        plan_trajectory.cache_clear()  # b draws every cell fate again
        b = run_channel_transfer(data, plan)
        assert a == b

    def test_give_up_bound(self):
        data, plan = _hostile_link()
        report = run_channel_transfer(data, plan, arq=GIVE_UP)
        assert report.frames_failed > 0
        assert report.transmissions <= 2 * report.frames


class TestSilentCorruption:
    def test_crc_prevents_silent_corruption(self):
        # The bottom line: on checksum-hostile data, the TCP sum alone
        # lets corrupted packets reach the application; the AAL5 CRC
        # stops them.
        data = generate("gmon", 250_000, 3)
        plan = named_channel_plan("congested-queue", seed=2)
        without = run_channel_transfer(data, plan, use_crc=False)
        with_crc = run_channel_transfer(data, plan, use_crc=True)
        assert without.silent_corruption > 0
        assert with_crc.silent_corruption == 0
        assert with_crc.frames_failed == 0


class TestDegradedDelivery:
    def test_gave_up_marks_health_and_renders(self):
        data, plan = _hostile_link()
        health = RunHealth()
        report = run_channel_transfer(data, plan, arq=GIVE_UP, health=health)
        assert report.frames_failed > 0
        assert report.degraded
        assert health.eventful
        rendered = health.render()
        assert "budget exhausted" in rendered
        assert "incomplete" in rendered

    def test_clean_transfer_is_not_degraded(self):
        data = generate("english", 3_000, 1)
        health = RunHealth()
        report = run_channel_transfer(data, ChannelPlan(), health=health)
        assert not report.degraded
        assert not health.eventful

    def test_add_merges_counters_and_health(self):
        data, plan = _hostile_link()
        clean = run_channel_transfer(data, ChannelPlan())
        broken = run_channel_transfer(data, plan, arq=GIVE_UP)
        merged = clean + broken
        assert merged.frames == clean.frames + broken.frames
        assert merged.frames_failed == broken.frames_failed
        assert merged.degraded
        assert merged.notes == [NOTE_BUDGET]
        health = RunHealth()
        for note in merged.notes:
            health.degrade(note)
        assert "budget exhausted" in health.render()
        # The operands keep their own notes.
        assert clean.notes == []
        assert broken.notes == [NOTE_BUDGET]


def test_report_defaults():
    report = ChannelReport()
    assert report.retransmission_ratio == 0.0
    assert report.goodput == 0.0
    assert report.silent_corruption == 0
    assert not report.degraded
