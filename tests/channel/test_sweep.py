"""Tests for the channel sweep: workers-invariance, journal, store."""

from repro.channel.arq import ArqConfig, ChannelReport
from repro.channel.plan import ChannelPlan, named_channel_plan
from repro.channel.sweep import channel_fingerprint, run_channel_sweep
from repro.core.supervisor import RunHealth
from repro.protocols.packetizer import PacketizerConfig
from repro.store.journal import ShardJournal
from repro.store.runner import RunStore

from tests.conftest import make_filesystem


def small_fs():
    return make_filesystem(
        [("english", 9_000), ("c-source", 8_000), ("zero-heavy", 7_000)],
        name="channel-fs",
    )


class TestWorkersInvariance:
    def test_report_and_events_identical_across_worker_counts(self):
        fs = small_fs()
        plan = named_channel_plan("bursty-link", seed=5)
        sequential_events, pooled_events = [], []
        sequential = run_channel_sweep(
            fs, plan, events_out=sequential_events, workers=1
        )
        pooled = run_channel_sweep(
            fs, plan, events_out=pooled_events, workers=4
        )
        assert sequential.to_dict() == pooled.to_dict()
        assert sequential_events == pooled_events

    def test_events_carry_file_boundaries(self):
        fs = small_fs()
        events = []
        run_channel_sweep(fs, named_channel_plan("clean"), events_out=events)
        boundaries = [e for e in events if e["event"] == "file"]
        assert [b["index"] for b in boundaries] == [0, 1, 2]


class TestMergedReport:
    def test_files_and_frames_sum(self):
        fs = small_fs()
        plan = named_channel_plan("lossy-link", seed=2)
        merged = run_channel_sweep(fs, plan)
        assert merged.files == len(fs)
        assert merged.frames > 0
        assert merged.delivered_clean == merged.frames

    def test_max_files_truncates(self):
        fs = small_fs()
        merged = run_channel_sweep(
            fs, named_channel_plan("clean"), max_files=1
        )
        assert merged.files == 1

    def test_notes_fold_into_health(self):
        fs = small_fs()
        plan = ChannelPlan(seed=1, loss_rate=0.9)
        health = RunHealth()
        merged = run_channel_sweep(
            fs, plan, arq=ArqConfig(budget=0, timeout=8.0), health=health
        )
        assert merged.frames_failed > 0
        assert health.eventful
        assert health.degradations


class TestFingerprint:
    def test_tracks_every_knob(self):
        fs = small_fs()
        files = list(fs)
        plan = named_channel_plan("bursty-link", seed=5)
        arq = ArqConfig()
        config = PacketizerConfig()
        base = channel_fingerprint(files, plan, arq, config, True)
        assert base == channel_fingerprint(files, plan, arq, config, True)
        assert base != channel_fingerprint(files, plan, arq, config, False)
        assert base != channel_fingerprint(
            files, named_channel_plan("bursty-link", seed=6), arq, config,
            True,
        )
        assert base != channel_fingerprint(
            files, plan, ArqConfig(kind="stop-and-wait"), config, True
        )


class TestJournal:
    def test_resume_skips_completed_shards(self, tmp_path):
        fs = small_fs()
        plan = named_channel_plan("lossy-link", seed=3)
        path = tmp_path / "channel.journal"

        direct = run_channel_sweep(fs, plan)

        # Simulate an interrupted sweep: checkpoint the first file's
        # shard by hand (exactly what the sweep records), then resume.
        from repro.channel.arq import run_channel_transfer
        from repro.channel.sweep import _shard_key

        files = list(fs)
        arq, config = ArqConfig(), PacketizerConfig()
        fingerprint = channel_fingerprint(files, plan, arq, config, True)
        journal = ShardJournal(path)
        journal.open_run(fingerprint, total=len(files))
        journal.record(
            _shard_key(fingerprint, 0, files[0].data),
            run_channel_transfer(files[0].data, plan, arq=arq,
                                 config=config),
        )
        assert path.exists()

        resumed_journal = ShardJournal(path)
        resumed = run_channel_sweep(
            fs, plan, arq=arq, config=config, journal=resumed_journal,
            resume=True,
        )
        assert resumed.to_dict() == direct.to_dict()
        assert not path.exists()  # completed sweep cleans up

    def test_journal_codec_revives_channel_reports(self, tmp_path):
        path = tmp_path / "codec.journal"
        journal = ShardJournal(path)
        journal.open_run("fp", total=1)
        report = ChannelReport(files=1, frames=4, delivered_clean=4,
                               ticks=10.5, notes=["n"])
        journal.record("shard-0", report)

        fresh = ShardJournal(path)
        entries = fresh.open_run("fp", resume=True, codec=ChannelReport)
        assert entries == {"shard-0": report}
        assert isinstance(entries["shard-0"], ChannelReport)


class TestStoreCache:
    def test_cached_rerun_is_bit_identical(self, tmp_path):
        fs = small_fs()
        plan = named_channel_plan("bursty-link", seed=4)
        store = RunStore(tmp_path / "store")
        cold = run_channel_sweep(fs, plan, store=store)
        warm = run_channel_sweep(fs, plan, store=store)
        assert cold.to_dict() == warm.to_dict()
        direct = run_channel_sweep(fs, plan)
        assert warm.to_dict() == direct.to_dict()

    def test_only_shards_the_store_did_not_keep_are_journaled(
        self, tmp_path, monkeypatch
    ):
        recorded = []
        monkeypatch.setattr(
            ShardJournal, "record",
            lambda journal, key, report: recorded.append(key),
        )
        fs = small_fs()
        plan = named_channel_plan("lossy-link", seed=4)
        path = tmp_path / "channel.journal"
        store = RunStore(tmp_path / "store")
        run_channel_sweep(fs, plan, store=store, journal=ShardJournal(path))
        assert store.shards.stats.puts == 3 and recorded == []
        run_channel_sweep(fs, plan, journal=ShardJournal(path))
        assert len(recorded) == 3  # no store: every shard

    def test_recording_events_skips_the_cache(self, tmp_path):
        fs = small_fs()
        plan = named_channel_plan("lossy-link", seed=4)
        store = RunStore(tmp_path / "store")
        run_channel_sweep(fs, plan, store=store)
        events = []
        traced = run_channel_sweep(
            fs, plan, store=store, events_out=events
        )
        assert events  # a cached shard would have produced no events
        direct = run_channel_sweep(fs, plan)
        assert traced.to_dict() == direct.to_dict()
