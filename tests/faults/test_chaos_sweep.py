"""End-to-end chaos: sweeps under injected faults finish bit-identical.

The acceptance test of the robustness layer, and the test-suite twin of
``repro-checksums chaos``: run the splice sweep while the fault plan
crashes workers, flips stored bits, and fills the disk — then assert
the merged counters equal a fault-free run's, that the plan replays
deterministically, and that :class:`RunHealth` recorded the ride.
The ``flaky-network`` plan's resets, timeouts, slow and stale reads
hit the same local store.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.core.experiment import run_splice_experiment
from repro.core.supervisor import RunHealth
from repro.faults.injector import wrap_run_store
from repro.faults.plan import named_plan
from repro.protocols.packetizer import PacketizerConfig
from repro.store.runner import RunStore
from tests.conftest import make_filesystem

pytestmark = pytest.mark.chaos

KINDS = [("english", 6_000), ("gmon", 5_000), ("c-source", 6_000), ("zero-heavy", 5_000)]


@pytest.fixture
def fs():
    return make_filesystem(KINDS, seed=4, name="chaosbox")


@pytest.fixture
def config():
    return PacketizerConfig()


@pytest.fixture
def clean_counters(fs, config):
    return run_splice_experiment(fs, config).counters


def chaotic_run(fs, config, root, plan_name, fault_seed, workers=None):
    plan = named_plan(plan_name, seed=fault_seed)
    health = RunHealth()
    store = wrap_run_store(RunStore(root), plan, health)
    result = run_splice_experiment(
        fs, config, workers=workers, store=store, faults=plan, health=health
    )
    return result, plan, health


#: Plans whose sweeps over a local store must match a clean run: the
#: default diet, and network-style read faults (resets, timeouts,
#: slow and stale reads) that the store guard absorbs.
SWEEP_PLANS = ["monkey", "flaky-network"]


class TestSequentialChaos:
    @pytest.mark.parametrize("plan_name", SWEEP_PLANS)
    def test_sweep_is_bit_identical(
        self, tmp_path, fs, config, clean_counters, plan_name
    ):
        result, plan, health = chaotic_run(
            fs, config, tmp_path / "store", plan_name, fault_seed=1
        )
        assert result.counters == clean_counters
        assert len(plan.log) > 0, "the plan must actually inject"
        assert health.faults_injected > 0
        assert health.store_errors > 0
        assert health.eventful

    @pytest.mark.parametrize("plan_name", SWEEP_PLANS)
    def test_same_seed_injects_identically(
        self, tmp_path, fs, config, clean_counters, plan_name
    ):
        a_result, a_plan, _ = chaotic_run(
            fs, config, tmp_path / "a", plan_name, fault_seed=2
        )
        b_result, b_plan, _ = chaotic_run(
            fs, config, tmp_path / "b", plan_name, fault_seed=2
        )
        # Sequential runs drive the plan in a deterministic op order,
        # so the *live* fault logs must replay move for move.
        assert a_plan.fingerprint() == b_plan.fingerprint()
        assert [e.as_tuple() for e in a_plan.log] == [
            e.as_tuple() for e in b_plan.log
        ]
        assert a_result.counters == b_result.counters == clean_counters

    def test_bitrot_resume_evicts_and_recomputes(
        self, tmp_path, fs, config, clean_counters
    ):
        root = tmp_path / "store"
        # Populate cleanly, then resume through a read-corrupting plan.
        run_splice_experiment(fs, config, store=RunStore(root))
        # fault_seed=1 schedules bit flips on shard reads.
        result, plan, health = chaotic_run(fs, config, root, "bitrot", fault_seed=1)
        assert result.counters == clean_counters
        assert health.evictions > 0, "bit rot over a warm store must evict"

    def test_full_disk_never_aborts(self, tmp_path, fs, config, clean_counters):
        result, _, health = chaotic_run(
            fs, config, tmp_path / "store", "full-disk", fault_seed=0
        )
        assert result.counters == clean_counters
        assert health.store_errors > 0

    def test_replica_outage_notes_do_not_depend_on_the_root(
        self, tmp_path, fs, config, clean_counters
    ):
        # The demotion note quotes the injected error; two sweeps over
        # different store roots must record the same notes.
        a_result, _, a_health = chaotic_run(
            fs, config, tmp_path / "a", "replica-outage", fault_seed=0
        )
        b_result, _, b_health = chaotic_run(
            fs, config, tmp_path / "elsewhere" / "b", "replica-outage", fault_seed=0
        )
        assert a_result.counters == b_result.counters == clean_counters
        assert a_health.storeless and a_health.degradations
        assert a_health.degradations == b_health.degradations


class TestPooledChaos:
    def test_flaky_workers_with_pool(self, tmp_path, fs, config, clean_counters):
        result, plan, health = chaotic_run(
            fs, config, tmp_path / "store", "flaky-workers",
            fault_seed=3, workers=2,
        )
        assert result.counters == clean_counters
        assert len(plan.log) > 0


class TestChaosCLI:
    def test_chaos_command_succeeds_and_reports(self, tmp_path, capsys):
        code = main([
            "chaos", "--profile", "stanford-u1", "--bytes", "60000",
            "--plan", "monkey", "--workers", "2",
            "--cache-dir", str(tmp_path / "chaos"),
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert out.count("counters identical") == 2  # populate + resume
        assert "plan replay        deterministic" in out
        assert "faults cost time, never correctness" in out
        assert "run health" in out

    @pytest.fixture
    def temp_dir(self, tmp_path, monkeypatch):
        """The temporary directory chaos makes its store root in."""
        import tempfile

        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR
        return tmp_path

    def test_chaos_removes_its_temporary_store_root(self, temp_dir, capsys):
        argv = ["chaos", "--plan", "bitrot", "--bytes", "30000",
                "--workers", "1"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "store root         temporary (removed)" in first
        assert list(temp_dir.iterdir()) == []
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_chaos_removes_its_temporary_store_root_on_error(
        self, temp_dir, monkeypatch
    ):
        import repro.api

        clean_run = repro.api.run_splice_experiment

        def failing(fs, config, store=None, **kwargs):
            if store is not None:
                raise RuntimeError("sweep failed")
            return clean_run(fs, config, **kwargs)

        monkeypatch.setattr(repro.api, "run_splice_experiment", failing)
        with pytest.raises(RuntimeError, match="sweep failed"):
            main(["chaos", "--plan", "bitrot", "--bytes", "30000",
                  "--workers", "1"])
        assert list(temp_dir.iterdir()) == []

    def test_chaos_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["chaos"])
        assert args.plan == "monkey"
        assert args.fault_seed == 0
        assert args.workers == 2

    def test_chaos_parser_rejects_unknown_plan(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--plan", "gremlins"])
