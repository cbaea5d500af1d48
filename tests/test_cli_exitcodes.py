"""The CLI's exit-code contract for interrupted and degraded sweeps.

==========================  ====
outcome                     exit
==========================  ====
clean run                   0
lint findings               1
RunAborted (genuine bug)    2
deadline-exceeded partial   3
SIGINT after checkpoint     130
SIGTERM after checkpoint    143
==========================  ====
"""

from __future__ import annotations

import signal

import pytest

import repro.api
from repro.cli import main
from repro.core.checkpoint import SweepInterrupted
from repro.core.supervisor import RunAborted

_SPLICE = ["splice", "--profile", "stanford-u1", "--bytes", "40000"]


def _patch_splice(monkeypatch, exc):
    """Make the splice handler's experiment call raise ``exc``."""

    def boom(*args, **kwargs):
        raise exc

    # The facade resolves lazily; seed the attribute, then replace it.
    getattr(repro.api, "run_splice_experiment")
    monkeypatch.setattr(repro.api, "run_splice_experiment", boom)


class TestSignalExitCodes:
    def test_sigint_checkpoint_exits_130(self, monkeypatch, capsys):
        _patch_splice(monkeypatch, SweepInterrupted(
            "SIGINT", done=2, total=4, signum=signal.SIGINT,
        ))
        assert main(_SPLICE) == 130
        err = capsys.readouterr().err
        assert "checkpointed at shard 2/4" in err
        assert "--resume" in err

    def test_sigterm_checkpoint_exits_143(self, monkeypatch, capsys):
        _patch_splice(monkeypatch, SweepInterrupted(
            "SIGTERM", done=1, total=4, signum=signal.SIGTERM,
        ))
        assert main(_SPLICE) == 143

    def test_unknown_signum_degrades_to_130(self, monkeypatch, capsys):
        _patch_splice(monkeypatch, SweepInterrupted("interrupted"))
        assert main(_SPLICE) == 130


class TestRunAborted:
    def test_run_aborted_exits_2_with_one_line(self, monkeypatch, capsys):
        _patch_splice(monkeypatch, RunAborted("job 3 failed every rung"))
        assert main(_SPLICE) == 2
        err = capsys.readouterr().err
        assert "run aborted" in err and "job 3" in err


class TestDeadline:
    def test_deadline_partial_report_exits_3(self, capsys):
        # End to end: a microscopic budget stops the sweep before the
        # first shard; the report prints (partial) and the exit is 3.
        code = main([*_SPLICE, "--deadline", "0.0001"])
        captured = capsys.readouterr()
        assert code == 3
        assert "deadline" in captured.err
        assert "partial" in captured.err
        assert "degraded: deadline" in captured.out  # health footnote

    def test_generous_deadline_exits_0(self, capsys):
        assert main([*_SPLICE, "--deadline", "3600"]) == 0
        assert "deadline" not in capsys.readouterr().err


class TestFlagValidation:
    @pytest.mark.parametrize("flag", ["--deadline", "--shard-timeout"])
    @pytest.mark.parametrize("value", ["0", "-5", "nonsense"])
    def test_nonpositive_seconds_are_rejected(self, flag, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*_SPLICE, flag, value])
        assert excinfo.value.code == 2
        assert "seconds" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["splice"], ["chaos"], ["channel", "run"]])
    @pytest.mark.parametrize("value", ["0", "-1", "65496", "big"])
    def test_mss_outside_a_frame_is_rejected(self, command, value, capsys):
        # One usage line with exit 2, not a traceback from the packetizer.
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--mss", value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "argument --mss" in err and "Traceback" not in err

    def test_trailer_mss_past_the_frame_is_a_usage_error(self, capsys):
        code = main(["splice", "--placement", "trailer", "--mss", "65494",
                     "--bytes", "1000", "--no-journal"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "65535" in err

    def test_largest_mss_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["splice", "--mss", "65495"])
        assert args.mss == 65495

    def test_sweep_flags_parse_on_run_splice_chaos(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["run", "table4", "--shard-timeout", "2", "--deadline", "60",
             "--resume", "--no-journal"]
        )
        assert args.shard_timeout == 2.0 and args.deadline == 60.0
        assert args.resume is True and args.journal is False
        args = parser.parse_args(["splice", "--shard-timeout", "0.5"])
        assert args.shard_timeout == 0.5 and args.journal is True
        args = parser.parse_args(["chaos", "--shard-timeout", "1"])
        assert args.shard_timeout == 1.0
        assert not hasattr(args, "journal")  # chaos runs are ephemeral


class TestNoJournal:
    def test_no_journal_leaves_nothing_behind(self, tmp_path, capsys):
        code = main([*_SPLICE, "--no-journal",
                     "--cache-dir", str(tmp_path)])
        assert code == 0
        assert not (tmp_path / "journal").exists()

    def test_journaled_run_cleans_up_after_itself(self, tmp_path, capsys):
        code = main([*_SPLICE, "--cache-dir", str(tmp_path)])
        assert code == 0
        journal_dir = tmp_path / "journal"
        assert journal_dir.is_dir()  # the sweep was journaled...
        assert list(journal_dir.glob("*.journal")) == []  # ...and completed
