"""Tests for the repro-checksums command-line interface."""

import argparse
import ast
import contextlib
import gc
import importlib
import io
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro.cli
from repro.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_sum_args(self):
        args = build_parser().parse_args(["sum", "f1", "f2", "-a", "crc32-aal5"])
        assert args.files == ["f1", "f2"]
        assert args.algorithm == "crc32-aal5"

    def test_run_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "table99"])

    def test_placement_choices_match_the_enum(self):
        # The parser spells the choices literally so building it never
        # imports the packetizer; this pins the equivalence.
        from repro.api import ChecksumPlacement
        from repro.cli import _PLACEMENT_CHOICES

        assert list(_PLACEMENT_CHOICES) == [
            p.value for p in ChecksumPlacement
        ]

    def test_profile_choices_match_the_corpus(self):
        # Spelled literally too, so building the parser never imports
        # the corpus generators.
        from repro.api import profile_names
        from repro.cli import _PROFILE_CHOICES

        assert list(_PROFILE_CHOICES) == profile_names()

    def test_chaos_plan_choices_match_the_fault_plans(self):
        from repro.api import plan_names
        from repro.cli import _CHAOS_PLAN_CHOICES

        assert list(_CHAOS_PLAN_CHOICES) == plan_names()

    def test_channel_plan_choices_match_the_channel_plans(self):
        from repro.api import channel_plan_names
        from repro.cli import _CHANNEL_PLAN_CHOICES

        assert list(_CHANNEL_PLAN_CHOICES) == channel_plan_names()

    def test_importing_the_cli_stays_light(self):
        # The warm-start contract (REP303): importing the CLI and
        # building its parser must not pull in the splice engine, nor
        # NumPy (the parser's choices are names, not arrays), nor the
        # fault and channel plans behind two commands' --plan choices.
        import subprocess
        import sys

        code = (
            "import sys; import repro.cli; repro.cli.build_parser(); "
            "hot = [m for m in sys.modules "
            "if m.startswith('repro.core.engine') "
            "or m in ('repro.faults.plan', 'repro.channel.plan') "
            "or m.split('.')[0] == 'numpy']; "
            "sys.exit(1 if hot else 0)"
        )
        proc = subprocess.run([sys.executable, "-c", code])
        assert proc.returncode == 0


class TestCommands:
    def test_algorithms(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        assert "internet" in out and "crc32-aal5" in out

    def test_profiles(self, capsys):
        assert main(["profiles"]) == 0
        out = capsys.readouterr().out
        assert "stanford-u1" in out

    def test_sum_file(self, tmp_path, capsys):
        path = tmp_path / "data.bin"
        path.write_bytes(b"123456789")
        assert main(["sum", str(path), "-a", "crc32-aal5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("fc891918")

    def test_sum_default_algorithm(self, tmp_path, capsys):
        path = tmp_path / "data.bin"
        path.write_bytes(bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7]))
        assert main(["sum", str(path)]) == 0
        assert capsys.readouterr().out.startswith("ddf2")

    def test_run_epd(self, capsys):
        assert main(["run", "epd"]) == 0
        assert "Early Packet Discard" in capsys.readouterr().out

    def test_run_with_size(self, capsys):
        assert main(["run", "table5", "--bytes", "120000", "--seed", "2"]) == 0
        assert "locally congruent" in capsys.readouterr().out

    def test_splice(self, capsys):
        assert main([
            "splice", "--profile", "uniform", "--bytes", "60000",
        ]) == 0
        out = capsys.readouterr().out
        assert "total splices" in out
        assert "missed (transport)" in out

    def test_splice_trailer_fletcher(self, capsys):
        assert main([
            "splice", "--profile", "uniform", "--bytes", "40000",
            "--algorithm", "fletcher256", "--placement", "trailer",
        ]) == 0
        assert "fletcher256" in capsys.readouterr().out

    def test_splice_prints_reference_counters(self, capsys):
        from repro.api import PacketizerConfig, build_filesystem
        from tests.conftest import reference_run

        assert main(["splice", "--profile", "uniform", "--bytes", "6000"]) == 0
        out = capsys.readouterr().out
        c = reference_run(build_filesystem("uniform", 6000, 3), PacketizerConfig())
        assert c.total > 0
        for line in (
            "total splices      %d" % c.total,
            "caught by header   %d (%.2f%%)" % (
                c.caught_by_header, c.caught_by_header_pct),
            "identical data     %d" % c.identical,
            "remaining          %d" % c.remaining,
            "missed (transport) %d (%.4f%% of remaining)" % (
                c.missed_transport, c.miss_rate_transport),
            "missed (CRC-32)    %d" % c.missed_crc32,
        ):
            assert line in out.splitlines(), line


class TestNewCommands:
    def test_run_with_svg(self, tmp_path, capsys):
        path = tmp_path / "fig.svg"
        assert main(["run", "figure3", "--bytes", "100000",
                     "--svg", str(path)]) == 0
        assert path.read_text().startswith("<svg")

    def test_report(self, tmp_path, capsys):
        path = tmp_path / "out.md"
        assert main(["report", "-o", str(path), "--bytes", "60000",
                     "--only", "epd"]) == 0
        assert "epd" in path.read_text()

    def test_channel_run_without_crc_delivers_corruption(self, capsys):
        # Section 7's warning end to end: over a congested queue that
        # splices adjacent packets, the TCP checksum alone lets
        # corrupted frames reach the application (degraded, exit 4);
        # the AAL5 CRC catches every one of them.
        argv = ["channel", "run", "--plan", "congested-queue",
                "--bytes", "30000"]
        assert main(argv + ["--no-crc"]) == 4
        out = capsys.readouterr().out.splitlines()
        assert "silently corrupted 40" in out
        assert main(argv) == 0
        out = capsys.readouterr().out.splitlines()
        assert "silently corrupted 0" in out
        assert "frames abandoned   0" in out

    def test_transfer_command_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["transfer"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'transfer'" in capsys.readouterr().err

    def test_splice_with_workers(self, capsys):
        assert main(["splice", "--profile", "uniform", "--bytes", "50000",
                     "--workers", "2"]) == 0
        assert "total splices" in capsys.readouterr().out


class TestCacheCommands:
    def test_workers_flags_parse_on_run_and_report(self):
        args = build_parser().parse_args(["run", "table1", "--workers", "4"])
        assert args.workers == 4
        args = build_parser().parse_args(["report", "--workers", "2"])
        assert args.workers == 2

    def test_cache_flag_parses_with_negation(self):
        args = build_parser().parse_args(["run", "table1", "--cache"])
        assert args.cache is True
        args = build_parser().parse_args(["run", "table1", "--no-cache"])
        assert args.cache is False
        args = build_parser().parse_args(["run", "table1"])
        assert args.cache is False

    def test_run_cached_twice_is_byte_identical(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "store")
        argv = ["run", "table5", "--bytes", "60000", "--seed", "2",
                "--cache", "--cache-dir", cache_dir]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert warm == cold

    def test_cache_stats(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "store")
        main(["run", "table5", "--bytes", "60000", "--seed", "2",
              "--cache", "--cache-dir", cache_dir])
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "results" in out and "shards" in out
        assert cache_dir in out

    def test_cache_audit_detects_injected_corruption(self, tmp_path, capsys):
        cache_dir = tmp_path / "store"
        main(["run", "table5", "--bytes", "60000", "--seed", "2",
              "--cache", "--cache-dir", str(cache_dir)])
        capsys.readouterr()
        assert main(["cache", "audit", "--cache-dir", str(cache_dir)]) == 0

        target = next(p for p in (cache_dir / "results").rglob("*") if p.is_file())
        blob = bytearray(target.read_bytes())
        blob[5] ^= 0x02
        target.write_bytes(bytes(blob))

        assert main(["cache", "audit", "--cache-dir", str(cache_dir)]) == 1
        assert "CORRUPT" in capsys.readouterr().out

    def test_cache_clear(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "store")
        main(["run", "table5", "--bytes", "60000", "--seed", "2",
              "--cache", "--cache-dir", cache_dir])
        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        total_line = next(l for l in out.splitlines() if l.startswith("total"))
        assert "0 objects" in total_line

    def test_cache_clear_removes_retired_directories(self, tmp_path, capsys):
        # Older stores kept write-only run manifests and a remote-outage
        # write spool under the root; nothing reads either any more.
        cache_dir = tmp_path / "store"
        retired = [cache_dir / "manifests" / "ab" / "cd" / "abcdef0123",
                   cache_dir / "spool" / "shards" / "abcdef0123"]
        journal = cache_dir / "journal" / "sweep.journal"
        for path in retired + [journal]:
            path.parent.mkdir(parents=True)
            path.write_bytes(b"left behind")
        assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
        assert "removed 2 objects" in capsys.readouterr().out
        assert not (cache_dir / "manifests").exists()
        assert not (cache_dir / "spool").exists()
        assert journal.read_bytes() == b"left behind"

    def test_report_with_cache(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "store")
        out_path = tmp_path / "out.md"
        argv = ["report", "-o", str(out_path), "--bytes", "60000",
                "--only", "table5", "--cache", "--cache-dir", cache_dir]
        assert main(argv) == 0
        first = out_path.read_text()
        assert main(argv) == 0
        second = out_path.read_text()
        # identical modulo the per-run timing footnotes
        strip = lambda text: [l for l in text.splitlines()
                              if not l.startswith("*(regenerated")]
        assert strip(first) == strip(second)

    def test_splice_with_cache(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "store")
        argv = ["splice", "--profile", "uniform", "--bytes", "50000",
                "--cache", "--cache-dir", cache_dir]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == cold


class TestLintCommand:
    @staticmethod
    def _seed(tmp_path):
        root = tmp_path / "src" / "repro" / "core"
        root.mkdir(parents=True)
        (root.parent / "__init__.py").write_text("", encoding="utf-8")
        (root / "__init__.py").write_text("", encoding="utf-8")
        (root / "sweep.py").write_text(
            "import random\n"
            "\n"
            "def pick(items):\n"
            "    return random.choice(items)\n",
            encoding="utf-8",
        )
        return str(tmp_path / "src")

    def test_unknown_rule_id_exits_2_and_lists_valid_ids(
            self, tmp_path, capsys):
        # Satellite contract: a typo'd --rules is usage error (2), not
        # "no findings" (0) nor "findings" (1) -- and the message hands
        # the operator the full catalogue to pick from.
        root = self._seed(tmp_path)
        code = main(["lint", root, "--rules", "REP999",
                     "--no-baseline", "--no-contract"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown rule id(s): REP999" in err
        from repro.lint import all_rules

        for rule in all_rules():
            assert rule.id in err

    def test_exit_codes_clean_findings_usage(self, tmp_path, capsys):
        root = self._seed(tmp_path)
        assert main(["lint", root, "--rules", "REP102",
                     "--no-baseline", "--no-contract"]) == 0
        assert main(["lint", root, "--rules", "REP101",
                     "--no-baseline", "--no-contract"]) == 1
        capsys.readouterr()

    def test_sarif_format(self, tmp_path, capsys):
        import json

        root = self._seed(tmp_path)
        assert main(["lint", root, "--format", "sarif",
                     "--no-baseline", "--no-contract"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        results = payload["runs"][0]["results"]
        assert any(r["ruleId"] == "REP101" for r in results)

    def test_cache_flag_round_trips(self, tmp_path, capsys):
        root = self._seed(tmp_path)
        cache = str(tmp_path / "lint-cache.json")
        argv = ["lint", root, "--cache", cache,
                "--no-baseline", "--no-contract"]
        assert main(argv) == 1
        cold = capsys.readouterr().out
        assert main(argv) == 1
        warm = capsys.readouterr().out
        assert "incremental cache" in warm
        # Findings identical; only the cache-traffic line differs.
        def strip(out):
            return [line for line in out.splitlines()
                    if "incremental cache" not in line]

        assert strip(warm) == strip(cold)

    def test_list_rules_covers_the_flow_family(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("REP111", "REP211", "REP311", "REP411", "REP601"):
            assert rule_id in out

    def test_bad_contract_file_exits_2(self, tmp_path, capsys):
        root = self._seed(tmp_path)
        contract = tmp_path / "broken.toml"
        contract.write_text("[contract\n", encoding="utf-8")
        assert main(["lint", root, "--no-baseline",
                     "--contract", str(contract)]) == 2
        assert "broken.toml" in capsys.readouterr().err


def _parse(parser, argv):
    """``(exit code, stdout, stderr, namespace)`` of one parse."""
    out, err = io.StringIO(), io.StringIO()
    code = namespace = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = vars(parser.parse_args(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), namespace


def _parse_both(argv):
    """One parse by the full parser and one by the parser ``main(argv)``
    builds, which has only ``argv[0]``'s flags."""
    return (_parse(build_parser(), argv),
            _parse(build_parser(argv[0] if argv else None), argv))


class TestOneSubcommandParser:
    """``main`` builds the flags of the one subcommand it runs; what a
    user sees must not tell the two parsers apart."""

    SUBCOMMAND_PATHS = [
        ["algorithms"], ["profiles"], ["sum"], ["run"], ["report"],
        ["splice"], ["cache"], ["cache", "stats"], ["cache", "audit"],
        ["cache", "clear"], ["chaos"], ["channel"], ["channel", "plans"],
        ["channel", "run"], ["channel", "replay"], ["bench"], ["lint"],
    ]

    #: The argv vectors the CLI tests hand to ``parse_args``, and a few
    #: usage errors.
    PARSED = [
        [], ["sum", "f1", "f2", "-a", "crc32-aal5"], ["run", "table99"],
        ["run", "table1", "--workers", "4"], ["report", "--workers", "2"],
        ["run", "table1", "--cache"], ["run", "table1", "--no-cache"],
        ["run", "table1"], ["chaos"], ["chaos", "--plan", "gremlins"],
        ["splice", "--mss", "65495"],
        ["run", "table4", "--shard-timeout", "2", "--deadline", "60",
         "--resume", "--no-journal"],
        ["splice", "--shard-timeout", "0.5"], ["chaos", "--shard-timeout", "1"],
        ["run", "table5", "--metrics", "json"], ["report", "--metrics", "md"],
        ["splice", "--metrics", "out.json"], ["chaos", "--metrics", "out.md"],
        ["run", "table5"], ["channel", "run", "--plan", "lossy-link",
                            "--arq", "selective-repeat", "--trace", "t"],
        ["channel", "replay", "t", "--workers", "2"],
        ["cache", "audit", "--evict", "--cache-dir", "d"],
        ["lint", "src", "--format", "sarif", "--rules", "REP101"],
        ["transfer"], ["--bogus"], ["splice", "--mss", "65496"],
        ["cache"], ["channel", "bogus"],
    ]

    @pytest.mark.parametrize("path", SUBCOMMAND_PATHS, ids=" ".join)
    def test_help_text_is_identical(self, path):
        full, one = _parse_both(path + ["--help"])
        assert full == one
        assert full[0] == 0 and full[1].startswith("usage: repro-checksums")

    @pytest.mark.parametrize("argv", PARSED, ids=" ".join)
    def test_namespace_or_error_is_identical(self, argv):
        full, one = _parse_both(argv)
        assert full == one

    def test_unrecognized_argument_prints_the_top_level_usage(self):
        full, one = _parse_both(["run", "table1", "bogus"])
        assert full == one
        code, _, err, _ = one
        assert code == 2
        assert err.startswith("usage: repro-checksums [-h]\n")
        assert err.endswith("unrecognized arguments: bogus\n")

    def test_run_table1_builds_at_most_17_parsers(self, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        monkeypatch.setattr(repro.cli, "_dispatch", lambda args: 0)
        assert main(["run", "table1", "--no-journal"]) == 0
        assert 0 < len(built) <= 17


class TestExitPath:
    def test_main_never_freezes(self, capsys):
        assert main(["profiles"]) == 0
        assert gc.get_freeze_count() == 0

    @pytest.mark.parametrize("threads, freezes", [(1, 1), (2, 0)])
    def test_console_main_freezes_only_as_the_last_thread(
            self, monkeypatch, threads, freezes):
        calls = []
        monkeypatch.setattr(repro.cli, "main", lambda: 5)
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(
            repro.cli.threading, "active_count", lambda: threads)
        assert repro.cli.console_main() == 5
        assert len(calls) == freezes

    @pytest.mark.parametrize("workers", [[], ["--workers", "2"]],
                             ids=["serial", "workers"])
    def test_python_m_prints_what_main_prints(self, workers, capsys):
        argv = ["run", "table1", "--bytes", "20000", "--seed", "3", *workers]
        assert main(argv) == 0
        expected = capsys.readouterr().out
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv],
            cwd=str(ROOT), env=env, capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == expected

    def test_every_file_the_cli_writes_is_closed(self, tmp_path, capsys):
        # The exit freeze leaves cycles uncollected, so a file the CLI
        # had not closed would never be flushed.
        trace = tmp_path / "run.trace"
        commands = [
            ["report", "--only", "table1", "figure2", "--bytes", "20000",
             "-o", str(tmp_path / "report.md")],
            ["run", "figure2", "--bytes", "20000",
             "--svg", str(tmp_path / "figure2.svg")],
            ["run", "table1", "--bytes", "20000",
             "--metrics", str(tmp_path / "metrics.json")],
            ["channel", "run", "--bytes", "20000", "--trace", str(trace)],
            ["channel", "replay", str(trace)],
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            codes = [main(argv) for argv in commands]
            gc.collect()
        assert codes[:3] == [0, 0, 0] and codes[4] == 0
        assert [str(w.message) for w in caught
                if issubclass(w.category, ResourceWarning)] == []

    def test_console_script_is_what_python_m_runs(self):
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads(
            (ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
        module, _, name = project["scripts"]["repro-checksums"].partition(":")
        target = getattr(importlib.import_module(module), name)
        assert target is repro.cli.console_main
        tree = ast.parse(Path(repro.cli.__file__).read_text(encoding="utf-8"))
        (block,) = [node for node in tree.body if isinstance(node, ast.If)
                    and ast.unparse(node.test) == "__name__ == '__main__'"]
        assert [ast.unparse(node) for node in block.body] == [
            "sys.exit(%s())" % name]
