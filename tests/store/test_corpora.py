"""The store's ``corpora/`` namespace: splice tables read stored corpora.

A ``--cache`` sweep keeps each synthetic corpus as one integrity-
trailed object, so later sweeps over the same ``(profile, bytes,
seed)`` skip corpus synthesis.  A missing, corrupt or unreadable
stored corpus costs at most a rebuild, never a different table.
"""

from __future__ import annotations

import errno
import subprocess
import sys

import pytest

from repro.cli import main
from repro.corpus.profiles import build_filesystem
from repro.experiments.registry import run_experiment
from repro.store.corpora import decode_corpus, encode_corpus
from repro.store.keys import corpus_key
from repro.store.runner import RunStore
from repro.telemetry.core import collect

SPLICE_TABLES = (
    "table1", "table2", "table3", "table7", "table8", "table9", "table10",
)


def flip_byte(path, index):
    blob = bytearray(path.read_bytes())
    blob[index] ^= 0x20
    path.write_bytes(bytes(blob))


def counters_of(run):
    with collect() as telemetry:
        run()
        return telemetry.snapshot()["counters"]


class TestCodec:
    def test_round_trip(self):
        fs = build_filesystem("stanford-u1", 30_000, 3)
        assert decode_corpus("stanford-u1", encode_corpus(fs)) == fs

    @pytest.mark.parametrize("payload", [
        b"",
        b"no header line",
        b'[]\n',
        b'{"files": [["a", "english"]]}\n',
        b'{"files": [["a", "english", 5]]}\nabc',
        b'{"files": [["a", "english", 2]]}\nabc',
        b'{"files": [["a", "english", 5], ["b", "english", -2]]}\nabc',
    ], ids=["empty", "no-newline", "no-files", "short-entry", "overrun",
            "trailing-bytes", "negative-size"])
    def test_malformed_payload_is_rejected(self, payload):
        with pytest.raises((ValueError, KeyError, TypeError)):
            decode_corpus("x", payload)


class TestLoader:
    def test_a_second_sweep_synthesizes_nothing(self, cache_root, monkeypatch):
        store = RunStore(cache_root)
        first = counters_of(lambda: store.filesystem("sics-opt", 30_000, 3))
        assert first["store.corpus_builds"] == 1
        assert "store.corpus_hits" not in first

        import repro.corpus.profiles

        def no_synthesis(*args):
            raise AssertionError("the corpus was synthesized again")

        monkeypatch.setattr(
            repro.corpus.profiles, "build_filesystem", no_synthesis
        )
        fresh = RunStore(cache_root)
        second = counters_of(lambda: run_experiment(
            "table7", cache=fresh, fs_bytes=30_000, seed=3
        ))
        assert second["store.corpus_hits"] == 1
        assert "store.corpus_builds" not in second

    def test_flipped_byte_is_evicted_and_rebuilt(self, cache_root):
        direct = run_experiment("table10", fs_bytes=30_000, seed=3).text
        store = RunStore(cache_root)
        assert run_experiment(
            "table10", cache=store, fs_bytes=30_000, seed=3
        ).text == direct
        key = corpus_key("stanford-u1", 30_000, 3)
        flip_byte(store.corpora.store.path_for(key), 200)
        store.results.store.clear()

        rerun = RunStore(cache_root)
        with collect() as telemetry:
            report = run_experiment(
                "table10", cache=rerun, fs_bytes=30_000, seed=3
            )
            counters = telemetry.snapshot()["counters"]
        assert report.text == direct
        assert rerun.corpora.stats.corrupt == 1
        assert counters["store.corpus_builds"] == 1
        # The rebuilt corpus replaced the corrupt object.
        assert decode_corpus(
            "stanford-u1", rerun.corpora.store.get(key)
        ) == build_filesystem("stanford-u1", 30_000, 3)

    def test_each_profile_size_and_seed_is_its_own_corpus(self, cache_root):
        corpora = [("nsc05", 20_000, 3), ("nsc11", 20_000, 3),
                   ("nsc05", 24_000, 3), ("nsc05", 20_000, 4)]
        store = RunStore(cache_root)
        for corpus in corpora:
            store.filesystem(*corpus)
        fresh = RunStore(cache_root)
        for corpus in corpora:
            assert fresh.filesystem(*corpus) == build_filesystem(*corpus)
        assert fresh.corpora.stats.hits == len(corpora)

    def test_undecodable_payload_is_evicted_and_rebuilt(self, cache_root):
        # The trailer passes, but the payload is no corpus.
        store = RunStore(cache_root)
        key = corpus_key("sics-opt", 30_000, 3)
        store.corpora.put_bytes(key, b"not a corpus")
        fs = store.filesystem("sics-opt", 30_000, 3)
        assert fs == build_filesystem("sics-opt", 30_000, 3)
        assert store.corpora.stats.corrupt == 1
        assert decode_corpus("sics-opt", store.corpora.store.get(key)) == fs

    @pytest.mark.parametrize("operation", ["get", "put_keyed"])
    def test_os_error_costs_only_a_rebuild(
        self, cache_root, monkeypatch, operation
    ):
        direct = run_experiment("table10", fs_bytes=30_000, seed=3).text
        store = RunStore(cache_root)
        run_experiment("table10", cache=store, fs_bytes=30_000, seed=3)
        store.results.store.clear()

        failing = RunStore(cache_root)

        def eio(*args, **kwargs):
            raise OSError(errno.EIO, "injected I/O error")

        monkeypatch.setattr(failing.corpora.store, operation, eio)
        if operation == "put_keyed":
            failing.corpora.store.clear()  # force a rebuild and a put
        report = run_experiment(
            "table10", cache=failing, fs_bytes=30_000, seed=3
        )
        assert report.text == direct
        assert report.health is None  # the shards were untouched


class TestSpliceTables:
    @pytest.mark.parametrize("table", SPLICE_TABLES)
    def test_cache_and_no_cache_print_the_same_table(
        self, table, tmp_path, capsys
    ):
        argv = ["run", table, "--bytes", "30000", "--seed", "3"]
        root = tmp_path / "store"
        assert main(argv + ["--no-cache"]) == 0
        direct = capsys.readouterr().out
        assert main(argv + ["--cache", "--cache-dir", str(root)]) == 0
        assert capsys.readouterr().out == direct
        # Recompute every shard from the stored corpora alone.
        store = RunStore(root)
        assert len(store.corpora.store) > 0
        store.results.store.clear()
        store.shards.store.clear()
        assert main(argv + ["--cache", "--cache-dir", str(root)]) == 0
        assert capsys.readouterr().out == direct


class TestOtherExperiments:
    # None of these is a splice table.  They load 11 corpora: table6
    # four, figure3 one, pathological five and failure-locality one, 9
    # of them distinct (figure3 and failure-locality read table6's
    # stanford-u1).
    EXPERIMENTS = ("table6", "figure3", "pathological", "failure-locality")

    def run_all(self, root, capsys):
        outputs = []
        with collect() as telemetry:
            for experiment in self.EXPERIMENTS:
                assert main(["run", experiment, "--bytes", "60000", "--seed",
                             "3", "--cache", "--cache-dir", root]) == 0
                outputs.append(capsys.readouterr().out)
            return outputs, telemetry.snapshot()["counters"]

    def test_a_result_miss_reads_the_stored_corpora(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        first, counters = self.run_all(root, capsys)
        assert counters["store.corpus_builds"] == 9
        assert counters["store.corpus_hits"] == 2
        RunStore(root).results.store.clear()
        second, counters = self.run_all(root, capsys)
        assert second == first
        assert "store.corpus_builds" not in counters
        assert counters["store.corpus_hits"] == 11


class TestCacheCommands:
    def test_stats_audit_and_clear_see_corpora(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        assert main(["run", "table10", "--bytes", "20000", "--cache",
                     "--cache-dir", root]) == 0
        capsys.readouterr()

        assert main(["cache", "stats", "--cache-dir", root]) == 0
        stats = capsys.readouterr().out
        line = next(l for l in stats.splitlines() if l.startswith("corpora"))
        assert line.split()[1] == "1"

        assert main(["cache", "audit", "--cache-dir", root]) == 0
        audit = capsys.readouterr().out
        assert "  corpora/         1" in audit.splitlines()

        corpus = next(
            p for p in (tmp_path / "store" / "corpora").rglob("*")
            if p.is_file()
        )
        flip_byte(corpus, 100)
        assert main(["cache", "audit", "--cache-dir", root]) == 1
        assert "CORRUPT corpora/" in capsys.readouterr().out

        assert main(["cache", "clear", "--cache-dir", root]) == 0
        capsys.readouterr()
        assert len(RunStore(root).corpora.store) == 0


def test_all_hit_sweep_imports_no_numpy(tmp_path, capsys):
    # table8 stores stanford-u1 and its header-placement shards, table9
    # its trailer-placement shards: table10 then finds its corpus and
    # every shard in the store, and never imports NumPy, the engine or
    # the corpus generators.
    argv = ["--bytes", "20000", "--seed", "3"]
    cache = ["--cache", "--cache-dir", str(tmp_path)]
    for table in ("table8", "table9"):
        assert main(["run", table] + argv + cache) == 0
    capsys.readouterr()
    assert main(["run", "table10"] + argv + ["--no-cache"]) == 0
    direct = capsys.readouterr().out
    code = (
        "import sys; from repro.cli import main; code = main(%r); "
        "hot = [m for m in ('numpy', 'repro.core.engine', "
        "'repro.corpus.generators') if m in sys.modules]; "
        "print(hot, file=sys.stderr); sys.exit(code or (1 if hot else 0))"
        % (["run", "table10"] + argv + cache,)
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == direct
