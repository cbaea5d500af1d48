"""Tests for canonical cache-key composition."""

from __future__ import annotations

import pytest

from repro.core.engine import EngineOptions
from repro.protocols.packetizer import ChecksumPlacement, PacketizerConfig
from repro.store import keys


class TestCanonicalize:
    def test_json_native_values_pass_through(self):
        assert keys.canonicalize({"a": 1, "b": [True, None, "x"]}) == {
            "a": 1,
            "b": [True, None, "x"],
        }

    def test_dataclasses_are_type_tagged(self):
        out = keys.canonicalize(PacketizerConfig())
        assert out["__type__"] == "PacketizerConfig"
        assert out["mss"] == 256
        assert out["placement"] == "header"  # enum collapsed to value

    def test_tuples_and_sets_become_lists(self):
        assert keys.canonicalize((1, 2)) == [1, 2]
        assert keys.canonicalize({3, 1, 2}) == [1, 2, 3]

    def test_bytes_become_hex(self):
        assert keys.canonicalize(b"\x00\xff") == {"__bytes__": "00ff"}

    def test_unserializable_types_raise(self):
        with pytest.raises(TypeError):
            keys.canonicalize(object())

    def test_canonical_json_is_order_independent(self):
        a = keys.canonical_json({"x": 1, "y": 2})
        b = keys.canonical_json({"y": 2, "x": 1})
        assert a == b


class TestExperimentKeys:
    def test_stable_across_calls(self):
        params = {"fs_bytes": 400_000, "seed": 3}
        assert keys.experiment_key("table4", params) == keys.experiment_key(
            "table4", dict(params)
        )

    def test_every_parameter_matters(self):
        base = keys.experiment_key("table4", {"fs_bytes": 400_000, "seed": 3})
        assert base != keys.experiment_key("table5", {"fs_bytes": 400_000, "seed": 3})
        assert base != keys.experiment_key("table4", {"fs_bytes": 400_001, "seed": 3})
        assert base != keys.experiment_key("table4", {"fs_bytes": 400_000, "seed": 4})

    def test_workers_and_store_never_enter_keys(self):
        base = keys.experiment_key("table1", {"fs_bytes": 1000, "seed": 3})
        loaded = keys.experiment_key(
            "table1",
            {"fs_bytes": 1000, "seed": 3, "workers": 8, "store": "x", "cache": "y"},
        )
        assert base == loaded

    def test_schema_version_is_key_material(self, monkeypatch):
        before = keys.experiment_key("table1", {"seed": 3})
        monkeypatch.setattr(keys, "SCHEMA_VERSION", keys.SCHEMA_VERSION + 1)
        assert keys.experiment_key("table1", {"seed": 3}) != before

    def test_keys_are_sha256_hex(self):
        key = keys.experiment_key("table1", {})
        assert len(key) == 64
        int(key, 16)  # hex


class TestShardKeys:
    def test_config_and_options_matter(self):
        config = PacketizerConfig()
        options = EngineOptions.from_packetizer(config)
        digest = "ab" * 32
        base = keys.shard_key(digest, config, options)
        assert base != keys.shard_key("cd" * 32, config, options)
        trailer = config.with_overrides(placement=ChecksumPlacement.TRAILER)
        assert base != keys.shard_key(
            digest, trailer, EngineOptions.from_packetizer(trailer)
        )
        assert base != keys.shard_key(
            digest, config, EngineOptions.from_packetizer(config, sample_splices=100)
        )

    def test_same_content_same_shard(self):
        config = PacketizerConfig()
        options = EngineOptions.from_packetizer(config)
        assert keys.shard_key("ab" * 32, config, options) == keys.shard_key(
            "ab" * 32, PacketizerConfig(), EngineOptions.from_packetizer(config)
        )


class TestCodeDigest:
    def test_every_key_sees_the_code(self, monkeypatch):
        from repro.channel.arq import ArqConfig
        from repro.channel.plan import named_channel_plan
        from repro.channel.sweep import channel_fingerprint
        from repro.core import codedigest
        from repro.corpus.filesystem import SyntheticFile
        from repro.store.runner import run_key_for

        config = PacketizerConfig()
        options = EngineOptions.from_packetizer(config)
        files = [SyntheticFile("a", b"abc", "english")]
        plan = named_channel_plan("bursty-link", seed=5)

        def all_keys():
            shard = keys.shard_key("ab" * 32, config, options)
            return (
                keys.experiment_key("table1", {"seed": 3}),
                shard,
                run_key_for("fs", [shard]),
                channel_fingerprint(files, plan, ArqConfig(), config, True),
            )

        before = all_keys()
        assert all_keys() == before
        monkeypatch.setattr(codedigest, "_digest", "0" * 64)
        after = all_keys()
        assert [a != b for a, b in zip(before, after)] == [True] * 4

    def test_digest_covers_code_package_bytes_only(self, monkeypatch, tmp_path):
        from repro.core import codedigest

        for package in codedigest.CODE_PACKAGES + ("store",):
            (tmp_path / package).mkdir()
            (tmp_path / package / "mod.py").write_text("x = 1\n")
        monkeypatch.setattr(codedigest, "_ROOT", tmp_path)

        def fresh_digest():
            monkeypatch.setattr(codedigest, "_digest", None)
            return codedigest.code_digest()

        base = fresh_digest()
        assert len(base) == 64 and base == codedigest.code_digest()
        (tmp_path / "store" / "mod.py").write_text("x = 2\n")
        assert fresh_digest() == base
        (tmp_path / "core" / "mod.py").write_text("x = 2\n")
        changed = fresh_digest()
        assert changed != base
        (tmp_path / "core" / "mod.py").rename(tmp_path / "core" / "other.py")
        assert fresh_digest() != changed

    def test_warm_cache_hit_imports_no_engine(self, tmp_path, capsys):
        # The warm-start contract (REP303) with the code digest in
        # every key: a result-cache hit in a fresh process reads the
        # code's bytes but never imports the engine, the packetizer,
        # an HTTP stack (the store is local), NumPy (the CRC-32
        # trailer check is scalar) or a process pool (the sweep is
        # serial).
        import subprocess
        import sys

        from repro.cli import main

        argv = ["run", "table1", "--bytes", "20000", "--seed", "3",
                "--cache", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        code = (
            "import sys; from repro.cli import main; code = main(%r); "
            "hot = [m for m in ('repro.core.engine', "
            "'repro.protocols.packetizer', 'http.client', 'numpy', "
            "'multiprocessing', 'concurrent.futures.process') "
            "if m in sys.modules]; "
            "sys.exit(code or (1 if hot else 0))" % (argv,)
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == cold
