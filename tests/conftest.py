"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.corpus.filesystem import Filesystem, SyntheticFile
from repro.corpus.generators import generate
from repro.protocols.packetizer import PacketizerConfig


@pytest.fixture(autouse=True)
def _isolated_cache_root(tmp_path_factory, monkeypatch):
    """Point the artifact store (and sweep journals) at a tmp root.

    CLI runs journal sweeps by default; without this, in-process
    ``main([...])`` calls in tests would write checkpoints under the
    real ``~/.cache/repro-checksums``.  Tests that pin the env-var
    behaviour override the variable themselves.
    """
    monkeypatch.setenv(
        "REPRO_CHECKSUMS_CACHE",
        str(tmp_path_factory.mktemp("cache-root")),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def base_config():
    return PacketizerConfig()


def make_filesystem(kinds_and_sizes, seed=7, name="test-fs"):
    """Build a small filesystem from (kind, size) pairs."""
    fs = Filesystem(name)
    rng = np.random.default_rng(seed)
    for index, (kind, size) in enumerate(kinds_and_sizes):
        fs.add(SyntheticFile("f%d.%s" % (index, kind), generate(kind, size, rng), kind))
    return fs


def reference_run(filesystem, config):
    """Counters of a splice run over ``filesystem``, from the reference
    receiver (:func:`repro.core.reference.count_splices`), merged file
    by file as the experiment driver merges its shards."""
    from repro.core.engine import EngineOptions
    from repro.core.reference import count_splices
    from repro.core.results import SpliceCounters
    from repro.protocols.ftpsim import FileTransferSimulator

    options = EngineOptions.from_packetizer(config)
    simulator = FileTransferSimulator(config)
    counters = SpliceCounters()
    for file in filesystem:
        frames = [unit.frame for unit in simulator.transfer(file.data)]
        part = count_splices(frames, options)
        part.files = 1
        counters += part
    return counters


@pytest.fixture
def small_mixed_fs():
    return make_filesystem(
        [("english", 8_000), ("gmon", 6_000), ("c-source", 8_000), ("zero-heavy", 6_000)]
    )
