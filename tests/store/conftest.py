"""Store tests run against an isolated cache root; ``durable_writes``
spies on the store's two write disciplines."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.store import journal as journal_module
from repro.store import objstore


@pytest.fixture(autouse=True)
def cache_root(tmp_path, monkeypatch):
    """Point the default store root at a per-test temp directory."""
    root = tmp_path / "cache-root"
    monkeypatch.setenv("REPRO_CHECKSUMS_CACHE", str(root))
    return root


@pytest.fixture
def durable_writes(monkeypatch):
    """Every durable write, in order, as ``(discipline, path)``.

    ``whole`` is an ``atomic_write`` (a shard object, or the journal's
    creating write), ``append`` a journal ``durable_append``.
    """
    log = []

    def spy(kind, real):
        def write(path, blob):
            log.append((kind, Path(path)))
            return real(path, blob)
        return write

    monkeypatch.setattr(objstore, "atomic_write",
                        spy("whole", objstore.atomic_write))
    monkeypatch.setattr(journal_module, "atomic_write",
                        spy("whole", journal_module.atomic_write))
    monkeypatch.setattr(journal_module, "durable_append",
                        spy("append", journal_module.durable_append))
    return log
