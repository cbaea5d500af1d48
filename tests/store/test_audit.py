"""Tests for the store integrity audit walker."""

from __future__ import annotations

from repro.core.experiment import run_splice_experiment
from repro.corpus.profiles import build_filesystem
from repro.store.audit import audit_object_store, audit_run_store
from repro.store.objstore import ObjectStore, frame_object
from repro.store.runner import RunStore


def flip_byte(path, index=9, mask=0x01):
    blob = bytearray(path.read_bytes())
    blob[index] ^= mask
    path.write_bytes(bytes(blob))


class TestAuditWalk:
    def test_clean_store_audits_clean(self, cache_root):
        store = RunStore()
        run_splice_experiment(build_filesystem("uniform", 40_000, 3), store=store)
        store.objects.put(b"an auxiliary blob")
        report = audit_run_store(store)
        assert report.clean
        assert report.scanned == report.ok == 3  # two shards + blob
        assert report.bytes_scanned > 0

    def test_single_flipped_byte_is_detected(self, cache_root):
        store = RunStore()
        run_splice_experiment(build_filesystem("uniform", 40_000, 3), store=store)
        digest = next(iter(store.shards.store.digests()))
        flip_byte(store.shards.store.path_for(digest))

        report = audit_run_store(store)
        assert report.corrupt == 1
        (finding,) = report.findings
        assert finding.namespace == "shards"
        assert finding.digest == digest
        assert not finding.evicted  # audit without --evict only reports
        assert digest in store.shards.store

    def test_evict_removes_corrupt_objects(self, cache_root):
        store = RunStore()
        fs = build_filesystem("uniform", 40_000, 3)
        baseline = run_splice_experiment(fs, store=store)
        digest = next(iter(store.shards.store.digests()))
        flip_byte(store.shards.store.path_for(digest))

        report = audit_run_store(store, evict=True)
        assert report.corrupt == 1
        assert report.findings[0].evicted
        assert digest not in store.shards.store

        # The subsequent run transparently recomputes the evicted entry.
        recomputed = run_splice_experiment(fs, store=RunStore())
        assert recomputed.counters == baseline.counters

    def test_render_mentions_corruption(self, cache_root):
        store = RunStore()
        store.objects.put(b"healthy")
        digest = next(iter(store.objects.digests()))
        flip_byte(store.objects.path_for(digest), index=2)
        text = audit_run_store(store).render()
        assert "corrupt            1" in text
        assert "CORRUPT objects/" in text


class TestContentAddressCrossCheck:
    def test_trailer_pass_address_mismatch_counts_as_miss(self, cache_root):
        # Re-frame a *different* payload under the original address: the
        # trailer verifies (it matches the new payload) but the content
        # address does not -- the audit's "undetected by the check code"
        # case, caught only by the stronger digest.
        store = ObjectStore(cache_root / "objects")
        digest = store.put(b"the original payload")
        store.path_for(digest).write_bytes(frame_object(b"an impostor payload"))

        report = audit_object_store(store, content_addressed=True)
        assert report.corrupt == 1
        assert report.trailer_misses == 1
        assert "content address mismatch" in report.findings[0].reason

    def test_keyed_namespaces_skip_address_check(self, cache_root):
        store = ObjectStore(cache_root / "results")
        store.put_keyed("ab" * 32, b"keyed payload")  # key != sha256(payload)
        report = audit_object_store(store, namespace="results")
        assert report.clean
