"""Bench snapshot schema validation, persistence, and deltas."""

import json

import pytest

from repro.telemetry.bench import (
    BENCH_SCHEMA,
    delta_table,
    latest_snapshot,
    next_snapshot_path,
    validate_snapshot,
    write_snapshot,
)


def _payload():
    """A minimal, valid bench snapshot."""
    return {
        "schema": BENCH_SCHEMA,
        "created_unix": 1_700_000_000,
        "quick": True,
        "machine": {"python": "3.x", "platform": "test", "processor": "test"},
        "workload": {"seed": 1, "cell_bytes": 48},
        "algorithms": {
            "internet": {
                "width": 16,
                "kind": "checksum",
                "cells_per_sec": 1e6,
                "splices_per_sec": 1e5,
            },
            "crc32-aal5": {
                "width": 32,
                "kind": "crc",
                "cells_per_sec": 2e6,
                "splices_per_sec": 5e3,
            },
        },
        "engine": [
            {
                "algorithm": "tcp",
                "placement": "header",
                "corpus_bytes": 60_000,
                "splices": 123456,
                "seconds": 0.5,
                "splices_per_sec": 246912.0,
            }
        ],
        "overhead": {"disabled_pct": 0.01, "enabled_pct": 1.2, "batches": 4},
    }


def _channel_entry(cells_per_sec=5e4):
    return {
        "cells": 2604,
        "seconds": 0.05,
        "cells_per_sec": cells_per_sec,
        "frames": 63,
        "retransmissions": 0,
    }


def _corpus_section(mb_per_sec=2.5):
    entry = {"bytes": 50_000, "seconds": 0.02, "mb_per_sec": mb_per_sec}
    return {"kinds": {"english": dict(entry)},
            "profiles": {"nsc05": dict(entry)}}


class TestValidation:
    def test_valid_payload_passes(self):
        assert validate_snapshot(_payload()) is not None

    def test_wrong_schema_rejected(self):
        payload = _payload()
        payload["schema"] = "repro-bench/999"
        with pytest.raises(ValueError, match="schema mismatch"):
            validate_snapshot(payload)

    def test_missing_top_key_rejected(self):
        payload = _payload()
        del payload["overhead"]
        with pytest.raises(ValueError, match="drift"):
            validate_snapshot(payload)

    def test_extra_top_key_rejected(self):
        payload = _payload()
        payload["surprise"] = 1
        with pytest.raises(ValueError, match="drift"):
            validate_snapshot(payload)

    def test_algorithm_missing_key_rejected(self):
        payload = _payload()
        del payload["algorithms"]["internet"]["cells_per_sec"]
        with pytest.raises(ValueError, match="internet"):
            validate_snapshot(payload)

    def test_non_positive_rate_rejected(self):
        payload = _payload()
        payload["algorithms"]["internet"]["splices_per_sec"] = 0
        with pytest.raises(ValueError, match="non-positive"):
            validate_snapshot(payload)

    def test_empty_engine_rejected(self):
        payload = _payload()
        payload["engine"] = []
        with pytest.raises(ValueError, match="engine"):
            validate_snapshot(payload)

    def test_channel_section_is_optional(self):
        # BENCH_0001/0002 predate the channel simulator.
        assert "channel" not in _payload()
        assert validate_snapshot(_payload()) is not None

    def test_channel_section_validated_when_present(self):
        payload = _payload()
        payload["channel"] = {"clean": _channel_entry()}
        assert validate_snapshot(payload) is not None
        payload["channel"]["clean"]["surprise"] = 1
        with pytest.raises(ValueError, match="channel plan 'clean'"):
            validate_snapshot(payload)

    def test_channel_non_positive_rate_rejected(self):
        payload = _payload()
        payload["channel"] = {"clean": _channel_entry(cells_per_sec=0)}
        with pytest.raises(ValueError, match="non-positive"):
            validate_snapshot(payload)

    def test_corpus_section_is_optional(self):
        # Snapshots before the corpus section have none.
        assert "corpus" not in _payload()
        assert validate_snapshot(_payload()) is not None

    def test_corpus_section_validated_when_present(self):
        payload = _payload()
        payload["corpus"] = _corpus_section()
        assert validate_snapshot(payload) is not None
        payload["corpus"]["kinds"]["english"]["surprise"] = 1
        with pytest.raises(ValueError, match="corpus kind 'english'"):
            validate_snapshot(payload)

    def test_corpus_groups_are_exact(self):
        payload = _payload()
        payload["corpus"] = _corpus_section()
        del payload["corpus"]["profiles"]
        with pytest.raises(ValueError, match="corpus section drift"):
            validate_snapshot(payload)

    def test_corpus_non_positive_rate_rejected(self):
        payload = _payload()
        payload["corpus"] = _corpus_section(mb_per_sec=0)
        with pytest.raises(ValueError, match="non-positive"):
            validate_snapshot(payload)


class TestPersistence:
    def test_snapshots_are_append_only(self, tmp_path):
        assert next_snapshot_path(tmp_path).name == "BENCH_0001.json"
        first = write_snapshot(_payload(), tmp_path)
        assert first.name == "BENCH_0001.json"
        second = write_snapshot(_payload(), tmp_path)
        assert second.name == "BENCH_0002.json"
        payload, path = latest_snapshot(tmp_path)
        assert path == second
        assert payload["schema"] == BENCH_SCHEMA

    def test_latest_of_empty_dir(self, tmp_path):
        assert latest_snapshot(tmp_path) == (None, None)

    def test_write_rejects_invalid(self, tmp_path):
        payload = _payload()
        payload.pop("machine")
        with pytest.raises(ValueError):
            write_snapshot(payload, tmp_path)
        assert latest_snapshot(tmp_path) == (None, None)

    def test_written_file_is_stable_json(self, tmp_path):
        path = write_snapshot(_payload(), tmp_path)
        assert json.loads(path.read_text()) == _payload()


class TestDeltaTable:
    def test_first_snapshot_renders_absolutes(self):
        text = delta_table(None, _payload())
        assert "| internet cells/s | 1000000 | - | n/a |" in text

    def test_delta_against_previous(self):
        previous = _payload()
        current_payload = _payload()
        current_payload["algorithms"]["internet"]["cells_per_sec"] = 2e6
        text = delta_table(previous, current_payload)
        assert "+100.0%" in text

    def test_overhead_line_present(self):
        assert "telemetry disabled overhead" in delta_table(None, _payload())

    def test_channel_rows_render_when_present(self):
        payload = _payload()
        payload["channel"] = {"bursty-link": _channel_entry()}
        text = delta_table(None, payload)
        assert "| channel bursty-link cells/s | 50000 | - | n/a |" in text

    def test_channel_delta_against_previous(self):
        previous = _payload()
        previous["channel"] = {"clean": _channel_entry(5e4)}
        current_payload = _payload()
        current_payload["channel"] = {"clean": _channel_entry(1e5)}
        assert "+100.0%" in delta_table(previous, current_payload)

    def test_corpus_rows_render_when_present(self):
        payload = _payload()
        payload["corpus"] = _corpus_section()
        text = delta_table(None, payload)
        assert "| corpus kind english MB/s | 2.50 | - | n/a |" in text
        assert "| corpus profile nsc05 MB/s | 2.50 | - | n/a |" in text

    def test_corpus_delta_against_previous(self):
        previous = _payload()
        previous["corpus"] = _corpus_section(2.5)
        current_payload = _payload()
        current_payload["corpus"] = _corpus_section(5.0)
        text = delta_table(previous, current_payload)
        assert "| corpus kind english MB/s | 5.00 | 2.50 | +100.0% |" in text
