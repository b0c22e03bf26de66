"""Unit tests for the benchmark trajectory schema helpers."""

import json

import pytest

from bench_utils import ENGINE_SCHEMA_KEYS, normalize_engine_record


RECORD = {
    "adversary": "uniform",
    "algorithms": ["gathering", "waiting", "waiting_greedy"],
    "baseline": "reference",
    "baseline_seconds": 0.292582,
    "engine": "vectorized",
    "n": 120,
    "seconds": 0.038724,
    "speedup": 7.556,
    "trials": 5,
}


class TestNormalizeEngineRecord:
    def test_normalized_shape_is_idempotent(self):
        once = normalize_engine_record(RECORD)
        assert list(once) == list(ENGINE_SCHEMA_KEYS)
        assert normalize_engine_record(once) == once

    def test_extra_keys_are_dropped_from_normalized_records(self):
        padded = dict(RECORD, stray="x")
        assert "stray" not in normalize_engine_record(padded)

    def test_host_provenance_is_preserved(self):
        stamped = dict(RECORD, host="arm64-8cpu")
        assert normalize_engine_record(stamped)["host"] == "arm64-8cpu"

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError):
            normalize_engine_record({"mystery": 1})

    def test_legacy_fast_shape_rejected(self):
        # No committed record has the old fast-engine shape any more.
        with pytest.raises(ValueError):
            normalize_engine_record(
                {"algorithms": ["gathering"], "fast_seconds": 0.04, "n": 120,
                 "reference_seconds": 0.29, "speedup": 7.5, "trials": 5}
            )


class TestCommittedTrajectory:
    def test_committed_trajectory_is_fully_normalized(self):
        from bench_utils import BENCH_DIR

        trajectory = json.loads(
            (BENCH_DIR / "BENCH_engine.json").read_text(encoding="utf-8")
        )
        for record in trajectory:
            assert set(ENGINE_SCHEMA_KEYS) <= set(record), record
