"""Unit tests for the benchmark trajectory schema helpers."""

import json

import pytest

import bench_utils
from bench_utils import (
    ENGINE_SCHEMA_KEYS,
    RECORD_ENV,
    normalize_engine_record,
    record_bench_trajectory,
)


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


class TestRecordingIsOptIn:
    def test_run_without_the_variable_writes_no_trajectory(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bench_utils, "BENCH_DIR", tmp_path)
        monkeypatch.delenv(RECORD_ENV, raising=False)
        assert record_bench_trajectory("engine", dict(RECORD)) is None
        monkeypatch.setenv(RECORD_ENV, "0")
        assert record_bench_trajectory("engine", dict(RECORD)) is None
        assert not list(tmp_path.glob("BENCH_*.json"))

    def test_opted_in_run_appends_one_record(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bench_utils, "BENCH_DIR", tmp_path)
        monkeypatch.setenv(RECORD_ENV, "1")
        path = record_bench_trajectory("engine", dict(RECORD))
        assert path == tmp_path / "BENCH_engine.json"
        assert len(json.loads(path.read_text(encoding="utf-8"))) == 1
