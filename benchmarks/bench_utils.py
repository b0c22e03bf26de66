"""Shared helpers for the benchmark harness.

Every benchmark runs one experiment from :mod:`repro.experiments` exactly
once (``rounds=1, iterations=1``): the quantity of interest is the
experiment's *content* (the regenerated table and its verdict), not the wall
clock of the harness itself, so repeated timing rounds would only burn time.
The report table is echoed to stdout so that ``pytest benchmarks/
--benchmark-only -s`` reproduces the paper's series directly, and the raw
values are attached to the benchmark's ``extra_info`` so they land in the
saved benchmark JSON as well.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path
from typing import Callable, Dict, Optional

import pytest

from repro.sim.results import ExperimentReport

#: Directory holding the ``BENCH_*.json`` trajectory files.
BENCH_DIR = Path(__file__).resolve().parent

#: Canonical schema of every record in the ``engine`` trajectory
#: (``BENCH_engine.json``): one engine measured against one baseline on one
#: sweep.  ``seconds``/``baseline_seconds`` are best-of-rounds wall clocks;
#: ``speedup`` is their ratio.
ENGINE_SCHEMA_KEYS = (
    "engine",
    "baseline",
    "adversary",
    "algorithms",
    "n",
    "trials",
    "seconds",
    "baseline_seconds",
    "speedup",
)


def machine_fingerprint() -> str:
    """A coarse, stable identifier of the measuring machine class.

    Speedup *ratios* travel across machines far better than absolute
    timings, but not perfectly — so the perf-regression gate
    (``perf_gate.py``) applies its strict tolerance only between records
    carrying the same fingerprint.  Architecture + logical core count is
    stable across runs of the same CI runner class while separating a
    laptop from a 2-core hosted runner.
    """
    return f"{platform.machine()}-{os.cpu_count()}cpu"


def normalize_engine_record(record: Dict) -> Dict:
    """Project an engine-trajectory record onto the canonical schema.

    Keeps :data:`ENGINE_SCHEMA_KEYS` in canonical order plus the optional
    ``host`` provenance key, and drops anything else.  Raises ValueError on
    a record missing a schema key, so a new shape cannot silently creep
    into the trajectory.
    """
    if not set(ENGINE_SCHEMA_KEYS) <= set(record):
        raise ValueError(
            f"unrecognised engine benchmark record shape: {sorted(record)}"
        )
    normalized = {key: record[key] for key in ENGINE_SCHEMA_KEYS}
    # Optional provenance key: preserved when present (historical records
    # predate it), stamped by record_bench_trajectory on new records.
    if "host" in record:
        normalized["host"] = record["host"]
    return normalized


def run_experiment_benchmark(
    benchmark, runner: Callable[..., ExperimentReport], **kwargs
) -> ExperimentReport:
    """Run one experiment under the benchmark fixture and echo its report."""
    report = benchmark.pedantic(
        lambda: runner(**kwargs), rounds=1, iterations=1, warmup_rounds=0
    )
    benchmark.extra_info["experiment_id"] = report.experiment_id
    benchmark.extra_info["claim"] = report.claim
    benchmark.extra_info["verdict"] = report.verdict
    for key, value in report.details.items():
        benchmark.extra_info[f"detail/{key}"] = repr(value)
    print()
    print(report.to_markdown())
    return report


#: Environment variable that opts a benchmark run into appending its
#: records to the tracked ``BENCH_*.json`` trajectories (``1`` to record).
#: CI's benchmark job sets it so the perf gate reads a fresh record; plain
#: test runs leave the tracked files untouched.
RECORD_ENV = "REPRO_BENCH_RECORD"


def record_bench_trajectory(name: str, record: Dict) -> Optional[Path]:
    """Append ``record`` to ``BENCH_<name>.json`` when :data:`RECORD_ENV` is ``1``.

    Without the variable this is a no-op returning None, so the benchmark
    tests still measure and assert but leave ``git status`` clean.
    """
    if os.environ.get(RECORD_ENV) != "1":
        return None
    return append_bench_trajectory(name, record)


def append_bench_trajectory(name: str, record: Dict) -> Path:
    """Append one record to the ``BENCH_<name>.json`` trajectory file.

    Each trajectory file is a JSON list; every recorded run appends one
    record, so successive runs build a wall-clock history (e.g. the
    engine-vs-baseline timings) that can be compared across commits.
    Records of the ``engine`` trajectory are normalized onto
    :data:`ENGINE_SCHEMA_KEYS` before being appended, so the file stays on
    one schema from now on.  Returns the path written.
    """
    if name == "engine":
        record = normalize_engine_record(record)
        record.setdefault("host", machine_fingerprint())
    path = BENCH_DIR / f"BENCH_{name}.json"
    if path.exists():
        trajectory = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(trajectory, list):
            trajectory = [trajectory]
    else:
        trajectory = []
    trajectory.append(record)
    path.write_text(
        json.dumps(trajectory, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path
