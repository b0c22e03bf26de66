"""Micro-benchmark: check the vectorized engine's fixed committed window.

Sweeps the committed-future window consumed per engine step
(:attr:`repro.core.vector_execution.VectorizedExecutor.block_size`, a class
attribute) over a range of powers of two, running the standard n=120
vectorized cell (``gathering`` + ``waiting``: one dense-event and one
sparse-event workload) at each size.  Two things are asserted:

* **correctness is block-size independent** — every size reproduces the
  reference metrics trial for trial (the block boundaries are pure
  consumption windows, never semantics);
* the engine's **default** window is not badly mistuned: it must reach at
  least half the throughput of the best size measured in this run.

The measured table is printed; ``docs/engines.md`` records the n=480
measurement behind the default.
"""

import time

from repro.algorithms.gathering import Gathering
from repro.algorithms.waiting import Waiting
from repro.core.vector_execution import VectorizedExecutor
from repro.sim.batch import run_sweep_cell

BENCH_N = 120
BENCH_TRIALS = 5
BLOCK_SIZES = (1024, 2048, 4096, 8192, 16384, 32768)
TIMING_ROUNDS = 3
DEFAULT_BLOCK_SIZE = VectorizedExecutor.block_size

FACTORIES = {
    "gathering": lambda n: Gathering(),
    "waiting": lambda n: Waiting(),
}


def _run_cells(engine="vectorized"):
    return {
        name: run_sweep_cell(
            factory,
            BENCH_N,
            BENCH_TRIALS,
            master_seed=7,
            experiment="bench_blocksize",
            engine=engine,
        )
        for name, factory in FACTORIES.items()
    }


def _best_seconds(monkeypatch, block_size):
    """Best-of-rounds wall clock of the cells at one window, and their metrics."""
    monkeypatch.setattr(VectorizedExecutor, "block_size", block_size)
    best = None
    for _ in range(TIMING_ROUNDS):
        started = time.perf_counter()
        cells = _run_cells()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, cells


def test_block_size_tuning(benchmark, monkeypatch):
    """Every block size is exact; the default is competitively tuned."""
    expected = _run_cells(engine="reference")

    def measure():
        timings = {}
        for block_size in sorted({*BLOCK_SIZES, DEFAULT_BLOCK_SIZE}):
            seconds, cells = _best_seconds(monkeypatch, block_size)
            assert cells == expected, block_size
            timings[block_size] = seconds
        return timings

    timings = benchmark.pedantic(measure, rounds=1, iterations=1, warmup_rounds=0)
    best_size = min(timings, key=timings.get)
    default_seconds = timings[DEFAULT_BLOCK_SIZE]
    print(f"\nblock-size tuning (n={BENCH_N}, trials={BENCH_TRIALS}):")
    for block_size in sorted(timings):
        marker = " <- best" if block_size == best_size else (
            " <- default" if block_size == DEFAULT_BLOCK_SIZE else ""
        )
        print(f"  block {block_size:6d}: {timings[block_size] * 1000:7.2f} ms{marker}")
    benchmark.extra_info["timings_ms"] = {
        str(k): round(v * 1000, 3) for k, v in timings.items()
    }
    benchmark.extra_info["best_block_size"] = best_size
    benchmark.extra_info["default_block_size"] = DEFAULT_BLOCK_SIZE
    assert default_seconds <= 2.0 * timings[best_size], (
        f"default block size {DEFAULT_BLOCK_SIZE} ({default_seconds * 1000:.1f} ms) is "
        f"more than 2x slower than the best measured size {best_size} "
        f"({timings[best_size] * 1000:.1f} ms) — retune the default"
    )
