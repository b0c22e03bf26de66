"""Differential benchmark: vectorized mobility sweeps vs. the reference engine.

Runs the same mobility-adversary sweep (``community`` and ``waypoint``
families, n >= 100) per trial on the reference engine (one
:func:`~repro.sim.runner.run_sweep_trial` per trial) and as sweep cells on
the vectorized engine (one ``VectorizedExecutor.run_many`` invocation per
cell), asserts the results are identical trial for trial, and that the
vectorized path is measurably faster.  Timings are appended to the
``BENCH_engine.json`` trajectory under the engine tag
``vectorized_mobility`` (distinct from the uniform-adversary
``vectorized`` ratchet in ``perf_gate.py``), which ``perf_gate.py
--require-record`` requires and floors at :data:`MIN_MOBILITY_VS_REFERENCE`.
"""

import time

from repro.algorithms.waiting import Waiting
from repro.sim.batch import sweep_adversary_batched
from repro.sim.runner import run_sweep_trial

from bench_utils import record_bench_trajectory

BENCH_N = 100
BENCH_TRIALS = 5
FAMILIES = ("community", "waypoint")
#: The sampling cost of the committed mobility future is shared by both
#: engines, so the gate is lower than the uniform-adversary benchmark's.
MIN_MOBILITY_VS_REFERENCE = 1.5
#: Best of N timing rounds, so one noisy measurement cannot fail the gate.
TIMING_ROUNDS = 3


def _timed(run) -> "tuple":
    best = None
    result = None
    for _ in range(TIMING_ROUNDS):
        started = time.perf_counter()
        result = run()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def test_batched_mobility_sweep_speedup_and_equality(benchmark):
    """The vectorized engine reproduces the reference mobility sweeps, faster."""
    reference = {}
    reference_seconds = 0.0
    for family in FAMILIES:
        result, seconds = _timed(
            lambda family=family: [
                run_sweep_trial(
                    lambda n: Waiting(),
                    BENCH_N,
                    trial,
                    master_seed=7,
                    experiment="bench_mobility",
                    engine="reference",
                    adversary=family,
                )
                for trial in range(BENCH_TRIALS)
            ]
        )
        reference[family] = result
        reference_seconds += seconds

    def run_batched():
        return {
            family: sweep_adversary_batched(
                lambda n: Waiting(),
                ns=[BENCH_N],
                trials=BENCH_TRIALS,
                master_seed=7,
                experiment="bench_mobility",
                engine="vectorized",
                adversary=family,
            )
            for family in FAMILIES
        }

    batched, batched_seconds = benchmark.pedantic(
        _timed, args=(run_batched,), rounds=1, iterations=1, warmup_rounds=0
    )
    for family in FAMILIES:
        assert batched[family].points[0].trials == reference[family], family

    speedup = reference_seconds / batched_seconds
    benchmark.extra_info["n"] = BENCH_N
    benchmark.extra_info["trials"] = BENCH_TRIALS
    benchmark.extra_info["families"] = list(FAMILIES)
    benchmark.extra_info["reference_seconds"] = reference_seconds
    benchmark.extra_info["vectorized_seconds"] = batched_seconds
    benchmark.extra_info["speedup"] = speedup
    record_bench_trajectory(
        "engine",
        {
            "engine": "vectorized_mobility",
            "baseline": "reference",
            "adversary": "+".join(FAMILIES),
            "algorithms": ["waiting"],
            "n": BENCH_N,
            "trials": BENCH_TRIALS,
            "seconds": round(batched_seconds, 6),
            "baseline_seconds": round(reference_seconds, 6),
            "speedup": round(speedup, 3),
        },
    )
    print(
        f"\nmobility sweep benchmark (n={BENCH_N}, trials={BENCH_TRIALS}, "
        f"families={list(FAMILIES)}): reference {reference_seconds:.3f}s, "
        f"vectorized {batched_seconds:.3f}s, speedup {speedup:.1f}x"
    )
    assert speedup >= MIN_MOBILITY_VS_REFERENCE, (
        f"vectorized mobility sweep speedup {speedup:.2f}x below the "
        f"required {MIN_MOBILITY_VS_REFERENCE:.1f}x (reference "
        f"{reference_seconds:.3f}s, vectorized {batched_seconds:.3f}s)"
    )
