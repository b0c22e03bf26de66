"""Run one benchmark workload and print every metric by name, with its unit.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-n480 --seed 0 --seconds 15 --trace 0

Without ``--workload`` every workload runs, each in its own interpreter.

Workloads, metrics, units and bounds are declared in ``BENCHMARK.json``;
``perfbench/README.md`` says what each workload and metric is for.

One run, in order:

1. ``setup_s``: the median over several fresh interpreters of the time to
   import ``repro`` and ``repro.cli`` and build the workload's inputs.
2. A small untimed warm-up pass, then passes with tracing off and no
   probes installed for ``--seconds`` seconds.  ``trials_per_s`` is the
   median over passes of trials / pass wall time; ``peak_rss_mb`` the
   larger of this process's and its children's max RSS once the passes
   are done.
3. Correctness, outside the timed region: every pass's digest of per-trial
   ``(seed, duration, interactions_used, transmissions, opt_cost)`` rows
   must match the first pass's (and, for the pinned seed, the digest in
   ``pinned.json``), and one sampled trial per cell is re-run on the
   reference ``Executor`` and compared.  ``EngineFallbackWarning`` is an
   error throughout, so a silent downgrade fails the run.
   ``success_frac`` is 1 - failed / attempted operations (trials and
   reference checks).
4. With ``--trace 1``: one more pass with the layer probes installed
   under a ``RecordingCollector``.  Its digest must equal the untraced
   passes', its Chrome trace must validate, and the per-layer metrics and
   self-time table come from its spans.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every check passed.  Full results with provenance go to
``.perfbench/result-<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench"
PINNED = BENCH_DIR / "pinned.json"
#: Seed whose pass digests are pinned in ``pinned.json``.
PINNED_SEED = 0
SETUP_PROBES = 7

SETUP_PROBE = """
import time
started = time.perf_counter()
import sys
from pathlib import Path
sys.path[:0] = ["src", {bench!r}]
import repro
import repro.cli
import workloads
workloads.WORKLOADS[{name!r}]({seed}, Path({work!r}))
print(time.perf_counter() - started)
"""


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--workload", default="all", help="a workload name, or all (the default)"
    )
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def host_class() -> str:
    """Architecture + logical cpu count (``bench_utils.machine_fingerprint``)."""
    return f"{platform.machine()}-{os.cpu_count()}cpu"


def host_loop_s() -> float:
    """Wall time of a fixed pure-Python loop.

    Shared hosts drift between speed regimes: on one 2-cpu x86_64 host a
    fixed loop like this ran 1.5x, and the workloads up to 2x, slower
    minutes apart.  Every result records this before and after its passes
    so that such regimes can be told apart.
    """
    started = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i
    return time.perf_counter() - started


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def measure_setup(name: str, seed: int, work_dir: Path) -> float:
    """Median fresh-interpreter set-up time over ``SETUP_PROBES`` runs."""
    code = SETUP_PROBE.format(
        bench=str(BENCH_DIR), name=name, seed=seed, work=str(work_dir)
    )
    times = []
    for _ in range(SETUP_PROBES):
        completed = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if completed.returncode:
            raise RuntimeError(f"set-up probe failed:\n{completed.stderr}")
        times.append(float(completed.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Tally:
    """Attempted and failed operations (trials and reference checks)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)
        print(f"FAILED: {problem}", file=sys.stderr)


def run_workload(
    workload_cls: Any, args: argparse.Namespace, run_dir: Path, tally: Tally
) -> Dict[str, Any]:
    """Measure one workload; returns every metric (end-to-end and per layer)."""
    workload = workload_cls(args.seed, run_dir)
    metrics: Dict[str, float] = {
        "host_loop_before_s": host_loop_s(),
        "setup_s": measure_setup(args.workload, args.seed, run_dir),
    }

    workload.warm_up()
    walls: List[float] = []
    results = []
    started = time.perf_counter()
    while not walls or time.perf_counter() - started < args.seconds:
        pass_started = time.perf_counter()
        output = workload.run_pass()
        walls.append(time.perf_counter() - pass_started)
        results.append(workload.summarize(output))
        if len(results) == 1:
            first_output = output
    metrics["peak_rss_mb"] = peak_rss_mb()
    metrics["host_loop_after_s"] = host_loop_s()
    rates = [r.trials / wall for r, wall in zip(results, walls)]
    metrics["trials_per_s"] = statistics.median(rates)
    print(
        f"{len(walls)} passes of {results[0].trials} trials: wall "
        + ", ".join(f"{w:.3f}" for w in walls)
        + f" s; host loop {metrics['host_loop_before_s']:.3f} s before, "
        f"{metrics['host_loop_after_s']:.3f} s after"
    )

    digest = results[0].digest()
    for index, result in enumerate(results):
        tally.attempted += result.trials
        if result.digest() != digest:
            tally.fail(result.trials, f"pass {index} digest differs from pass 0")
    if args.seed == PINNED_SEED:
        pinned = json.loads(PINNED.read_text()).get(args.workload)
        if pinned != digest:
            tally.fail(results[0].trials, f"digest {digest} is not the pinned {pinned}")
    checks = workload.reference_checks(first_output, results[0])
    tally.attempted += len(checks)
    for check in checks:
        if check.expected != check.got:
            tally.fail(1, f"reference engine disagrees: {check}")
    print(f"digest {digest}; {len(checks)} reference-engine trials checked")

    if args.trace:
        metrics.update(traced_pass(workload, digest, statistics.median(walls), tally))
    return metrics


def traced_pass(workload: Any, digest: str, untraced_wall: float, tally: Tally) -> Dict[str, float]:
    """One pass with the layer probes installed; returns the per-layer metrics."""
    from repro.obs import (
        RecordingCollector,
        use_collector,
        validate_chrome_trace,
        write_chrome_trace,
    )
    import probes

    collector = RecordingCollector()
    with probes.Probes(), use_collector(collector):
        started = time.perf_counter()
        with collector.span(probes.PASS_SPAN, workload=workload.name):
            output = workload.run_pass()
        traced_wall = time.perf_counter() - started
    result = workload.summarize(output)
    tally.attempted += result.trials
    if result.digest() != digest:
        tally.fail(result.trials, "traced pass digest differs from untraced")
    trace_path = WORK_DIR / f"trace-{workload.name}.json"
    write_chrome_trace(collector, trace_path)
    problems = validate_chrome_trace(json.loads(trace_path.read_text()))
    if problems:
        tally.fail(0, f"chrome trace invalid: {problems[:3]}")
    spans = list(collector.spans)
    print(f"traced pass {traced_wall:.3f} s, {len(spans)} spans -> {trace_path}")
    print(probes.layer_table(spans))
    return probes.per_layer_metrics(
        spans,
        parent_pid=os.getpid(),
        bytes_written=result.bytes_written,
        traced_wall_s=traced_wall,
        untraced_wall_s=untraced_wall,
    )


def run_all(args: argparse.Namespace, names: List[str]) -> int:
    """Run every workload, each in its own interpreter (RSS is per process)."""
    failed = []
    for name in names:
        completed = subprocess.run(
            [
                sys.executable, __file__, "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            cwd=ROOT,
        )
        if completed.returncode:
            failed.append(name)
    if failed:
        print(f"perfbench: failed workloads: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


def metric_units(root: Path, trace: int) -> Dict[str, str]:
    """The metrics this run must report, with units, from ``BENCHMARK.json``."""
    declared = json.loads((root / "BENCHMARK.json").read_text())
    section = declared["per_layer" if trace else "end_to_end"]
    return {entry["name"]: entry["unit"] for entry in section}


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            "perfbench: no src/repro package under the current directory; "
            "run from the repository root",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    from repro.core.vector_execution import EngineFallbackWarning
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    units = metric_units(ROOT, args.trace)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host_class": host_class(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))

    # A fallback to another engine would time a different code path.
    warnings.simplefilter("error", EngineFallbackWarning)
    tally = Tally()
    run_dir = WORK_DIR / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    measured: Dict[str, Any] = {}
    try:
        measured = run_workload(WORKLOADS[args.workload], args, run_dir, tally)
    except Exception:
        # A raised error is a failed operation: report it, do not crash.
        traceback.print_exc()
        tally.attempted += 1
        tally.fail(1, "the workload raised")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    measured["success_frac"] = 1.0 - failed_frac
    reported = {
        name: {"value": float(measured.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    missing = sorted(set(units) - set(measured))
    if missing and not tally.failed:
        tally.fail(0, f"metrics not measured: {missing}")
    for name, entry in sorted(reported.items()):
        print(f"{name:<40}{entry['value']:>18.6g} {entry['unit']}")
    print(f"{'failed_frac':<40}{failed_frac:>18.6g} frac")

    correct = not tally.problems
    summary = {
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": reported,
    }
    result_path = (
        WORK_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    result_path.write_text(
        json.dumps(
            {**summary, "provenance": provenance, "all_metrics": measured,
             "failed_frac": failed_frac, "problems": tally.problems},
            indent=2, sort_keys=True,
        )
    )
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
