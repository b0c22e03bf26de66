"""Whole-cell sweep execution: the one sweep path of the simulator.

A sweep is a list of cells.  A cell is all trials (or a contiguous range
of trial indices) of one algorithm at one ``n``, run through **one engine
invocation**: a single trial-vectorized
:class:`~repro.core.vector_execution.VectorizedExecutor` is constructed
per cell and its ``run_many`` executes every trial, sharing the dense
node-index map, canonical-rank precomputation and the whole
struct-of-arrays lockstep across trials.  With
``engine="reference"`` the cell runs one reference executor per trial
instead, which makes it the oracle side of the differential tests.

:func:`sweep_adversary_batched` is the only sweep function.  It turns
``ns × trials`` into cells and runs them in-process (``workers=1``) or over
the one process pool, :func:`repro.sim.parallel.run_sweep_cells`.  With
more than one worker, each ``n``'s trials are split into one contiguous
range per worker, so the pool can balance the costly large-``n`` cells.

Determinism contract: every cell derives exactly the same per-trial seeds,
horizons and adversaries as :func:`repro.sim.runner.run_sweep_trial`, so a
sweep's metrics are identical trial for trial for every engine and every
``workers`` value (``tests/test_sweep_determinism.py`` pins this against a
reference-engine ``run_sweep_trial`` loop).

The cell is also the campaign layer's unit of execution and checkpointing:
:mod:`repro.campaign` decomposes a declarative spec into
:func:`run_sweep_cell` invocations, fans them out through
:func:`repro.sim.parallel.run_sweep_cells` and persists each completed
cell as one store shard.
"""

from __future__ import annotations

import warnings
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.algorithm import DODAAlgorithm
from ..core.data import NodeId
from ..core.vector_execution import (
    BatchTrial,
    EngineFallback,
    EngineFallbackWarning,
)
from ..obs import current_collector
from .metrics import TrialMetrics
from .parallel import run_sweep_cells
from .runner import (
    AlgorithmFactory,
    SweepPoint,
    SweepResult,
    build_knowledge_for_random_run,
    build_trial_adversary,
    derive_sweep_trial,
    resolve_adversary_family,
    resolve_engine,
    validate_sweep_parameters,
)

__all__ = ["run_sweep_cell", "sweep_adversary_batched"]


def run_sweep_cell(
    algorithm_factory: AlgorithmFactory,
    n: int,
    trials: Union[int, range],
    master_seed: int = 0,
    experiment: str = "sweep",
    horizon_fn: Optional[Callable[[DODAAlgorithm, int], int]] = None,
    sink: NodeId = 0,
    engine: str = "vectorized",
    adversary: str = "uniform",
    adversary_params: Optional[Dict[str, Any]] = None,
    block_size: Optional[int] = None,
    capture_opt: bool = False,
) -> List[TrialMetrics]:
    """Run the trials of one sweep cell in one engine invocation.

    ``trials`` is a trial count (trials ``0..trials-1``) or a ``range`` of
    trial indices, so a sweep can split one ``n`` over several workers.
    Seeds, horizons, adversaries and knowledge oracles are derived exactly
    as in :func:`repro.sim.runner.run_sweep_trial`, so the returned metrics
    are identical to the per-trial path.  ``engine="vectorized"`` routes
    the cell through the struct-of-arrays lockstep of
    :meth:`~repro.core.vector_execution.VectorizedExecutor.run_many` —
    every registered algorithm has a decision kernel, so a trial leaves the
    lockstep only for the exceptional shapes listed in
    :mod:`repro.core.vector_execution`; when that happens the cell emits
    one :class:`EngineFallbackWarning` and tags the affected trials'
    metrics with ``extra["engine_fallback"]`` (the reason string).
    ``engine="reference"`` runs one reference executor per trial (the
    semantics oracle for differential tests of this very function).
    ``block_size`` tunes the vectorized engine's committed window (None
    keeps its default).  ``capture_opt=True``
    additionally evaluates the offline-optimum baseline per trial (the
    vectorized engine does so for the whole cell in one batched kernel
    call), filling the metrics' ``opt_cost``/``competitive_ratio`` fields
    identically to the per-trial path.

    Raises:
        ValueError: if ``n``/``trials`` are invalid or ``engine`` /
            ``adversary`` is unknown.
    """
    if isinstance(trials, range):
        validate_sweep_parameters([n], len(trials))
    else:
        validate_sweep_parameters([n], trials)
        trials = range(trials)
    executor_cls = resolve_engine(engine)
    resolve_adversary_family(adversary)
    nodes = list(range(n))
    if sink not in nodes:
        raise ValueError("sink must be one of the nodes 0..n-1")
    collector = current_collector()
    with collector.span(
        "sweep.cell", engine=engine, adversary=adversary, n=n,
        trials=len(trials),
    ) as cell_span:
        metrics = _run_cell(
            algorithm_factory, n, trials, master_seed, experiment,
            horizon_fn, sink, engine, adversary, adversary_params,
            block_size, capture_opt, executor_cls,
        )
        if collector.enabled:
            cell_span.set(
                algorithm=metrics[0].algorithm if metrics else "",
                fallbacks=sum(
                    1 for m in metrics if "engine_fallback" in m.extra
                ),
            )
        return metrics


def _run_cell(
    algorithm_factory: AlgorithmFactory,
    n: int,
    trials: range,
    master_seed: int,
    experiment: str,
    horizon_fn: Optional[Callable[[DODAAlgorithm, int], int]],
    sink: NodeId,
    engine: str,
    adversary: str,
    adversary_params: Optional[Dict[str, Any]],
    block_size: Optional[int],
    capture_opt: bool,
    executor_cls: Any,
) -> List[TrialMetrics]:
    """The cell body of :func:`run_sweep_cell` (span handled by the wrapper)."""
    nodes = list(range(n))

    def prepare(trial: int):
        """One trial's engine inputs, derived exactly like run_sweep_trial."""
        algorithm, seed, horizon = derive_sweep_trial(
            algorithm_factory, n, trial, master_seed=master_seed,
            experiment=experiment, horizon_fn=horizon_fn,
        )
        adversary_obj = build_trial_adversary(
            adversary, nodes, seed, horizon, sink, adversary_params
        )
        knowledge, committed = build_knowledge_for_random_run(
            algorithm, adversary_obj, nodes, sink, horizon
        )
        source = committed if committed is not None else adversary_obj
        return algorithm, knowledge, source, horizon, seed

    # Under the reference engine trials are prepared lazily, so each
    # committed future (and any horizon-length committed prefix a knowledge
    # oracle pre-draws) is only alive while its trial runs.  The vectorized
    # engine materialises the whole cell (its lockstep consumes all
    # committed futures side by side), so its peak memory grows with
    # ``trials`` — by design.
    meta: List[Tuple[str, int, int]] = []

    def record(algorithm, horizon, seed):
        meta.append((algorithm.name, horizon, seed))

    if hasattr(executor_cls, "run_many"):
        first = prepare(trials[0])
        executor_kwargs: Dict[str, Any] = {
            "knowledge": first[1],
            "capture_opt": capture_opt,
        }
        if block_size is not None:
            executor_kwargs["block_size"] = block_size
        cell_executor = executor_cls(nodes, sink, first[0], **executor_kwargs)

        def batch_trials():
            for position, trial in enumerate(trials):
                algorithm, knowledge, source, horizon, seed = (
                    first if position == 0 else prepare(trial)
                )
                record(algorithm, horizon, seed)
                yield BatchTrial(
                    source=source,
                    max_interactions=horizon,
                    algorithm=algorithm,
                    knowledge=knowledge,
                )

        results = cell_executor.run_many(batch_trials())
        fallbacks: Tuple[EngineFallback, ...] = cell_executor.last_fallbacks
        if fallbacks:
            reasons = sorted({record.reason for record in fallbacks})
            warnings.warn(
                f"vectorized engine fell back to the reference engine for "
                f"{len(fallbacks)} of {len(trials)} trials of cell "
                f"(algorithm={meta[0][0]!r}, n={n}): {'; '.join(reasons)}",
                EngineFallbackWarning,
                stacklevel=2,
            )
    else:
        fallbacks = ()
        results = []
        for trial in trials:
            algorithm, knowledge, source, horizon, seed = prepare(trial)
            record(algorithm, horizon, seed)
            results.append(
                executor_cls(
                    nodes, sink, algorithm, knowledge=knowledge,
                    capture_opt=capture_opt,
                ).run(source, max_interactions=horizon)
            )

    # Fallen-back trials are tagged in ``extra`` (an equality-relevant field,
    # but only set on trials that actually downgraded, so zero-fallback cells
    # stay byte-identical across engines; campaign shards ignore ``extra``
    # entirely).
    reason_of = {record.position: record.reason for record in fallbacks}
    return [
        TrialMetrics.from_result(
            result,
            n=n,
            seed=seed,
            algorithm=name,
            horizon=horizon,
            extra=(
                {"engine_fallback": reason_of[position]}
                if position in reason_of
                else None
            ),
        )
        for position, (result, (name, horizon, seed)) in enumerate(
            zip(results, meta)
        )
    ]


def sweep_adversary_batched(
    algorithm_factory: AlgorithmFactory,
    ns: Sequence[int],
    trials: int,
    master_seed: int = 0,
    experiment: str = "sweep",
    horizon_fn: Optional[Callable[[DODAAlgorithm, int], int]] = None,
    sink: NodeId = 0,
    engine: str = "vectorized",
    adversary: str = "uniform",
    adversary_params: Optional[Dict[str, Any]] = None,
    block_size: Optional[int] = None,
    capture_opt: bool = False,
    workers: int = 1,
) -> SweepResult:
    """Run ``trials`` independent trials per ``n`` as a list of sweep cells.

    ``workers == 1`` runs each ``n`` as one :func:`run_sweep_cell` cell,
    in-process.  Any other value splits each ``n``'s trials into
    ``min(trials, workers)`` contiguous ranges, one cell each, and runs the
    cells over the process pool of
    :func:`repro.sim.parallel.run_sweep_cells` — so the trials of the
    largest ``n`` spread over every worker.  The result is identical trial
    for trial for every ``engine`` and ``workers`` value.

    Raises:
        ValueError: if ``ns`` is empty or holds an ``n < 2``, ``trials <
            1``, ``workers < 1``, or ``engine`` / ``adversary`` is unknown.
    """
    validate_sweep_parameters(ns, trials)
    resolve_engine(engine)
    resolve_adversary_family(adversary)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    parts = min(trials, workers)
    if parts == 1:
        chunks: List[Union[int, range]] = [trials]
    else:
        bounds = [trials * k // parts for k in range(parts + 1)]
        chunks = [range(bounds[k], bounds[k + 1]) for k in range(parts)]
    cells = [
        dict(
            algorithm_factory=algorithm_factory,
            n=int(n),
            trials=chunk,
            master_seed=master_seed,
            experiment=experiment,
            horizon_fn=horizon_fn,
            sink=sink,
            engine=engine,
            adversary=adversary,
            adversary_params=adversary_params,
            block_size=block_size,
            capture_opt=capture_opt,
        )
        for n in ns
        for chunk in chunks
    ]
    # run_sweep_cells also runs workers == 1 in-process; calling the cells
    # directly keeps serial sweeps out of the pool's spans, which perfbench
    # reads as pool time (sim.pool_idle_frac).
    if workers == 1:
        cell_metrics = [run_sweep_cell(**kwargs) for kwargs in cells]
    else:
        cell_metrics = list(run_sweep_cells(cells, workers))
    result = SweepResult(algorithm=algorithm_factory(int(ns[0])).name)
    for position, n in enumerate(ns):
        own = cell_metrics[position * parts : (position + 1) * parts]
        result.points.append(
            SweepPoint(
                n=int(n),
                algorithm=result.algorithm,
                trials=[metrics for cell in own for metrics in cell],
            )
        )
    return result
