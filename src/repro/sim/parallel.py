"""The process pool of the sweep layer: sweep cells over worker processes.

:func:`run_sweep_cells` is the one place the simulator starts worker
processes.  Every sweep (:func:`repro.sim.batch.sweep_adversary_batched`)
and every campaign (:mod:`repro.campaign`) is a list of
:func:`repro.sim.batch.run_sweep_cell` keyword-argument dicts, and this
module maps such a list over a ``multiprocessing`` pool, yielding results
cell by cell so callers can checkpoint as they go.  Each cell re-derives
its trials' seeds from ``(master_seed, experiment, algorithm, n, trial)``
via :func:`~repro.sim.seeding.derive_seed` and shares no RNG state with
any other cell, so the results are identical for any ``workers`` count.

Workers are started with the ``fork`` start method (the configuration,
including lambda algorithm factories, is inherited by the child processes
rather than pickled); on platforms without ``fork`` the cells run
serially.
"""

from __future__ import annotations

import multiprocessing
from typing import Iterator, List, Optional, Sequence, Tuple

from ..obs import (
    CollectorSnapshot,
    RecordingCollector,
    current_collector,
    use_collector,
)
from ..obs import now as _now
from .metrics import TrialMetrics

#: The cells of the running pool, inherited through ``fork`` (never
#: pickled, so lambda factories and closures work).
_WORKER_CELLS: List[dict] = []


def _init_worker(cells: List[dict]) -> None:
    """Install the cell list in a freshly forked worker."""
    _WORKER_CELLS[:] = cells


def _fork_context() -> Optional[multiprocessing.context.BaseContext]:
    """The ``fork`` multiprocessing context, or None when unavailable."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


def _run_cell_in_worker(
    index: int,
) -> Tuple[List[TrialMetrics], float, Optional[CollectorSnapshot]]:
    """Run one cell (by task index) inside a worker process.

    Returns ``(metrics, elapsed_seconds, trace_snapshot)``.  The elapsed
    time is measured around the cell's own execution, so it stays accurate
    when several cells run concurrently.  Forked workers inherit the
    parent's collector object, but recordings made into it die with the
    child process — so when tracing is on, the worker records into a fresh
    :class:`~repro.obs.RecordingCollector` and ships its picklable
    snapshot back for the parent to merge (None when tracing is off).
    """
    from .batch import run_sweep_cell

    kwargs = _WORKER_CELLS[index]
    start = _now()
    if not current_collector().enabled:
        return run_sweep_cell(**kwargs), _now() - start, None
    worker_collector = RecordingCollector()
    with use_collector(worker_collector):
        metrics = run_sweep_cell(**kwargs)
    return metrics, _now() - start, worker_collector.snapshot()


def _merge_snapshot(snapshot: Optional[CollectorSnapshot]) -> None:
    """Fold a worker's trace snapshot into the parent's collector, if any."""
    merge = getattr(current_collector(), "merge", None)
    if snapshot is not None and merge is not None:
        merge(snapshot)


def run_sweep_cells(
    cell_kwargs: Sequence[dict], workers: int = 1, with_timing: bool = False
) -> "Iterator":
    """Run sweep cells, optionally over a process pool.

    ``cell_kwargs`` is a sequence of keyword-argument dicts for
    :func:`repro.sim.batch.run_sweep_cell`.  Each cell may name a different
    algorithm factory, adversary family, ``n`` or trial range, which
    covers both a sweep's cells and a campaign grid
    (:mod:`repro.campaign`).  Results are yielded **in task order as each
    cell completes** (``imap`` under the hood), so a caller can checkpoint
    cell by cell; an interrupt mid-iteration loses only cells not yet
    yielded.  Per-cell results are identical for every ``workers`` value
    (each cell re-derives its trials from seeds alone).

    Yields per-cell ``List[TrialMetrics]``, or ``(metrics,
    elapsed_seconds)`` pairs when ``with_timing`` is true — the elapsed
    time is measured where the cell actually ran, so it is meaningful
    even when cells execute concurrently.

    Raises:
        ValueError: if ``workers < 1`` (raised at call time, before any
            cell runs — the iterator itself never raises it).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return _iter_sweep_cells(list(cell_kwargs), workers, with_timing)


def _iter_sweep_cells(
    cell_kwargs: List[dict], workers: int, with_timing: bool
) -> "Iterator":
    from .batch import run_sweep_cell

    context = _fork_context()
    if workers == 1 or context is None or len(cell_kwargs) <= 1:
        for kwargs in cell_kwargs:
            start = _now()
            metrics = run_sweep_cell(**kwargs)
            elapsed = _now() - start
            yield (metrics, elapsed) if with_timing else metrics
        return
    processes = min(workers, len(cell_kwargs))
    with context.Pool(
        processes=processes, initializer=_init_worker, initargs=(cell_kwargs,)
    ) as pool:
        for metrics, elapsed, snapshot in pool.imap(
            _run_cell_in_worker, range(len(cell_kwargs)), 1
        ):
            # Merge before yielding so a caller that checkpoints cell by
            # cell sees the worker's spans as soon as the cell lands.
            _merge_snapshot(snapshot)
            yield (metrics, elapsed) if with_timing else metrics
