"""Experiment harness: seeding, trial runners, sweeps and result tables.

Role: the measurement layer between the engines and the experiments —
derive seeds, assemble adversaries + knowledge oracles for a trial, run
``ns × trials`` sweeps as lists of cells (:func:`sweep_adversary_batched`,
in-process or over the one process pool of :func:`run_sweep_cells`, with
each ``n``'s trials split into one contiguous range per worker),
and collect :class:`~repro.sim.metrics.TrialMetrics` into result tables.

Invariant: every trial's seed derives from ``(master_seed, experiment,
algorithm, n, trial)`` via :func:`~repro.sim.seeding.derive_seed`, so
every ``workers`` value and every engine reproduce each other bit for
bit, and everything measured above this layer is reproducible from
``(master_seed, experiment)`` alone.
"""

from ..adversaries.factory import resolve_adversary_family
from .metrics import TrialMetrics, durations, mean_duration, termination_rate
from .batch import run_sweep_cell, sweep_adversary_batched
from .parallel import run_sweep_cells
from .results import ExperimentReport, ResultTable
from .runner import (
    ENGINES,
    SweepPoint,
    SweepResult,
    build_knowledge_for_random_run,
    build_trial_adversary,
    default_horizon,
    derive_sweep_trial,
    execute_random_trial,
    resolve_engine,
    run_random_trial,
    run_sweep_trial,
    validate_sweep_parameters,
)
from .seeding import derive_seed, trial_seeds

__all__ = [
    "ENGINES",
    "ExperimentReport",
    "ResultTable",
    "SweepPoint",
    "SweepResult",
    "TrialMetrics",
    "build_knowledge_for_random_run",
    "build_trial_adversary",
    "default_horizon",
    "derive_seed",
    "derive_sweep_trial",
    "durations",
    "execute_random_trial",
    "mean_duration",
    "resolve_adversary_family",
    "resolve_engine",
    "run_random_trial",
    "run_sweep_cell",
    "run_sweep_cells",
    "run_sweep_trial",
    "sweep_adversary_batched",
    "termination_rate",
    "trial_seeds",
    "validate_sweep_parameters",
]
