"""Determinism of the one sweep path, :func:`sweep_adversary_batched`.

Every sweep is a list of :func:`~repro.sim.batch.run_sweep_cell` cells,
run in-process (``workers=1``) or over the one process pool of
:func:`~repro.sim.parallel.run_sweep_cells`, with each ``n``'s trials
split into one contiguous range per worker.  The contract pinned here:
for every engine (the vectorized one at its default window and, as the
test-only ``vectorized-small-blocks`` engine, at a small one) and every
``workers`` value, a sweep reproduces a plain :func:`~repro.sim.runner.
run_sweep_trial` loop on the reference engine trial for trial — metrics, seeds, horizons and (with ``capture_opt``) the
offline-optimum baseline included.
"""

import pytest
from engine_variants import CANDIDATE_ENGINES, use_engine

from repro.algorithms.gathering import Gathering
from repro.algorithms.waiting import Waiting
from repro.algorithms.waiting_greedy import WaitingGreedy, optimal_tau
from repro.sim import batch
from repro.sim.batch import run_sweep_cell, sweep_adversary_batched
from repro.sim.runner import run_sweep_trial

#: The reference engine, the vectorized one at its default window, and the
#: small-window configuration that makes every trial cross lockstep block
#: boundaries.
ENGINES = ("reference", *CANDIDATE_ENGINES)
WORKERS = (1, 2, 3)
FAMILIES = ("zipf", "hub", "waypoint", "community")

every_engine_and_worker_count = pytest.mark.parametrize(
    "engine,workers",
    [pytest.param(e, w, id=f"{e}-{w}") for e in ENGINES for w in WORKERS],
)


def gathering(n):
    return Gathering()


def waiting(n):
    return Waiting()


def waiting_greedy(n):
    return WaitingGreedy(tau=optimal_tau(n))


def reference_trials(factory, n, trials, **kwargs):
    """The trials of one ``n`` from a reference-engine run_sweep_trial loop."""
    return [
        run_sweep_trial(factory, n, trial, engine="reference", **kwargs)
        for trial in trials
    ]


def assert_matches_reference(factory, ns, trials, engine, workers, **kwargs):
    sweep = sweep_adversary_batched(
        factory, ns, trials, engine=engine, workers=workers, **kwargs
    )
    assert sweep.algorithm == factory(ns[0]).name
    assert sweep.ns == list(ns)
    for point, n in zip(sweep.points, ns):
        assert point.trials == reference_trials(
            factory, n, range(trials), **kwargs
        )


class TestSweepMatchesReferenceLoop:
    @pytest.fixture(autouse=True)
    def _register_engine(self, request, monkeypatch):
        use_engine(request.getfixturevalue("engine"), monkeypatch)

    @every_engine_and_worker_count
    def test_two_n_grid(self, engine, workers):
        assert_matches_reference(
            gathering, [8, 12], 4, engine, workers, master_seed=11
        )

    @every_engine_and_worker_count
    @pytest.mark.parametrize("trials", (1, 5))
    def test_one_n_knowledge_algorithm_with_opt(
        self, engine, workers, trials
    ):
        # One n and several workers: the trials are split into ranges.
        assert_matches_reference(
            waiting_greedy, [10], trials, engine, workers,
            master_seed=2,
            capture_opt=True,
        )

    @every_engine_and_worker_count
    def test_ratio_capture(self, engine, workers):
        assert_matches_reference(
            gathering, [8, 12], 4, engine, workers, master_seed=11,
            experiment="ratio-paths", capture_opt=True,
        )

    @every_engine_and_worker_count
    def test_mobility_adversary(self, engine, workers):
        assert_matches_reference(
            waiting, [10], 4, engine, workers, master_seed=3,
            adversary="community",
        )

    @pytest.mark.slow
    @every_engine_and_worker_count
    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_family(self, family, engine, workers):
        assert_matches_reference(
            gathering, [8, 12], 4, engine, workers, master_seed=9,
            adversary=family,
        )


class TestTrialSplit:
    def test_cell_over_a_trial_range(self):
        cell = run_sweep_cell(waiting_greedy, 10, range(2, 5), master_seed=2)
        assert cell == reference_trials(
            waiting_greedy, 10, range(2, 5), master_seed=2
        )

    def test_empty_trial_range_rejected(self):
        with pytest.raises(ValueError):
            run_sweep_cell(gathering, 8, range(3, 3))

    @pytest.mark.parametrize(
        "ns,trials,workers,expected",
        [
            (
                [10], 5, 3,
                [(10, range(0, 1)), (10, range(1, 3)), (10, range(3, 5))],
            ),
            ([10], 1, 3, [(10, 1)]),
            (
                [8, 10], 4, 2,
                [(8, range(0, 2)), (8, range(2, 4)),
                 (10, range(0, 2)), (10, range(2, 4))],
            ),
            (
                [8, 10], 4, 3,
                [(8, range(0, 1)), (8, range(1, 2)), (8, range(2, 4)),
                 (10, range(0, 1)), (10, range(1, 2)), (10, range(2, 4))],
            ),
        ],
    )
    def test_cells_handed_to_the_pool(
        self, monkeypatch, ns, trials, workers, expected
    ):
        handed = []

        def record(cells, workers):
            handed.extend((cell["n"], cell["trials"]) for cell in cells)
            return [run_sweep_cell(**kwargs) for kwargs in cells]

        monkeypatch.setattr(batch, "run_sweep_cells", record)
        sweep_adversary_batched(gathering, ns, trials, workers=workers)
        assert handed == expected


class TestSweepValidation:
    def test_empty_ns_rejected(self):
        with pytest.raises(ValueError):
            sweep_adversary_batched(gathering, ns=[], trials=3)
        with pytest.raises(ValueError):
            sweep_adversary_batched(gathering, ns=[], trials=3, workers=2)

    def test_invalid_trials_and_workers_rejected(self):
        with pytest.raises(ValueError):
            sweep_adversary_batched(gathering, ns=[8], trials=0)
        with pytest.raises(ValueError):
            sweep_adversary_batched(gathering, ns=[8], trials=3, workers=0)

    def test_too_small_n_rejected_before_running(self):
        # n < 2 used to crash mid-sweep inside the adversary constructor.
        with pytest.raises(ValueError):
            sweep_adversary_batched(gathering, ns=[1, 8], trials=2)
        with pytest.raises(ValueError):
            sweep_adversary_batched(gathering, ns=[0], trials=2, workers=2)
