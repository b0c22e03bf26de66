"""Unit tests for the simulation harness (seeding, metrics, results, runner)."""

import math

import pytest

from repro.algorithms.gathering import Gathering
from repro.algorithms.waiting_greedy import WaitingGreedy, optimal_tau
from repro.core.execution import run_algorithm
from repro.core.interaction import InteractionSequence
from repro.sim.metrics import TrialMetrics, durations, mean_duration, termination_rate
from repro.sim.results import ExperimentReport, ResultTable
from repro.sim.batch import sweep_adversary_batched
from repro.sim.runner import default_horizon, run_random_trial
from repro.sim.seeding import derive_seed, trial_seeds


class TestSeeding:
    def test_derive_seed_deterministic(self):
        assert derive_seed(1, "exp", 10, 0) == derive_seed(1, "exp", 10, 0)

    def test_derive_seed_sensitive_to_components(self):
        seeds = {
            derive_seed(1, "exp", 10, 0),
            derive_seed(1, "exp", 10, 1),
            derive_seed(1, "exp", 11, 0),
            derive_seed(2, "exp", 10, 0),
            derive_seed(1, "other", 10, 0),
        }
        assert len(seeds) == 5

    def test_trial_seeds_distinct(self):
        seeds = trial_seeds(0, "exp", 16, 20)
        assert len(set(seeds)) == 20

    def test_seed_fits_in_63_bits(self):
        assert 0 <= derive_seed(99, "x") < 2 ** 63


class TestMetrics:
    def _metric(self, terminated, duration):
        return TrialMetrics(
            n=10,
            seed=0,
            algorithm="gathering",
            terminated=terminated,
            duration=duration,
            transmissions=9,
            horizon=1000,
            sink_coverage=10,
        )

    def test_from_result(self):
        sequence = InteractionSequence.from_pairs([(2, 1), (1, 0)])
        result = run_algorithm(Gathering(), sequence, [0, 1, 2], sink=0)
        metrics = TrialMetrics.from_result(result, n=3, seed=1, algorithm="gathering", horizon=2)
        assert metrics.terminated
        assert metrics.duration == 2.0
        assert metrics.transmissions == 2

    def test_aggregations(self):
        sample = [self._metric(True, 10.0), self._metric(True, 20.0), self._metric(False, math.inf)]
        assert durations(sample) == [10.0, 20.0]
        assert termination_rate(sample) == pytest.approx(2 / 3)
        assert mean_duration(sample) == 15.0

    def test_mean_duration_all_failed(self):
        sample = [self._metric(False, math.inf)]
        assert math.isinf(mean_duration(sample))

    def test_termination_rate_empty_rejected(self):
        with pytest.raises(ValueError):
            termination_rate([])


class TestResultTable:
    def test_add_row_and_columns(self):
        table = ResultTable(title="t", columns=["a", "b"])
        table.add_row(a=1, b=2.5)
        assert table.column("a") == [1]
        with pytest.raises(ValueError):
            table.add_row(c=1)
        with pytest.raises(KeyError):
            table.column("missing")

    def test_markdown_rendering(self):
        table = ResultTable(title="demo", columns=["n", "value"])
        table.add_row(n=10, value=3.14159)
        table.add_note("a note")
        text = table.to_markdown()
        assert "### demo" in text
        assert "| n | value |" in text
        assert "3.142" in text
        assert "- a note" in text

    def test_csv_and_json(self):
        table = ResultTable(title="demo", columns=["n"])
        table.add_row(n=5)
        assert "n\r\n5" in table.to_csv() or "n\n5" in table.to_csv()
        assert '"title": "demo"' in table.to_json()

    def test_infinite_cells_render(self):
        table = ResultTable(title="demo", columns=["x"])
        table.add_row(x=math.inf)
        assert "inf" in table.to_markdown()

    def test_experiment_report_markdown(self):
        table = ResultTable(title="demo", columns=["n"])
        table.add_row(n=5)
        report = ExperimentReport(
            experiment_id="E0",
            claim="a claim",
            tables=[table],
            verdict=True,
            details={"k": 1.5},
        )
        text = report.to_markdown()
        assert "E0" in text
        assert "reproduced" in text
        assert "k: 1.500" in text


class TestRunner:
    def test_default_horizon_scales(self):
        assert default_horizon(Gathering(), 100) > default_horizon(Gathering(), 10)
        greedy = WaitingGreedy(tau=optimal_tau(50))
        assert default_horizon(greedy, 50) > 0

    def test_run_random_trial_deterministic(self):
        a = run_random_trial(Gathering(), 15, seed=7)
        b = run_random_trial(Gathering(), 15, seed=7)
        assert a.duration == b.duration
        assert a.terminated and b.terminated

    def test_run_random_trial_sink_validation(self):
        with pytest.raises(ValueError):
            run_random_trial(Gathering(), 10, seed=0, sink=99)

    def test_run_random_trial_with_knowledge_algorithm(self):
        metrics = run_random_trial(WaitingGreedy(tau=optimal_tau(15)), 15, seed=1)
        assert metrics.terminated

    def test_sweep_produces_points_in_order(self):
        sweep = sweep_adversary_batched(
            lambda n: Gathering(), ns=[8, 12], trials=3, master_seed=1
        )
        assert sweep.ns == [8, 12]
        assert all(point.termination_rate == 1.0 for point in sweep.points)
        assert sweep.mean_durations[0] < sweep.mean_durations[1]

    def test_sweep_to_table(self):
        sweep = sweep_adversary_batched(
            lambda n: Gathering(), ns=[8], trials=2, master_seed=1
        )
        table = sweep.to_table()
        assert table.rows[0]["n"] == 8
        assert table.rows[0]["trials"] == 2
