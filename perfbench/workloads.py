"""The benchmark's workloads: inputs built from a seed, one pass, its checks.

A workload is built from ``(seed, work_dir)`` alone.  ``run_pass`` is the
timed region: calls into the package's public entry points only
(``sweep_adversary_batched``, ``run_campaign`` or ``run_search``).
Everything else here runs outside the timed region: ``summarize`` turns a
pass's output into per-trial rows, and ``reference_checks`` re-runs one
sampled trial per cell on the reference ``Executor``.

A row is ``(seed, duration, interactions_used, transmissions, opt_cost)``.
``TrialMetrics`` carries no ``interactions_used``; a committed future always
reaches the horizon, so a trial used ``duration`` interactions when it
terminated and ``horizon`` interactions otherwise.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.campaign.runner import run_campaign
from repro.campaign.spec import algorithm_factory_for, spec_from_dict
from repro.campaign.store import CampaignStore
from repro.search.loop import SearchConfig, run_search, score_schedules
from repro.sim.batch import sweep_adversary_batched
from repro.sim.metrics import TrialMetrics
from repro.sim.runner import run_sweep_trial

ENGINE = "vectorized"
TRIALS = 32
PAPER_ALGORITHMS = ("waiting", "gathering", "waiting_greedy")
KNOWLEDGE_ALGORITHMS = ("spanning_tree", "full_knowledge", "future_broadcast")


def trial_row(metrics: TrialMetrics) -> Tuple[Any, ...]:
    """The digested per-trial tuple (floats as ``repr`` so ``inf`` is exact)."""
    used = metrics.duration if metrics.terminated else metrics.horizon
    return (
        int(metrics.seed),
        repr(float(metrics.duration)),
        int(used),
        int(metrics.transmissions),
        repr(metrics.opt_cost),
    )


def sampled_trial(seed: int, cell: str, trials: int) -> int:
    """The trial of ``cell`` re-run on the reference engine for ``seed``."""
    return random.Random(f"{seed}/{cell}").randrange(trials)


@dataclass
class PassResult:
    """What one pass produced, reduced to what the checks compare."""

    trials: int
    rows: Dict[str, List[Tuple[Any, ...]]]
    # Further deterministic outputs folded into the digest (campaign
    # manifest digests, search history).
    extra: Dict[str, Any] = field(default_factory=dict)
    # Store bytes the pass wrote (a per-layer metric, never digested).
    bytes_written: int = 0

    def digest(self) -> str:
        payload = json.dumps(
            {"rows": self.rows, "extra": self.extra}, sort_keys=True
        )
        return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(frozen=True)
class Check:
    """One sampled trial: the reference engine's row and the pass's row."""

    cell: str
    trial: int
    expected: Tuple[Any, ...]
    got: Tuple[Any, ...]


class Workload:
    """Base class: subclasses set ``name`` and implement the hooks."""

    name = ""

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir

    def warm_up(self) -> None:
        """A small untimed pass, so lazy imports do not land in pass one."""

    def run_pass(self) -> Any:
        raise NotImplementedError

    def summarize(self, output: Any) -> PassResult:
        raise NotImplementedError

    def reference_checks(self, output: Any, result: PassResult) -> List[Check]:
        """Re-run sampled trials of the pass that gave ``output``/``result``."""
        raise NotImplementedError


class SweepWorkload(Workload):
    """One ``n``, several algorithms, uniform adversary, serial, ratio off."""

    algorithms: Tuple[str, ...] = ()
    n = 0

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self.factories = {a: algorithm_factory_for(a) for a in self.algorithms}

    def _sweep(self, n: int, trials: int, seed: int) -> Dict[str, Any]:
        return {
            name: sweep_adversary_batched(
                factory, [n], trials, master_seed=seed, engine=ENGINE
            )
            for name, factory in self.factories.items()
        }

    def warm_up(self) -> None:
        self._sweep(12, 2, self.seed + 1)

    def run_pass(self) -> Dict[str, Any]:
        return self._sweep(self.n, TRIALS, self.seed)

    def summarize(self, output: Dict[str, Any]) -> PassResult:
        rows = {
            name: [trial_row(m) for m in result.points[0].trials]
            for name, result in output.items()
        }
        return PassResult(trials=sum(map(len, rows.values())), rows=rows)

    def reference_checks(self, output: Any, result: PassResult) -> List[Check]:
        checks = []
        for name, factory in self.factories.items():
            trial = sampled_trial(self.seed, name, TRIALS)
            expected = trial_row(
                run_sweep_trial(
                    factory, self.n, trial, master_seed=self.seed,
                    engine="reference",
                )
            )
            checks.append(Check(name, trial, expected, result.rows[name][trial]))
        return checks


class SweepN480(SweepWorkload):
    """The paper's Section-4 sweep at north-star scale; the ratio layer idles."""

    name = "sweep-n480"
    algorithms = PAPER_ALGORITHMS
    n = 480


class KnowledgeN120(SweepWorkload):
    """Knowledge-based algorithms: whole-horizon prefixes and offline plans."""

    name = "knowledge-n120"
    algorithms = KNOWLEDGE_ALGORITHMS
    n = 120


class CampaignRatio(Workload):
    """``examples/campaign_paper.toml``'s grid, scaled up, into fresh stores.

    A pass runs ``campaigns`` campaigns with master seeds derived from the
    workload seed, each into a fresh store.  A campaign's cost follows the
    longest trial of its slowest cells, which varies between seeds; two
    per pass narrow that spread.
    """

    name = "campaign-ratio"
    ns = (80, 160)
    campaigns = 2
    workers = min(2, os.cpu_count() or 1)

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self.specs = [
            self._spec(self.ns, TRIALS, self.campaigns * seed + k)
            for k in range(self.campaigns)
        ]
        self.stores = 0

    @staticmethod
    def _spec(ns: Tuple[int, ...], trials: int, seed: int):
        return spec_from_dict(
            {
                "name": "bench-paper-grid",
                "algorithms": list(PAPER_ALGORITHMS),
                "adversaries": ["uniform", "zipf", "hub"],
                "ns": list(ns),
                "trials": trials,
                "master_seed": seed,
                "engine": ENGINE,
                "ratio": True,
                "adversary_params": {"zipf": {"exponent": 1.0}},
            }
        )

    def _fresh_store(self) -> Path:
        self.stores += 1
        return self.work_dir / f"store-{self.stores}"

    def warm_up(self) -> None:
        store_dir = self._fresh_store()
        run_campaign(self._spec((12,), 2, self.seed + 1), store_dir, workers=1)
        shutil.rmtree(store_dir)

    def run_pass(self) -> List[Path]:
        stores = []
        for spec in self.specs:
            stores.append(self._fresh_store())
            run_campaign(spec, stores[-1], workers=self.workers)
        return stores

    def summarize(self, stores: List[Path]) -> PassResult:
        rows = {}
        digests = {}
        written = 0
        for k, (spec, store_dir) in enumerate(zip(self.specs, stores)):
            store = CampaignStore(store_dir)
            for cell in spec.cells():
                rows[f"{k}/{cell.label()}"] = [
                    trial_row(m) for m in store.load_cell_metrics(cell.key)
                ]
            for key, entry in store.read_manifest()["cells"].items():
                digests[f"{k}/{key}"] = entry["digest"]
            written += sum(
                path.stat().st_size for path in store_dir.rglob("*") if path.is_file()
            )
            shutil.rmtree(store_dir)
        return PassResult(
            trials=sum(map(len, rows.values())),
            rows=rows,
            extra={"manifest_digests": digests},
            bytes_written=written,
        )

    def reference_checks(self, output: Any, result: PassResult) -> List[Check]:
        checks = []
        for k, spec in enumerate(self.specs):
            for cell in spec.cells():
                label = f"{k}/{cell.label()}"
                trial = sampled_trial(self.seed, label, spec.trials)
                expected = trial_row(
                    run_sweep_trial(
                        algorithm_factory_for(cell.algorithm),
                        cell.n,
                        trial,
                        master_seed=spec.master_seed,
                        experiment=spec.experiment,
                        engine="reference",
                        adversary=cell.adversary,
                        adversary_params=spec.params_for(cell.adversary) or None,
                        capture_opt=spec.ratio,
                    )
                )
                checks.append(Check(label, trial, expected, result.rows[label][trial]))
        return checks


class SearchN60(Workload):
    """Worst-case search: many 16-candidate batches over replayed schedules.

    A pass runs ``searches`` independent searches of the same shape, with
    seeds derived from the workload seed.  One search's cost follows the
    durations its pool converges to, which vary by about a quarter between
    seeds; two per pass narrow that spread.
    """

    name = "search-n60"
    searches = 2

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self.configs = [
            SearchConfig(
                algorithm="gathering", family="uniform", n=60, budget=384,
                seed=self.searches * seed + k,
            )
            for k in range(self.searches)
        ]
        for config in self.configs:
            config.validate()

    def warm_up(self) -> None:
        run_search(
            replace(self.configs[0], n=12, budget=24, initial_samples=8,
                    seed=self.seed + 1)
        )

    def run_pass(self) -> List[Any]:
        return [run_search(config) for config in self.configs]

    def summarize(self, outcomes: List[Any]) -> PassResult:
        return PassResult(
            trials=sum(int(outcome.evaluations) for outcome in outcomes),
            rows={
                f"pool-{k}": [trial_row(c.metrics) for c in outcome.pool]
                for k, outcome in enumerate(outcomes)
            },
            extra={
                f"search-{k}": {
                    "history": [repr(score) for score in outcome.history],
                    "lineage": [len(c.lineage) for c in outcome.pool],
                }
                for k, outcome in enumerate(outcomes)
            },
        )

    def reference_checks(self, output: Any, result: PassResult) -> List[Check]:
        checks = []
        for k, (config, outcome) in enumerate(zip(self.configs, output)):
            cell = f"pool-{k}"
            index = sampled_trial(self.seed, cell, len(outcome.pool))
            candidate = outcome.pool[index]
            reference = score_schedules(
                replace(config, engine="reference"),
                [candidate.schedule],
                [candidate.base_seed],
            )[0]
            checks.append(
                Check(cell, index, trial_row(reference), result.rows[cell][index])
            )
        return checks


WORKLOADS = {
    cls.name: cls for cls in (SweepN480, CampaignRatio, SearchN60, KnowledgeN120)
}
