"""Experiments E4–E6: possibility results under topological/future knowledge.

* Theorem 4 — with a recurrent sequence and knowledge of G-bar, the
  spanning-tree algorithm always terminates (finite cost), but its cost is
  unbounded: an adversary can insert arbitrarily many offline convergecasts
  while the algorithm waits for one specific tree edge.
* Theorem 5 — when G-bar is a tree, the spanning-tree algorithm is optimal
  (cost exactly 1).
* Theorem 6 — when each node knows its own future, the future-broadcast
  algorithm has cost at most n.
"""

from __future__ import annotations

import math
import random
from typing import List, Sequence

from ..adversaries.constructions import theorem4_delaying_sequence
from ..algorithms.future_broadcast import FutureBroadcast
from ..algorithms.spanning_tree import SpanningTreeAggregation
from ..core.cost import cost_of_result
from ..core.execution import Executor
from ..graph.generators import (
    random_tree,
    round_robin_sequence,
    sequence_with_footprint,
    uniform_random_sequence,
)
from ..knowledge import FutureKnowledge, KnowledgeBundle, UnderlyingGraphKnowledge
from ..sim.results import ExperimentReport, ResultTable
from ..sim.seeding import derive_seed


def run_theorem4(
    n: int = 8,
    delay_rounds: Sequence[int] = (5, 10, 20, 40),
) -> ExperimentReport:
    """E4 — Theorem 4: recurrent interactions give finite but unbounded cost."""
    table = ResultTable(
        title="Theorem 4: spanning-tree algorithm on a delayed cycle footprint",
        columns=["n", "delay_rounds", "terminated", "duration", "cost"],
    )
    costs: List[float] = []
    all_terminated = True
    for rounds in delay_rounds:
        nodes, sequence = theorem4_delaying_sequence(n, rounds)
        sink = 0
        knowledge = KnowledgeBundle(
            UnderlyingGraphKnowledge(nodes, sequence=sequence)
        )
        algorithm = SpanningTreeAggregation()
        executor = Executor(nodes, sink, algorithm, knowledge=knowledge)
        result = executor.run(sequence)
        breakdown = cost_of_result(result, sequence, nodes, sink)
        table.add_row(
            n=n,
            delay_rounds=rounds,
            terminated=result.terminated,
            duration=result.duration if result.terminated else math.inf,
            cost=breakdown.cost,
        )
        costs.append(breakdown.cost)
        all_terminated = all_terminated and result.terminated
    growing = all(
        later >= earlier for earlier, later in zip(costs, costs[1:])
    ) and costs[-1] > costs[0]
    finite = all(not math.isinf(cost) for cost in costs)
    return ExperimentReport(
        experiment_id="E4",
        claim="Theorem 4: with recurrent interactions and knowledge of G-bar "
        "the cost is finite but unbounded",
        tables=[table],
        verdict=all_terminated and finite and growing,
        details={"costs": costs},
    )


def run_theorem5(
    ns: Sequence[int] = (6, 10, 16),
    trees_per_n: int = 5,
    rounds: int = 12,
    master_seed: int = 0,
) -> ExperimentReport:
    """E5 — Theorem 5: on tree footprints the spanning-tree algorithm is optimal."""
    table = ResultTable(
        title="Theorem 5: spanning-tree algorithm on random tree footprints",
        columns=["n", "tree", "terminated", "duration", "opt_duration", "cost"],
    )
    all_optimal = True
    for n in ns:
        for index in range(trees_per_n):
            seed = derive_seed(master_seed, "theorem5", n, index)
            rng = random.Random(seed)
            tree = random_tree(n, rng=rng)
            sink = 0
            sequence = sequence_with_footprint(tree, rounds=rounds, rng=rng)
            nodes = list(range(n))
            knowledge = KnowledgeBundle(
                UnderlyingGraphKnowledge(nodes, edges=tree)
            )
            algorithm = SpanningTreeAggregation()
            executor = Executor(nodes, sink, algorithm, knowledge=knowledge)
            result = executor.run(sequence)
            breakdown = cost_of_result(result, sequence, nodes, sink)
            from ..offline.convergecast import opt as offline_opt

            optimum = offline_opt(sequence, nodes, sink, start=0)
            table.add_row(
                n=n,
                tree=index,
                terminated=result.terminated,
                duration=result.duration if result.terminated else math.inf,
                opt_duration=optimum + 1 if not math.isinf(optimum) else math.inf,
                cost=breakdown.cost,
            )
            # cost >= 1 exactly whenever finite, so "> 1.0" is "not optimal".
            if not result.terminated or breakdown.cost > 1.0:
                all_optimal = False
    return ExperimentReport(
        experiment_id="E5",
        claim="Theorem 5: when G-bar is a tree the spanning-tree algorithm "
        "achieves cost 1 (optimal)",
        tables=[table],
        verdict=all_optimal,
        details={"trees_per_n": trees_per_n, "rounds": rounds},
    )


def run_theorem6(
    ns: Sequence[int] = (6, 10, 16),
    trials_per_n: int = 4,
    master_seed: int = 0,
) -> ExperimentReport:
    """E6 — Theorem 6: knowing one's own future bounds the cost by n.

    The future-broadcast algorithm is run on recurrent deterministic
    sequences (round-robin over the complete graph) and on uniformly random
    sequences; in every case the measured cost must be at most n.
    """
    table = ResultTable(
        title="Theorem 6: future-broadcast algorithm, cost vs the bound n",
        columns=["n", "workload", "trial", "terminated", "duration", "cost", "bound_n"],
    )
    all_within_bound = True
    for n in ns:
        nodes = list(range(n))
        sink = 0
        workloads = {
            "round_robin": lambda seed: round_robin_sequence(nodes, rounds=3 * n),
            "uniform_random": lambda seed: uniform_random_sequence(
                nodes, length=12 * n * max(1, int(math.log(n)) + 1) * n, seed=seed
            ),
        }
        for workload_name, build in workloads.items():
            for trial in range(trials_per_n):
                seed = derive_seed(master_seed, "theorem6", n, workload_name, trial)
                sequence = build(seed)
                knowledge = KnowledgeBundle(FutureKnowledge(sequence))
                algorithm = FutureBroadcast()
                executor = Executor(nodes, sink, algorithm, knowledge=knowledge)
                result = executor.run(sequence)
                breakdown = cost_of_result(result, sequence, nodes, sink)
                table.add_row(
                    n=n,
                    workload=workload_name,
                    trial=trial,
                    terminated=result.terminated,
                    duration=result.duration if result.terminated else math.inf,
                    cost=breakdown.cost,
                    bound_n=n,
                )
                if not result.terminated or breakdown.cost > n:
                    all_within_bound = False
    return ExperimentReport(
        experiment_id="E6",
        claim="Theorem 6: with knowledge of one's own future the cost is at most n",
        tables=[table],
        verdict=all_within_bound,
        details={"trials_per_n": trials_per_n},
    )
