"""Differential tests: the fast engine must equal the reference executor.

The reference :class:`~repro.core.execution.Executor` is the semantics
oracle.  For every registered algorithm, several seeds, and every supported
interaction-source shape (committed finite sequence, lazy randomized
adversary, generic oblivious provider), :class:`~repro.core.fast_execution.
FastExecutor` must produce an identical :class:`ExecutionResult` — including
the transmission log, transmission for transmission.  (Sweep-level
determinism across engines and worker counts lives in
``tests/test_sweep_determinism.py``.)
"""

import math

import pytest

from repro.adversaries.base import EventuallyPeriodicAdversary
from repro.adversaries.randomized import RandomizedAdversary
from repro.algorithms.gathering import Gathering
from repro.algorithms.waiting import Waiting
from repro.algorithms.waiting_greedy import WaitingGreedy, optimal_tau
from repro.core.algorithm import registry
from repro.core.data import MAX, MIN
from repro.core.exceptions import ModelViolationError
from repro.core.execution import Executor
from repro.core.fast_execution import FastExecutor
from repro.core.interaction import InteractionSequence
from repro.sim.runner import (
    execute_random_trial,
    resolve_engine,
    run_random_trial,
)

SEEDS = (0, 1, 2, 3, 4)
N = 14


def make_algorithm(name: str, n: int):
    """Instantiate a registered algorithm with deterministic parameters."""
    kwargs = {}
    if name == "waiting_greedy":
        kwargs["tau"] = optimal_tau(n)
    elif name in ("coin_flip_gathering", "random_receiver"):
        kwargs["seed"] = 20_16
    return registry.create(name, **kwargs)


class TestEngineResolution:
    def test_known_engines(self):
        assert resolve_engine("reference") is Executor
        assert resolve_engine("fast") is FastExecutor

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            resolve_engine("warp")
        with pytest.raises(ValueError):
            run_random_trial(Gathering(), 8, seed=0, engine="warp")


class TestDifferentialRandomTrials:
    """Fast vs reference on the full randomized-adversary trial pipeline.

    ``execute_random_trial`` routes committed-knowledge algorithms through a
    finite sequence and the others through the lazy adversary, so iterating
    over the whole registry covers both source shapes.
    """

    @pytest.mark.parametrize("name", sorted(registry.names()))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_engines_agree(self, name, seed):
        reference, _ = execute_random_trial(
            make_algorithm(name, N), N, seed, engine="reference"
        )
        fast, _ = execute_random_trial(
            make_algorithm(name, N), N, seed, engine="fast"
        )
        assert fast == reference

    def test_engines_agree_on_metrics(self):
        for seed in SEEDS:
            reference = run_random_trial(Gathering(), N, seed, engine="reference")
            fast = run_random_trial(Gathering(), N, seed, engine="fast")
            assert fast == reference


class TestDifferentialSources:
    def test_committed_sequence_source(self):
        for seed in SEEDS:
            adversary = RandomizedAdversary(list(range(10)), seed=seed)
            sequence = adversary.committed_prefix(600)
            reference = Executor(list(range(10)), 0, Gathering()).run(sequence)
            fast = FastExecutor(list(range(10)), 0, Gathering()).run(sequence)
            assert fast == reference

    def test_lazy_adversary_source(self):
        for seed in SEEDS:
            nodes = list(range(10))
            reference = Executor(nodes, 0, Waiting()).run(
                RandomizedAdversary(nodes, seed=seed), max_interactions=4000
            )
            fast = FastExecutor(nodes, 0, Waiting()).run(
                RandomizedAdversary(nodes, seed=seed), max_interactions=4000
            )
            assert fast == reference

    def test_generic_provider_source(self):
        adversary = lambda: EventuallyPeriodicAdversary(
            prefix=[(1, 2), (3, 4)], cycle=[(2, 3), (1, 0), (2, 0), (4, 0), (3, 0)]
        )
        nodes = list(range(5))
        reference = Executor(nodes, 0, Gathering()).run(
            adversary(), max_interactions=50
        )
        fast = FastExecutor(nodes, 0, Gathering()).run(
            adversary(), max_interactions=50
        )
        assert fast == reference

    def test_exhausted_finite_provider(self):
        # A provider that runs dry before the horizon: interactions_used and
        # remaining_owners must match the reference exactly.
        sequence = InteractionSequence.from_pairs([(1, 2), (3, 4)])
        nodes = list(range(5))
        reference = Executor(nodes, 0, Waiting()).run(sequence, max_interactions=100)
        fast = FastExecutor(nodes, 0, Waiting()).run(sequence, max_interactions=100)
        assert fast == reference
        assert not fast.terminated
        assert fast.remaining_owners == reference.remaining_owners

    def test_non_default_aggregation_and_payloads(self):
        sequence = InteractionSequence.from_pairs([(2, 1), (1, 0), (3, 0)])
        nodes = [0, 1, 2, 3]
        payloads = {0: 5.0, 1: -2.0, 2: 7.5, 3: 0.25}
        for aggregation in (MIN, MAX):
            reference = Executor(nodes, 0, Gathering(), aggregation=aggregation).run(
                sequence, initial_payloads=payloads
            )
            fast = FastExecutor(nodes, 0, Gathering(), aggregation=aggregation).run(
                sequence, initial_payloads=payloads
            )
            assert fast == reference
            assert fast.sink_payload == reference.sink_payload


class TestFastEngineModelEnforcement:
    def test_sink_sender_rejected(self):
        class SinkSender(Gathering):
            name = "gathering"

            def decide(self, first, second, time):
                # Receiver is whichever node is NOT the sink: sink must send.
                return second.id if first.is_sink else first.id

        sequence = InteractionSequence.from_pairs([(0, 1)])
        with pytest.raises(ModelViolationError):
            FastExecutor([0, 1], 0, SinkSender()).run(sequence)

    def test_foreign_receiver_rejected(self):
        class Outsider(Gathering):
            name = "gathering"

            def decide(self, first, second, time):
                return 99

        sequence = InteractionSequence.from_pairs([(1, 2)])
        with pytest.raises(ModelViolationError):
            FastExecutor([0, 1, 2], 0, Outsider()).run(sequence)

    def test_constructor_validations_match_reference(self):
        sequence = InteractionSequence.from_pairs([(0, 1)])
        with pytest.raises(ModelViolationError):
            FastExecutor([0, 1], 9, Gathering()).run(sequence)
        with pytest.raises(ModelViolationError):
            FastExecutor([0], 0, Gathering()).run(sequence)


class TestAdversaryBatching:
    def test_draw_block_matches_committed_stream(self):
        a = RandomizedAdversary(list(range(6)), seed=42)
        b = RandomizedAdversary(list(range(6)), seed=42)
        prefix = a.committed_prefix(100)
        # Query pattern must not matter: b is grown by oracle queries.
        b.next_meeting(1, 2, after=0)
        assert b.committed_prefix(100) == prefix

    def test_committed_index_block_truncates_at_horizon(self):
        adversary = RandomizedAdversary([0, 1, 2], seed=1, max_horizon=10)
        i, j = adversary.committed_index_block(0, 50)
        assert len(i) == len(j) == 10
        i, j = adversary.committed_index_block(10, 50)
        assert len(i) == 0

    def test_duration_independent_of_commit_pattern(self):
        # Growing the committed future through meetTime oracle queries must
        # not change what the executor replays.
        n, seed = 12, 9
        metrics_lazy = run_random_trial(
            WaitingGreedy(tau=optimal_tau(n)), n, seed, engine="fast"
        )
        metrics_reference = run_random_trial(
            WaitingGreedy(tau=optimal_tau(n)), n, seed, engine="reference"
        )
        assert metrics_lazy == metrics_reference
        assert metrics_lazy.terminated
        assert not math.isinf(metrics_lazy.duration)

    def test_draw_block_commits_its_draws(self):
        # A direct draw_block call must never desynchronise the RNG stream
        # from the committed future: what it returns is what gets replayed.
        adversary = RandomizedAdversary(list(range(5)), seed=3)
        i, j = adversary.draw_block(7)
        assert adversary.committed_length == 7
        replay = adversary.committed_prefix(7)
        for t in range(7):
            assert replay[t].pair == frozenset(
                (adversary.nodes()[int(i[t])], adversary.nodes()[int(j[t])])
            )
        # Oracle answers stay consistent with the committed prefix.
        t = adversary.next_meeting(0, 1, after=-1)
        if t is not None and t < 7:
            assert replay[t].pair == frozenset((0, 1))
