"""Differential and unit tests for the trial-vectorized engine.

The contract under test: :class:`~repro.core.vector_execution.
VectorizedExecutor` is **exactly** interchangeable with the reference
executor — same :class:`~repro.core.execution.ExecutionResult` including
the transmission log, seed for seed — for **every registered algorithm**
(all of which now carry decision kernels) under every committed adversary
family (uniform / zipf / hub / waypoint / community / trace replay).  The
few shapes no kernel can mirror (adaptive providers, mis-shaped oracles,
``enforce_oblivious`` runs, shared RNG instances) fall back to the
reference engine — exactly, and *observably*: every fallback carries a
reason in ``VectorizedExecutor.last_fallbacks`` and batched sweep cells
warn.
"""

import warnings

import numpy as np
import pytest

from repro.adversaries import TraceReplayAdversary, make_adversary
from repro.adversaries.base import EventuallyPeriodicAdversary
from repro.adversaries.committed import CommittedBlockAdversary
from repro.adversaries.randomized import RandomizedAdversary
from repro.algorithms.gathering import Gathering
from repro.algorithms.kernels import KERNELS, get_kernel
from repro.algorithms.waiting import Waiting
from repro.algorithms.waiting_greedy import WaitingGreedy, optimal_tau
from repro.core.algorithm import registry
from repro.core.data import MAX, MIN
from repro.core.execution import Executor
from repro.core.exceptions import ConfigurationError, ModelViolationError
from repro.core.interaction import InteractionSequence
from repro.core.vector_execution import (
    BatchTrial,
    EngineFallbackWarning,
    VectorizedExecutor,
)
from repro.graph.traces import VehicularGridTrace
from repro.sim.batch import run_sweep_cell
from repro.sim.runner import (
    ENGINES,
    build_knowledge_for_random_run,
    build_trial_adversary,
    default_horizon,
    execute_random_trial,
    resolve_engine,
    run_random_trial,
    run_sweep_trial,
)

FAMILIES = ("uniform", "zipf", "hub", "waypoint", "community")
#: Algorithms with a registered decision kernel — every registered
#: algorithm, since PR 7 closed the spanning_tree / full_knowledge /
#: future_broadcast gap.
KERNELIZED = sorted(KERNELS)
#: The algorithms whose kernels were the last to land (the knowledge-heavy
#: trio) — called out separately for the zero-fallback acceptance tests.
KNOWLEDGE_HEAVY = ("spanning_tree", "full_knowledge", "future_broadcast")


def make_algorithm(name: str, n: int):
    kwargs = {}
    if name == "waiting_greedy":
        kwargs["tau"] = optimal_tau(n)
    elif name in ("coin_flip_gathering", "random_receiver"):
        kwargs["seed"] = 20_16
    return registry.create(name, **kwargs)


def run_engine(engine_cls, name, n, seed, sink=0, family="uniform",
               block_size=None):
    """One committed-adversary trial through an explicit engine class."""
    algorithm = make_algorithm(name, n)
    nodes = list(range(n))
    horizon = default_horizon(algorithm, n)
    adversary = build_trial_adversary(family, nodes, seed, horizon, sink, None)
    knowledge, committed = build_knowledge_for_random_run(
        algorithm, adversary, nodes, sink, horizon
    )
    source = committed if committed is not None else adversary
    kwargs = {} if block_size is None else {"block_size": block_size}
    executor = engine_cls(nodes, sink, algorithm, knowledge=knowledge, **kwargs)
    return executor.run(source, max_interactions=horizon)


class TestEngineResolution:
    def test_known_engines(self):
        assert set(ENGINES) == {"reference", "vectorized"}
        assert resolve_engine("reference") is Executor
        assert resolve_engine("vectorized") is VectorizedExecutor

    @pytest.mark.parametrize("engine", ("warp", "fast"))
    def test_unknown_engine_rejected(self, engine):
        with pytest.raises(ValueError):
            resolve_engine(engine)
        with pytest.raises(ValueError):
            run_random_trial(Gathering(), 8, seed=0, engine=engine)


class TestDifferentialRandomTrials:
    """Vectorized vs reference on the full randomized-adversary pipeline.

    ``execute_random_trial`` routes committed-knowledge algorithms through a
    finite sequence and the others through the lazy adversary, so iterating
    over the whole registry covers both source shapes.
    """

    @pytest.mark.parametrize("name", sorted(registry.names()))
    @pytest.mark.parametrize("seed", (0, 1, 2, 3, 4))
    def test_engines_agree(self, name, seed):
        reference, _ = execute_random_trial(
            make_algorithm(name, 14), 14, seed, engine="reference"
        )
        vectorized, _ = execute_random_trial(
            make_algorithm(name, 14), 14, seed, engine="vectorized"
        )
        assert vectorized == reference

    def test_engines_agree_on_metrics(self):
        for seed in (0, 1, 2, 3, 4):
            reference = run_random_trial(Gathering(), 14, seed, engine="reference")
            vectorized = run_random_trial(
                Gathering(), 14, seed, engine="vectorized"
            )
            assert vectorized == reference


class TestDifferentialSources:
    """Every interaction-source shape, kernel path and fallback alike."""

    def test_committed_sequence_source(self):
        for seed in (0, 1, 2, 3, 4):
            adversary = RandomizedAdversary(list(range(10)), seed=seed)
            sequence = adversary.committed_prefix(600)
            reference = Executor(list(range(10)), 0, Gathering()).run(sequence)
            vectorized = VectorizedExecutor(
                list(range(10)), 0, Gathering()
            ).run(sequence)
            assert vectorized == reference

    def test_committed_prefix_equals_the_plain_sequence(self):
        adversary = RandomizedAdversary(list(range(10)), seed=3)
        prefix = adversary.committed_prefix(300)
        plain = InteractionSequence.from_pairs(
            [(item.u, item.v) for item in prefix]
        )
        assert prefix == plain
        i, j = prefix.index_pairs
        assert [
            {prefix.index_nodes[a], prefix.index_nodes[b]}
            for a, b in zip(i.tolist(), j.tolist())
        ] == [{item.u, item.v} for item in plain]

    @pytest.mark.parametrize(
        "executor_nodes",
        [list(range(9, -1, -1)), list(range(12))],
        ids=["reordered", "superset"],
    )
    def test_committed_prefix_under_another_node_order(self, executor_nodes):
        # The prefix's dense indices are translated into the executor's
        # order: no fallback, and the reference result exactly.
        for seed in (0, 1, 2):
            sequence = RandomizedAdversary(
                list(range(10)), seed=seed
            ).committed_prefix(900)
            reference = Executor(executor_nodes, 0, Gathering()).run(sequence)
            executor = VectorizedExecutor(executor_nodes, 0, Gathering())
            assert executor.run(sequence) == reference
            assert executor.last_fallback_reasons == ()

    def test_committed_prefix_with_foreign_node_falls_back(self):
        sequence = RandomizedAdversary(list(range(6)), seed=0).committed_prefix(
            200
        )
        nodes = list(range(5))

        def run(engine_cls):
            executor = engine_cls(nodes, 0, Gathering())
            try:
                return executor, ("ok", executor.run(sequence))
            except Exception as exc:
                return executor, ("error", type(exc).__name__)

        vec_executor, vectorized = run(VectorizedExecutor)
        assert vectorized == run(Executor)[1]
        assert vec_executor.last_fallback_reasons == (
            "interaction sequence mentions nodes outside the executor's "
            "node set",
        )

    def test_lazy_adversary_source(self):
        nodes = list(range(10))
        for seed in (0, 1, 2, 3, 4):
            reference = Executor(nodes, 0, Waiting()).run(
                RandomizedAdversary(nodes, seed=seed), max_interactions=4000
            )
            vectorized = VectorizedExecutor(nodes, 0, Waiting()).run(
                RandomizedAdversary(nodes, seed=seed), max_interactions=4000
            )
            assert vectorized == reference

    def test_generic_provider_source(self):
        adversary = lambda: EventuallyPeriodicAdversary(
            prefix=[(1, 2), (3, 4)], cycle=[(2, 3), (1, 0), (2, 0), (4, 0), (3, 0)]
        )
        nodes = list(range(5))
        reference = Executor(nodes, 0, Gathering()).run(
            adversary(), max_interactions=50
        )
        executor = VectorizedExecutor(nodes, 0, Gathering())
        vectorized = executor.run(adversary(), max_interactions=50)
        assert vectorized == reference
        (reason,) = executor.last_fallback_reasons
        assert "adaptive / non-committed" in reason

    def test_exhausted_finite_provider(self):
        # A source that runs dry before the horizon: interactions_used and
        # remaining_owners must match the reference exactly.
        sequence = InteractionSequence.from_pairs([(1, 2), (3, 4)])
        nodes = list(range(5))
        reference = Executor(nodes, 0, Waiting()).run(sequence, max_interactions=100)
        vectorized = VectorizedExecutor(nodes, 0, Waiting()).run(
            sequence, max_interactions=100
        )
        assert vectorized == reference
        assert not vectorized.terminated
        assert vectorized.remaining_owners == reference.remaining_owners

    def test_non_default_aggregation_and_payloads(self):
        sequence = InteractionSequence.from_pairs([(2, 1), (1, 0), (3, 0)])
        nodes = [0, 1, 2, 3]
        payloads = {0: 5.0, 1: -2.0, 2: 7.5, 3: 0.25}
        for aggregation in (MIN, MAX):
            for algorithm_cls in (Gathering, _UnregisteredGathering):
                # The unregistered clone takes the reference fallback, which
                # must thread the aggregation and payloads through too.
                reference = Executor(
                    nodes, 0, algorithm_cls(), aggregation=aggregation
                ).run(sequence, initial_payloads=payloads)
                vectorized = VectorizedExecutor(
                    nodes, 0, algorithm_cls(), aggregation=aggregation
                ).run(sequence, initial_payloads=payloads)
                assert vectorized == reference
                assert vectorized.sink_payload == reference.sink_payload


class TestModelEnforcement:
    """Model violations raise on the vectorized engine as on the reference.

    The probes carry names that own no kernel, so they run their own
    ``decide`` on the reference fallback.
    """

    def test_sink_sender_rejected(self):
        class SinkSender(Gathering):
            name = "sink_sender_probe"

            def decide(self, first, second, time):
                # Receiver is whichever node is NOT the sink: sink must send.
                return second.id if first.is_sink else first.id

        sequence = InteractionSequence.from_pairs([(0, 1)])
        with pytest.raises(ModelViolationError):
            VectorizedExecutor([0, 1], 0, SinkSender()).run(sequence)

    def test_foreign_receiver_rejected(self):
        class Outsider(Gathering):
            name = "outsider_probe"

            def decide(self, first, second, time):
                return 99

        sequence = InteractionSequence.from_pairs([(1, 2)])
        with pytest.raises(ModelViolationError):
            VectorizedExecutor([0, 1, 2], 0, Outsider()).run(sequence)

    def test_constructor_validations_match_reference(self):
        sequence = InteractionSequence.from_pairs([(0, 1)])
        with pytest.raises(ModelViolationError):
            VectorizedExecutor([0, 1], 9, Gathering()).run(sequence)
        with pytest.raises(ModelViolationError):
            VectorizedExecutor([0], 0, Gathering()).run(sequence)


class TestKernelRegistry:
    def test_every_registered_algorithm_has_a_kernel(self):
        for name in registry.names():
            assert get_kernel(name) is not None, name

    def test_unknown_algorithm_raises_listing_registered_kernels(self):
        with pytest.raises(KeyError) as excinfo:
            get_kernel("no_such_algorithm")
        message = str(excinfo.value)
        assert "no_such_algorithm" in message
        for name in KERNELS:
            assert name in message, name


class TestKernelVsObjectDifferential:
    """Kernel decisions == object decisions, end to end, per family."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("name", KERNELIZED)
    def test_kernel_matches_object_form(self, family, name):
        for seed in (0, 1, 2):
            reference = run_engine(Executor, name, 13, seed, family=family)
            vectorized = run_engine(
                VectorizedExecutor, name, 13, seed, family=family
            )
            assert vectorized == reference, (family, name, seed)

    @pytest.mark.parametrize("name", KERNELIZED)
    def test_trace_replay_family(self, name):
        trace = VehicularGridTrace(
            vehicle_count=9, grid_size=4, steps=400, seed=3
        ).build()
        nodes = list(trace.nodes)

        def run(engine_cls):
            algorithm = make_algorithm(name, len(nodes))
            adversary = TraceReplayAdversary(trace)
            # The standard sim-layer oracle assembly works for any committed
            # adversary, trace replay included.
            knowledge, committed = build_knowledge_for_random_run(
                algorithm, adversary, nodes, trace.sink, trace.length
            )
            source = committed if committed is not None else adversary
            return engine_cls(
                nodes, trace.sink, algorithm, knowledge=knowledge
            ).run(source, max_interactions=trace.length)

        assert run(VectorizedExecutor) == run(Executor)

    @pytest.mark.parametrize("name", ("gathering", "waiting"))
    def test_non_default_sink_and_shapes(self, name):
        for n, sink in ((5, 2), (9, 8), (17, 4)):
            reference = run_engine(Executor, name, n, seed=7, sink=sink)
            vectorized = run_engine(VectorizedExecutor, name, n, seed=7, sink=sink)
            assert vectorized == reference, (name, n, sink)

    def test_sequence_source(self):
        """Finite committed sequences run through the kernel path too."""
        nodes = list(range(10))
        adversary = make_adversary("uniform", nodes, seed=5, sink=0)
        sequence = adversary.committed_prefix(600)
        for algorithm_cls in (Gathering, Waiting):
            reference = Executor(nodes, 0, algorithm_cls()).run(sequence)
            vectorized = VectorizedExecutor(nodes, 0, algorithm_cls()).run(sequence)
            assert vectorized == reference, algorithm_cls

    def test_initial_payloads_and_aggregation(self):
        nodes = list(range(8))
        adversary = make_adversary("uniform", nodes, seed=9, sink=0)
        sequence = adversary.committed_prefix(400)
        payloads = {node: float(node) * 1.5 for node in nodes}
        reference = Executor(nodes, 0, Gathering(), aggregation=MAX).run(
            sequence, initial_payloads=payloads
        )
        vectorized = VectorizedExecutor(nodes, 0, Gathering(), aggregation=MAX).run(
            sequence, initial_payloads=payloads
        )
        assert vectorized == reference
        assert vectorized.sink_payload == max(payloads.values())

    @pytest.mark.parametrize("block_size", (64, 1000, 4096, 1 << 17))
    def test_block_size_independence(self, block_size):
        """Block boundaries are consumption windows, never semantics."""
        for name in ("gathering", "waiting", "waiting_greedy"):
            reference = run_engine(Executor, name, 14, seed=3)
            vectorized = run_engine(
                VectorizedExecutor, name, 14, seed=3, block_size=block_size
            )
            assert vectorized == reference, (name, block_size)

    def test_invalid_block_size_rejected(self):
        with pytest.raises(ConfigurationError):
            VectorizedExecutor(list(range(4)), 0, Gathering(), block_size=0)

    def test_unbounded_provider_requires_horizon(self):
        adversary = make_adversary("uniform", list(range(6)), seed=0, sink=0)
        with pytest.raises(ConfigurationError):
            VectorizedExecutor(list(range(6)), 0, Gathering()).run(adversary)


class _UnregisteredGathering(Gathering):
    """A behavioural clone of Gathering whose name owns no kernel."""

    name = "unregistered_probe"


class TestFallback:
    """The few trial shapes the kernels cannot mirror run through the
    reference engine — exactly, and with an observable per-trial reason."""

    def test_unregistered_algorithm_falls_back_with_reason(self):
        nodes = list(range(10))
        horizon = default_horizon(Gathering(), 10)

        def run(engine_cls):
            adversary = build_trial_adversary(
                "uniform", nodes, 1, horizon, 0, None
            )
            executor = engine_cls(nodes, 0, _UnregisteredGathering())
            return executor, executor.run(adversary, max_interactions=horizon)

        executor, vectorized = run(VectorizedExecutor)
        _, reference = run(Executor)
        assert vectorized == reference
        assert executor.last_fallback_count == 1
        (reason,) = executor.last_fallback_reasons
        assert "unregistered_probe" in reason
        assert "registered kernels" in reason
        # The catalog in the reason names every actual kernel.
        for name in KERNELS:
            assert name in reason, name

    def test_mismatched_oracle_sink_falls_back(self):
        """A meetTime oracle about a *different* sink cannot be mirrored."""
        from repro.knowledge import KnowledgeBundle, MeetTimeKnowledge

        nodes = list(range(12))
        for seed in range(4):
            def run(engine_cls):
                adversary = make_adversary("uniform", nodes, seed=seed, sink=0)
                knowledge = KnowledgeBundle(
                    MeetTimeKnowledge(adversary, 3, horizon=600, strict=False)
                )
                executor = engine_cls(
                    nodes, 0, WaitingGreedy(tau=50), knowledge=knowledge
                )
                return executor, executor.run(adversary, max_interactions=600)

            vec_executor, vectorized = run(VectorizedExecutor)
            _, reference = run(Executor)
            assert vectorized == reference, seed
            # The kernel's rejection message survives into the report.
            (reason,) = vec_executor.last_fallback_reasons
            assert reason.startswith("kernel precondition failed:"), reason
            assert "different sink" in reason

    def test_adversary_node_mismatch_reports_reason(self):
        """An adversary naming nodes outside the executor's set routes to
        the fallback with a reason, then behaves exactly like the reference
        engine (crash or survive)."""
        executor_nodes = [0, 1, 2, 3]

        def run(engine_cls):
            adversary = make_adversary(
                "uniform", [0, 1, 2, 3, 4], seed=0, sink=0
            )
            executor = engine_cls(executor_nodes, 0, Gathering())
            try:
                return executor, ("ok", executor.run(
                    adversary, max_interactions=200
                ))
            except Exception as exc:
                return executor, ("error", type(exc).__name__)

        vec_executor, vectorized = run(VectorizedExecutor)
        _, reference = run(Executor)
        assert vectorized == reference
        assert vec_executor.last_fallback_reasons == (
            "adversary node set is not a subset of the executor's node set",
        )

    def test_sequence_with_foreign_node_falls_back(self):
        """A sequence naming nodes outside the instance must behave like the
        reference engine (which only fails if the run reaches it)."""
        sequence = InteractionSequence.from_pairs([(0, 1), (0, 2), (0, 99)])
        nodes = [0, 1, 2]
        reference = Executor(nodes, 0, Gathering()).run(sequence)
        executor = VectorizedExecutor(nodes, 0, Gathering())
        vectorized = executor.run(sequence)
        assert vectorized == reference
        assert vectorized.terminated
        assert executor.last_fallback_reasons == (
            "interaction sequence mentions nodes outside the executor's "
            "node set",
        )

    def test_adaptive_provider_falls_back(self):
        from repro.adversaries.constructions import Theorem1Adversary

        nodes = ["a", "b", "s"]
        reference = Executor(nodes, "s", Gathering()).run(
            Theorem1Adversary(), max_interactions=500
        )
        executor = VectorizedExecutor(nodes, "s", Gathering())
        vectorized = executor.run(Theorem1Adversary(), max_interactions=500)
        assert vectorized == reference
        (reason,) = executor.last_fallback_reasons
        assert "adaptive" in reason

    def test_unorderable_identifiers_fall_back(self):
        """Mixed identifier types have no canonical order for the kernels'
        rank arrays; the reference engine orders such pairs by repr."""
        nodes = ["s", 1, 2.5, "b", 3]
        sequence = InteractionSequence.from_pairs(
            [(1, "b"), (2.5, 3), ("b", "s"), (3, "s"), (1, 2.5), (1, "s")]
        )
        reference = Executor(nodes, "s", Gathering()).run(sequence)
        executor = VectorizedExecutor(nodes, "s", Gathering())
        vectorized = executor.run(sequence)
        assert vectorized == reference
        assert vectorized.transmission_count >= 3
        assert executor.last_fallback_reasons == (
            "node identifiers have no canonical total order",
        )

    def test_enforce_oblivious_falls_back(self):
        result = run_engine(Executor, "gathering", 10, seed=2)
        nodes = list(range(10))
        adversary = build_trial_adversary(
            "uniform", nodes, 2, default_horizon(Gathering(), 10), 0, None
        )
        executor = VectorizedExecutor(
            nodes, 0, Gathering(), enforce_oblivious=True
        )
        vectorized = executor.run(
            adversary, max_interactions=default_horizon(Gathering(), 10)
        )
        assert vectorized == result
        (reason,) = executor.last_fallback_reasons
        assert "enforce_oblivious" in reason

    def test_shared_rng_algorithm_instance_falls_back(self):
        """One RNG-bearing instance shared by several trials must not enter
        the lockstep: interleaving rows would consume the shared stream in
        a different order than sequential per-trial execution."""
        from repro.algorithms.random_baseline import RandomReceiver

        n, sink = 14, 0
        nodes = list(range(n))
        horizon = default_horizon(RandomReceiver(), n)

        def batch(algorithm):
            trials = []
            for seed in (3, 4, 5):
                adversary = build_trial_adversary(
                    "uniform", nodes, seed, horizon, sink, None
                )
                trials.append(
                    BatchTrial(source=adversary, max_interactions=horizon)
                )
            return trials

        # Sequential per-trial execution on the reference engine, one
        # shared instance consuming one stream in batch order.
        shared_reference = RandomReceiver(seed=99)
        executor = Executor(nodes, sink, shared_reference)
        expected = [
            executor.run(trial.source, max_interactions=trial.max_interactions)
            for trial in batch(shared_reference)
        ]
        shared_vec = RandomReceiver(seed=99)
        executor = VectorizedExecutor(nodes, sink, shared_vec)
        actual = executor.run_many(batch(shared_vec))
        assert actual == expected
        assert executor.last_fallback_count == 3
        for reason in executor.last_fallback_reasons:
            assert "shared across 3 trials" in reason
        # Distinct per-trial instances do take the kernel path and agree too.
        per_trial_reference = [
            Executor(nodes, sink, RandomReceiver(seed=seed)).run(
                build_trial_adversary(
                    "uniform", nodes, seed, horizon, sink, None
                ),
                max_interactions=horizon,
            )
            for seed in (3, 4, 5)
        ]
        per_trial_vec = [
            BatchTrial(
                source=build_trial_adversary(
                    "uniform", nodes, seed, horizon, sink, None
                ),
                max_interactions=horizon,
                algorithm=RandomReceiver(seed=seed),
            )
            for seed in (3, 4, 5)
        ]
        assert (
            VectorizedExecutor(nodes, sink, RandomReceiver(seed=0)).run_many(
                per_trial_vec
            )
            == per_trial_reference
        )

    def test_mixed_batch_preserves_order(self):
        """Heterogeneous algorithms interleave in one batch — and, now that
        every algorithm has a kernel, all of them take the lockstep."""
        n, sink = 11, 0
        nodes = list(range(n))
        names = ["gathering", "spanning_tree", "waiting", "full_knowledge"]
        trials = []
        expected = []
        for position, name in enumerate(names):
            algorithm = make_algorithm(name, n)
            horizon = default_horizon(algorithm, n)
            adversary = build_trial_adversary(
                "uniform", nodes, 40 + position, horizon, sink, None
            )
            knowledge, committed = build_knowledge_for_random_run(
                algorithm, adversary, nodes, sink, horizon
            )
            source = committed if committed is not None else adversary
            trials.append(
                BatchTrial(
                    source=source,
                    max_interactions=horizon,
                    algorithm=algorithm,
                    knowledge=knowledge,
                )
            )
            algorithm2 = make_algorithm(name, n)
            adversary2 = build_trial_adversary(
                "uniform", nodes, 40 + position, horizon, sink, None
            )
            knowledge2, committed2 = build_knowledge_for_random_run(
                algorithm2, adversary2, nodes, sink, horizon
            )
            source2 = committed2 if committed2 is not None else adversary2
            expected.append(
                Executor(nodes, sink, algorithm2, knowledge=knowledge2).run(
                    source2, max_interactions=horizon
                )
            )
        executor = VectorizedExecutor(nodes, sink, make_algorithm("gathering", n))
        assert executor.run_many(trials) == expected
        assert executor.last_fallback_count == 0


class TestFallbackReporting:
    """The silent-downgrade bugfix: batched cells surface every fallback."""

    def test_cell_with_fallbacks_warns_and_tags_metrics(self, monkeypatch):
        """A pre-fix fallback cell (kernel artificially removed) now reports:
        one warning per cell, and a reason tag on every affected trial."""
        from repro.algorithms import kernels as kernels_module

        monkeypatch.delitem(kernels_module.KERNELS, "spanning_tree")
        factory = lambda n: make_algorithm("spanning_tree", n)
        with pytest.warns(
            EngineFallbackWarning,
            match=r"fell back to the reference engine for 4 of 4 trials",
        ):
            metrics = run_sweep_cell(
                factory, 10, 4, master_seed=3, engine="vectorized"
            )
        assert len(metrics) == 4
        for trial_metrics in metrics:
            reason = trial_metrics.extra["engine_fallback"]
            assert "spanning_tree" in reason
            assert "registered kernels" in reason

    @pytest.mark.parametrize("name", KNOWLEDGE_HEAVY)
    def test_newly_kerneled_cells_run_with_zero_fallbacks(self, name):
        """Acceptance: the knowledge-heavy trio runs trial-vectorized with
        fallback_count == 0 on the default sweep, metric-identical to the
        reference engine, without warnings or metric tags."""
        factory = lambda n: make_algorithm(name, n)
        with warnings.catch_warnings():
            warnings.simplefilter("error", EngineFallbackWarning)
            metrics = run_sweep_cell(
                factory, 12, 5, master_seed=7, engine="vectorized"
            )
        assert all(
            "engine_fallback" not in trial_metrics.extra
            for trial_metrics in metrics
        )
        reference = run_sweep_cell(
            factory, 12, 5, master_seed=7, engine="reference"
        )
        assert metrics == reference

    @pytest.mark.parametrize("name", KNOWLEDGE_HEAVY)
    def test_zero_fallbacks_at_executor_level(self, name):
        """The executor's own counter agrees: no trial left the lockstep."""
        algorithm = make_algorithm(name, 12)
        nodes = list(range(12))
        horizon = default_horizon(algorithm, 12)
        adversary = build_trial_adversary("uniform", nodes, 0, horizon, 0, None)
        knowledge, committed = build_knowledge_for_random_run(
            algorithm, adversary, nodes, 0, horizon
        )
        source = committed if committed is not None else adversary
        executor = VectorizedExecutor(nodes, 0, algorithm, knowledge=knowledge)
        executor.run(source, max_interactions=horizon)
        assert executor.last_fallback_count == 0
        assert executor.last_fallback_reasons == ()

    def test_reference_engine_cells_report_nothing(self):
        """Fallback telemetry is a vectorized-engine concept; reference
        cells carry no tags."""
        factory = lambda n: make_algorithm("spanning_tree", n)
        metrics = run_sweep_cell(
            factory, 10, 3, master_seed=1, engine="reference"
        )
        assert all(
            "engine_fallback" not in trial_metrics.extra
            for trial_metrics in metrics
        )


class TestCommittedIndexMatrix:
    def test_stacks_blocks_with_padding(self):
        nodes = list(range(6))
        long = make_adversary("uniform", nodes, seed=1, sink=0)
        trace = VehicularGridTrace(
            vehicle_count=6, grid_size=3, steps=10, seed=2
        ).build()
        short = TraceReplayAdversary(trace, nodes=list(trace.nodes))
        matrix_i, matrix_j, lengths = (
            CommittedBlockAdversary.committed_index_matrix(
                [long, short], 0, max(40, short.trace_length + 5)
            )
        )
        assert matrix_i.shape == matrix_j.shape
        assert matrix_i.shape[0] == 2
        assert lengths[0] == matrix_i.shape[1]
        assert lengths[1] == short.trace_length
        # Padding beyond a short row is the pad value, valid cells are not.
        assert (matrix_i[1, int(lengths[1]):] == -1).all()
        expected_i, expected_j = long.committed_index_block(0, int(lengths[0]))
        assert (matrix_i[0] == expected_i).all()
        assert (matrix_j[0] == expected_j).all()

    def test_per_row_stops(self):
        nodes = list(range(5))
        adversaries = [
            make_adversary("uniform", nodes, seed=s, sink=0) for s in (1, 2, 3)
        ]
        matrix_i, _, lengths = CommittedBlockAdversary.committed_index_matrix(
            adversaries, 10, [30, 10, 25]
        )
        assert list(lengths) == [20, 0, 15]
        assert matrix_i.shape[1] == 20

    def test_stop_count_mismatch_rejected(self):
        nodes = list(range(4))
        adversaries = [make_adversary("uniform", nodes, seed=1, sink=0)]
        with pytest.raises(ConfigurationError):
            CommittedBlockAdversary.committed_index_matrix(
                adversaries, 0, [10, 20]
            )


class TestSweepPaths:
    """The sim layer routes engine='vectorized' everywhere."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_run_sweep_cell_matches_reference(self, family):
        factory = lambda n: Waiting()
        cell = run_sweep_cell(
            factory, 12, 4, master_seed=11, engine="vectorized",
            adversary=family,
        )
        assert cell == [
            run_sweep_trial(
                factory, 12, trial, master_seed=11, engine="reference",
                adversary=family,
            )
            for trial in range(4)
        ]

    def test_block_size_threads_through_cell(self):
        factory = lambda n: Gathering()
        default = run_sweep_cell(
            factory, 10, 3, master_seed=1, engine="vectorized"
        )
        tuned = run_sweep_cell(
            factory, 10, 3, master_seed=1, engine="vectorized", block_size=128
        )
        assert tuned == default
