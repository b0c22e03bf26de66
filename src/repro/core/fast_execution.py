"""A fast drop-in execution engine for DODA algorithms.

:class:`FastExecutor` reproduces :class:`~repro.core.execution.Executor`
semantics exactly — same transmission log, same duration, same result fields,
seed for seed — while removing the per-interaction Python overhead that
dominates long randomized-adversary runs:

* node identifiers are mapped to dense integer indices once per run, so the
  hot loop works on plain list indexing instead of hashing identifiers;
* the remaining-owner count is an O(1) counter instead of rebuilding the
  ``owners()`` set after every transmission to test termination;
* the two :class:`~repro.core.node.NodeView` objects handed to the algorithm
  are allocated once and re-pointed at each interaction instead of being
  rebuilt twice per decision — so algorithms must not retain a view object
  beyond the ``decide`` call that received it (none of the registered
  algorithms do; persistent per-node state belongs in ``view.memory``,
  which is stable across the run under both engines);
* interactions from any adversary implementing the committed-block protocol
  of :class:`~repro.adversaries.committed.CommittedBlockAdversary` — the
  uniform and non-uniform randomized adversaries as well as the mobility
  families — are consumed in numpy blocks (``committed_index_block``),
  skipping the per-interaction
  :class:`~repro.core.interaction.Interaction` allocation entirely;
* data tokens are replaced by per-node origin counters and folded payloads,
  which carry exactly the information the result needs.

The reference :class:`Executor` remains the semantics oracle; the
differential tests in ``tests/test_fast_execution.py`` and
``tests/test_differential_adversaries.py`` assert equality of the two
engines across all registered algorithms, seeds and adversary families.

Supported interaction sources: finite
:class:`~repro.core.interaction.InteractionSequence` objects, committed
adversaries (batched, detected through their ``committed_index_block``
method), and any provider whose ``interaction_at`` only uses the read-only
query API of :class:`~repro.core.node.NetworkState` (``owns_data``,
``has_transmitted``, ``owners``, ``remaining_data_count``), which covers
the adaptive adversaries in :mod:`repro.adversaries`.

For sweeps, :meth:`FastExecutor.run_many` executes a whole cell of trials
in one engine invocation (see :mod:`repro.sim.batch`), sharing the
per-instance precomputation across trials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Set, Union

from ..obs import current_collector
from .algorithm import DODAAlgorithm
from .data import AggregationFunction, NodeId, SUM
from .exceptions import ConfigurationError, ModelViolationError
from .execution import (
    ExecutionResult,
    InteractionProvider,
    RecordingProvider,
    Transmission,
)
from .interaction import InteractionSequence, _canonical_pair
from .node import NodeView

#: Default number of committed interactions fetched per batch from a
#: committed adversary.  Large enough to amortise the numpy slicing, small
#: enough that an early termination does not force drawing far beyond the
#: duration.  Both batched engines take a per-instance ``block_size``
#: option; the default is pinned by the micro-benchmark in
#: ``benchmarks/test_bench_blocksize.py``.
DEFAULT_BLOCK_SIZE = 4096


def validate_instance(nodes: List[NodeId], sink: NodeId) -> None:
    """The DODA instance checks shared by every optimised engine.

    Raises:
        ModelViolationError: on a sink outside the node set, duplicate
            identifiers, or fewer than two nodes.
    """
    if sink not in nodes:
        raise ModelViolationError(f"sink {sink!r} is not among the nodes")
    if len(set(nodes)) != len(nodes):
        raise ModelViolationError("node identifiers must be unique")
    if len(nodes) < 2:
        raise ModelViolationError("a DODA instance needs at least 2 nodes")


def identifier_ranks(nodes: List[NodeId]) -> Optional[List[int]]:
    """Canonical presentation rank per dense index, or None.

    Mirrors :class:`~repro.core.interaction.Interaction`'s ordering: the
    rank of a node is its position in the sorted identifier order.  Returns
    None when the identifiers are not totally ordered (engines then use a
    per-pair fallback or route to a safer path).  Shared by the fast and
    vectorized engines so the canonical-order convention cannot drift
    between them.
    """
    try:
        rank_of = {node: rank for rank, node in enumerate(sorted(nodes))}
        return [rank_of[node] for node in nodes]
    except TypeError:
        return None


@dataclass
class BatchTrial:
    """One trial of a :meth:`FastExecutor.run_many` batch.

    ``algorithm`` / ``knowledge`` default to the executor's own when None —
    pass per-trial instances when each trial carries its own oracle state
    (e.g. a ``meetTime`` oracle bound to that trial's adversary).
    """

    source: Any
    max_interactions: Optional[int] = None
    algorithm: Optional[Any] = None
    knowledge: Optional[Any] = None
    initial_payloads: Optional[dict] = None


class _StateFacade:
    """Read-only NetworkState-compatible view over the fast engine's arrays.

    Handed to generic interaction providers (adaptive adversaries) so they
    can observe the execution exactly as they would observe the reference
    executor's :class:`~repro.core.node.NetworkState`.
    """

    def __init__(self, run: "_RunState") -> None:
        self._run = run

    @property
    def nodes(self) -> List[NodeId]:
        return self._run.nodes

    @property
    def sink(self) -> NodeId:
        return self._run.nodes[self._run.sink_index]

    def owns_data(self, node: NodeId) -> bool:
        return self._run.owns[self._run.index_of[node]]

    def has_transmitted(self, node: NodeId) -> bool:
        return self._run.transmitted_at[self._run.index_of[node]] is not None

    def owners(self) -> Set[NodeId]:
        run = self._run
        return {node for node, owns in zip(run.nodes, run.owns) if owns}

    def remaining_data_count(self) -> int:
        return self._run.remaining

    def is_aggregation_complete(self) -> bool:
        return self._run.remaining == 0

    def sink_coverage(self) -> int:
        return self._run.coverage[self._run.sink_index]


class _RunState:
    """Dense per-run state: plain lists indexed by node position."""

    __slots__ = (
        "nodes",
        "index_of",
        "sink_index",
        "owns",
        "coverage",
        "payload",
        "memory",
        "transmitted_at",
        "remaining",
    )

    def __init__(
        self,
        nodes: List[NodeId],
        sink: NodeId,
        initial_payloads: Optional[Dict[NodeId, float]],
    ) -> None:
        validate_instance(nodes, sink)
        payloads = initial_payloads or {}
        self.nodes = nodes
        self.index_of = {node: position for position, node in enumerate(nodes)}
        self.sink_index = self.index_of[sink]
        n = len(nodes)
        self.owns = [True] * n
        self.coverage = [1] * n
        self.payload = [float(payloads.get(node, 1.0)) for node in nodes]
        self.memory: List[Dict[str, Any]] = [{} for _ in range(n)]
        self.transmitted_at: List[Optional[int]] = [None] * n
        self.remaining = n - 1  # non-sink owners


class FastExecutor:
    """Run DODA algorithms fast while enforcing the interaction model.

    Construction mirrors :class:`~repro.core.execution.Executor`; the two
    classes are interchangeable wherever the interaction source is a finite
    sequence, a randomized adversary, or a provider that only reads the
    network state through its query methods.
    """

    def __init__(
        self,
        nodes: Iterable[NodeId],
        sink: NodeId,
        algorithm: DODAAlgorithm,
        aggregation: AggregationFunction = SUM,
        knowledge: Any = None,
        enforce_oblivious: bool = False,
        block_size: Optional[int] = None,
        capture_opt: bool = False,
    ) -> None:
        self.nodes = list(nodes)
        self.sink = sink
        self.algorithm = algorithm
        self.aggregation = aggregation
        self.knowledge = knowledge
        self.enforce_oblivious = enforce_oblivious
        # Offline-optimum capture (see Executor): evaluated through the
        # trial-vectorized kernels of repro.ratio on the committed window
        # each run consumed, with zero extra adversary draws.
        self.capture_opt = capture_opt
        if block_size is not None and block_size < 1:
            raise ConfigurationError("block_size must be a positive integer")
        self.block_size = int(block_size or DEFAULT_BLOCK_SIZE)
        available = () if knowledge is None else knowledge.provides()
        algorithm.validate_knowledge(available)
        # Canonical presentation order of interacting pairs (see
        # identifier_ranks), shared by every run of this instance; None
        # selects the per-pair fallback in the hot loop.
        self._rank: Optional[List[int]] = identifier_ranks(self.nodes)

    # ------------------------------------------------------------------ #
    def run(
        self,
        source: Union[InteractionSequence, InteractionProvider],
        max_interactions: Optional[int] = None,
        initial_payloads: Optional[dict] = None,
    ) -> ExecutionResult:
        """Execute the algorithm until termination or ``max_interactions``.

        Same contract as :meth:`repro.core.execution.Executor.run`.
        """
        return self._execute(
            self.algorithm, self.knowledge, source, max_interactions,
            initial_payloads,
        )

    def run_many(self, trials: Iterable[BatchTrial]) -> List[ExecutionResult]:
        """Run a batch of trials in one engine invocation.

        Every trial shares this executor's node set, sink, aggregation and
        per-instance precomputation (dense index map, canonical ranks); the
        algorithm and knowledge may vary per trial (``None`` selects the
        executor's own).  Results are identical to calling :meth:`run` once
        per trial with fresh executors — the sweep cell runner in
        :mod:`repro.sim.batch` differentially tests exactly that.
        """
        batch = list(trials)
        collector = current_collector()
        with collector.span(
            "engine.run_many", engine="fast", trials=len(batch)
        ):
            return self._run_batch(batch)

    def _run_batch(self, batch: List[BatchTrial]) -> List[ExecutionResult]:
        results: List[ExecutionResult] = []
        for trial in batch:
            algorithm = (
                trial.algorithm if trial.algorithm is not None else self.algorithm
            )
            knowledge = (
                trial.knowledge if trial.knowledge is not None else self.knowledge
            )
            available = () if knowledge is None else knowledge.provides()
            algorithm.validate_knowledge(available)
            results.append(
                self._execute(
                    algorithm,
                    knowledge,
                    trial.source,
                    trial.max_interactions,
                    trial.initial_payloads,
                )
            )
        return results

    # ------------------------------------------------------------------ #
    def _execute(
        self,
        algorithm: DODAAlgorithm,
        knowledge: Any,
        source: Union[InteractionSequence, InteractionProvider],
        max_interactions: Optional[int],
        initial_payloads: Optional[dict],
    ) -> ExecutionResult:
        """One execution with an explicit algorithm/knowledge binding."""
        if isinstance(source, InteractionSequence):
            if max_interactions is None:
                max_interactions = len(source)
        elif max_interactions is None:
            raise ConfigurationError(
                "max_interactions is required when running against an "
                "unbounded interaction provider"
            )
        if (
            self.capture_opt
            and not isinstance(source, InteractionSequence)
            and not hasattr(source, "committed_index_block")
        ):
            # Generic providers cannot be read back in blocks afterwards;
            # record the played window for the offline baseline.
            source = RecordingProvider(source)

        run = _RunState(self.nodes, self.sink, initial_payloads)
        algorithm.on_run_start(self.nodes, self.sink)

        ctx = _LoopContext(self, algorithm, knowledge, run, self._rank, max_interactions)
        if isinstance(source, InteractionSequence):
            ctx.consume_sequence(source)
        elif hasattr(source, "committed_index_block"):
            ctx.consume_batched_adversary(source)
        else:
            ctx.consume_provider(source)

        sink_index = run.sink_index
        return ExecutionResult(
            terminated=ctx.terminated,
            duration=ctx.duration,
            interactions_used=ctx.time,
            transmissions=ctx.transmissions,
            sink_coverage=run.coverage[sink_index],
            node_count=len(self.nodes),
            remaining_owners=tuple(
                sorted(
                    (
                        node
                        for position, node in enumerate(run.nodes)
                        if run.owns[position] and position != sink_index
                    ),
                    key=repr,
                )
            ),
            sink_payload=run.payload[sink_index],
            opt_cost=(
                self._captured_opt_cost(source, run, ctx.time)
                if self.capture_opt
                else None
            ),
        )

    # ------------------------------------------------------------------ #
    def _captured_opt_cost(self, source: Any, run: _RunState, used: int) -> float:
        """Offline-optimum duration on the window ``[0, used)`` just played.

        Reads the consumed window back as dense index blocks (committed
        adversaries hand them out without drawing; sequences and recorded
        providers are converted) and evaluates the paper's ``opt(0)``
        through the single-row case of the trial-vectorized kernel —
        differential-equal to the reference engine's pure-Python oracle.
        """
        import numpy as np

        from ..ratio.kernels import opt_end_matrix, sequence_index_blocks
        from ..ratio.semantics import opt_cost_from_end

        if isinstance(source, InteractionSequence):
            i, j = sequence_index_blocks(source, run.index_of, length=used)
        elif hasattr(source, "committed_index_block"):
            i, j = source.committed_index_block(0, used)
            adversary_nodes = source.nodes()
            if adversary_nodes != run.nodes:
                translate = np.fromiter(
                    (run.index_of[node] for node in adversary_nodes),
                    dtype=np.int64,
                    count=len(adversary_nodes),
                )
                i = translate[i]
                j = translate[j]
        else:
            assert isinstance(source, RecordingProvider)
            i, j = sequence_index_blocks(
                source.recorded_sequence(), run.index_of, length=used
            )
        lengths = np.asarray([i.shape[0]], dtype=np.int64)
        ends = opt_end_matrix(
            i[None, :], j[None, :], lengths, len(run.nodes), run.sink_index
        )
        return opt_cost_from_end(float(ends[0]))


class _LoopContext:
    """The hot loop, shared by the three interaction-source shapes."""

    def __init__(
        self,
        executor: FastExecutor,
        algorithm: DODAAlgorithm,
        knowledge: Any,
        run: _RunState,
        rank: Optional[List[int]],
        max_interactions: int,
    ) -> None:
        self.executor = executor
        self.algorithm = algorithm
        self.run = run
        self.rank = rank
        self.max_interactions = max_interactions
        self.transmissions: List[Transmission] = []
        self.terminated = run.remaining == 0
        self.duration: Optional[int] = 0 if self.terminated else None
        self.time = 0
        # The two views are allocated once and re-pointed per interaction.
        self._first = NodeView(
            id=None, is_sink=False, owns_data=True, memory={},
            knowledge=knowledge,
        )
        self._second = NodeView(
            id=None, is_sink=False, owns_data=True, memory={},
            knowledge=knowledge,
        )

    # ------------------------------------------------------------------ #
    def _step(self, iu: int, iv: int, time: int) -> bool:
        """Decide and apply one interaction whose endpoints both own data.

        Returns True when the aggregation completed at ``time``.
        """
        run = self.run
        executor = self.executor
        nodes = run.nodes
        u = nodes[iu]
        v = nodes[iv]
        rank = self.rank
        if rank is not None:
            if rank[iu] > rank[iv]:
                iu, iv = iv, iu
                u, v = v, u
        else:
            a, _ = _canonical_pair(u, v)
            if a is not u:
                iu, iv = iv, iu
                u, v = v, u
        first = self._first
        second = self._second
        sink_index = run.sink_index
        first.id = u
        first.is_sink = iu == sink_index
        first.memory = run.memory[iu]
        second.id = v
        second.is_sink = iv == sink_index
        second.memory = run.memory[iv]
        algorithm = self.algorithm
        enforce = executor.enforce_oblivious and algorithm.oblivious
        if enforce:
            before = (dict(first.memory), dict(second.memory))
        decision = algorithm.decide(first, second, time)
        if enforce:
            if before[0] != first.memory or before[1] != second.memory:
                raise ModelViolationError(
                    f"oblivious algorithm {algorithm.name!r} modified node memory"
                )
        if decision is None:
            return False
        if decision == u:
            receiver_index, sender_index = iu, iv
            receiver, sender = u, v
        elif decision == v:
            receiver_index, sender_index = iv, iu
            receiver, sender = v, u
        else:
            raise ModelViolationError(
                f"algorithm {algorithm.name!r} returned {decision!r} which is "
                f"not part of the interaction {{{u!r}, {v!r}}} at t={time}"
            )
        if sender_index == sink_index:
            raise ModelViolationError(
                f"algorithm {algorithm.name!r} ordered the sink to transmit "
                f"at t={time}"
            )
        run.payload[receiver_index] = executor.aggregation.fold(
            run.payload[receiver_index], run.payload[sender_index]
        )
        run.coverage[receiver_index] += run.coverage[sender_index]
        run.owns[sender_index] = False
        run.transmitted_at[sender_index] = time
        run.remaining -= 1
        self.transmissions.append(
            Transmission(time=time, sender=sender, receiver=receiver)
        )
        return run.remaining == 0

    # ------------------------------------------------------------------ #
    def consume_sequence(self, sequence: InteractionSequence) -> None:
        """Fast path over a committed finite sequence."""
        if self.terminated:
            return
        run = self.run
        index_of = run.index_of
        owns = run.owns
        limit = min(len(sequence), self.max_interactions)
        for time in range(limit):
            interaction = sequence[time]
            iu = index_of[interaction.u]
            iv = index_of[interaction.v]
            if owns[iu] and owns[iv] and self._step(iu, iv, time):
                self.terminated = True
                self.duration = time + 1
                self.time = time + 1
                return
        self.time = limit

    def consume_batched_adversary(self, adversary: Any) -> None:
        """Batched path over a committed randomized adversary."""
        if self.terminated:
            return
        run = self.run
        owns = run.owns
        adversary_nodes = adversary.nodes()
        if adversary_nodes == run.nodes:
            translate = None
        else:
            index_of = run.index_of
            translate = [index_of[node] for node in adversary_nodes]
        time = 0
        block = self.executor.block_size
        while time < self.max_interactions:
            stop = min(self.max_interactions, time + block)
            requested = stop - time
            block_i, block_j = adversary.committed_index_block(time, stop)
            li = block_i.tolist()
            lj = block_j.tolist()
            if translate is not None:
                li = [translate[i] for i in li]
                lj = [translate[j] for j in lj]
            for offset, iu in enumerate(li):
                iv = lj[offset]
                if owns[iu] and owns[iv] and self._step(iu, iv, time + offset):
                    self.terminated = True
                    self.duration = time + offset + 1
                    self.time = time + offset + 1
                    return
            count = len(li)
            time += count
            if count < requested:
                break  # the adversary's safety horizon is exhausted
        self.time = time

    def consume_provider(self, provider: InteractionProvider) -> None:
        """Generic path: per-interaction queries against a provider."""
        if self.terminated:
            return
        run = self.run
        index_of = run.index_of
        owns = run.owns
        facade = _StateFacade(run)
        time = 0
        while time < self.max_interactions:
            interaction = provider.interaction_at(time, facade)
            if interaction is None:
                break
            iu = index_of[interaction.u]
            iv = index_of[interaction.v]
            if owns[iu] and owns[iv] and self._step(iu, iv, time):
                self.terminated = True
                self.duration = time + 1
                self.time = time + 1
                return
            time += 1
        self.time = time
