"""The underlying-graph oracle of Section 3.2 (nodes know G-bar).

G-bar is the static graph whose edges are the pairs of nodes interacting at
least once in the whole sequence.  The oracle can be built either from an
explicit edge list (useful for adaptive adversaries that commit to a
footprint without committing to the sequence) or from a committed finite
sequence.  :func:`complete_footprint` hands out one shared, immutable
oracle per node set for the complete footprint of the named randomized
adversary families.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Any, FrozenSet, Iterable, Optional, Sequence, Set, Tuple

import networkx as nx

from ..core.data import NodeId
from ..core.interaction import InteractionSequence


class UnderlyingGraphKnowledge:
    """Oracle exposing the underlying graph G-bar as a networkx graph."""

    knowledge_name = "underlying_graph"

    def __init__(
        self,
        nodes: Iterable[NodeId],
        edges: Optional[Iterable[Tuple[NodeId, NodeId]]] = None,
        sequence: Optional[InteractionSequence] = None,
    ) -> None:
        if (edges is None) == (sequence is None):
            raise ValueError("provide exactly one of 'edges' or 'sequence'")
        graph = nx.Graph()
        graph.add_nodes_from(nodes)
        if edges is not None:
            graph.add_edges_from(edges)
        else:
            assert sequence is not None
            for pair in sequence.footprint_edges():
                u, v = tuple(pair)
                graph.add_edge(u, v)
        self._graph = graph

    def underlying_graph(self) -> nx.Graph:
        """A copy of G-bar (copies are cheap and keep the oracle immutable)."""
        return self._graph.copy()

    @property
    def edge_set(self) -> Set[FrozenSet[NodeId]]:
        """The edges of G-bar as a set of unordered pairs."""
        return {frozenset(edge) for edge in self._graph.edges()}


def complete_footprint(nodes: Sequence[NodeId]) -> UnderlyingGraphKnowledge:
    """The shared oracle whose G-bar is the complete graph on ``nodes``.

    Built once per process per node tuple and reused by every trial (the
    oracle never hands out its own graph, so sharing is safe).  The cache
    key carries each node's type, so ``1``, ``1.0`` and ``True`` — equal as
    dict keys but ordered differently by the ``repr``-sorted BFS tree —
    never alias.
    """
    return _complete_footprint(tuple((type(node), node) for node in nodes))


#: Node tuples whose complete-footprint oracle stays cached: each holds an
#: ``n(n-1)/2``-edge networkx graph, and sweeps visit their sizes one after
#: another, so two suffice.
COMPLETE_FOOTPRINT_CACHE_SIZE = 2


@lru_cache(maxsize=COMPLETE_FOOTPRINT_CACHE_SIZE)
def _complete_footprint(
    typed_nodes: Tuple[Tuple[Any, NodeId], ...]
) -> UnderlyingGraphKnowledge:
    nodes = [node for _, node in typed_nodes]
    return UnderlyingGraphKnowledge(nodes, edges=combinations(nodes, 2))
