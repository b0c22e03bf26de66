"""The underlying-graph oracle of Section 3.2 (nodes know G-bar).

G-bar is the static graph whose edges are the pairs of nodes interacting at
least once in the whole sequence.  The oracle can be built either from an
explicit edge list (useful for adaptive adversaries that commit to a
footprint without committing to the sequence) or from a committed finite
sequence.  G-bar is a read-only adjacency mapping that the oracle hands out
itself, never a copy, and the oracle memoizes the deterministic BFS
spanning tree of G-bar per root, which both engines' spanning-tree
algorithm read.  :func:`complete_footprint` hands out one shared,
immutable oracle per node set for the complete footprint of the named
randomized adversary families.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Any, Dict, FrozenSet, Iterable, Optional, Sequence, Set, Tuple

from ..core.data import NodeId
from ..core.interaction import InteractionSequence
from ..graph.adjacency import Adjacency, Tree, adjacency, build_bfs_tree


class UnderlyingGraphKnowledge:
    """Oracle exposing the underlying graph G-bar and its BFS spanning trees."""

    knowledge_name = "underlying_graph"

    def __init__(
        self,
        nodes: Iterable[NodeId],
        edges: Optional[Iterable[Tuple[NodeId, NodeId]]] = None,
        sequence: Optional[InteractionSequence] = None,
    ) -> None:
        if (edges is None) == (sequence is None):
            raise ValueError("provide exactly one of 'edges' or 'sequence'")
        if edges is None:
            assert sequence is not None
            edges = (tuple(pair) for pair in sequence.footprint_edges())
        self._graph = adjacency(nodes, edges)
        self._trees: Dict[Tuple[type, NodeId], Tree] = {}

    def underlying_graph(self) -> Adjacency:
        """G-bar as a read-only adjacency mapping, the same object on every call."""
        return self._graph

    def bfs_tree(self, root: NodeId) -> Tree:
        """The deterministic BFS spanning tree of G-bar rooted at ``root``.

        Computed once per root and shared by every caller, so the returned
        maps must not be mutated.  The memo key carries the root's type, so
        ``1``, ``1.0`` and ``True`` never alias.
        """
        key = (type(root), root)
        tree = self._trees.get(key)
        if tree is None:
            tree = self._trees[key] = build_bfs_tree(self._graph, root)
        return tree

    @property
    def edge_set(self) -> Set[FrozenSet[NodeId]]:
        """The edges of G-bar as a set of unordered pairs."""
        return {
            frozenset((node, peer))
            for node, peers in self._graph.items()
            for peer in peers
        }


def complete_footprint(nodes: Sequence[NodeId]) -> UnderlyingGraphKnowledge:
    """The shared oracle whose G-bar is the complete graph on ``nodes``.

    Built once per process per node tuple and reused by every trial (the
    oracle is immutable, so sharing is safe), which also makes its BFS tree
    one computation per process per sink.  The cache
    key carries each node's type, so ``1``, ``1.0`` and ``True`` — equal as
    dict keys but ordered differently by the ``repr``-sorted BFS tree —
    never alias.
    """
    return _complete_footprint(tuple((type(node), node) for node in nodes))


#: Node tuples whose complete-footprint oracle stays cached: each holds an
#: ``n(n-1)/2``-edge adjacency mapping, and sweeps visit their sizes one
#: after another, so two suffice.
COMPLETE_FOOTPRINT_CACHE_SIZE = 2


@lru_cache(maxsize=COMPLETE_FOOTPRINT_CACHE_SIZE)
def _complete_footprint(
    typed_nodes: Tuple[Tuple[Any, NodeId], ...]
) -> UnderlyingGraphKnowledge:
    nodes = [node for _, node in typed_nodes]
    return UnderlyingGraphKnowledge(nodes, edges=combinations(nodes, 2))
