"""The one graph form of the package and its one breadth-first search.

A static graph — the underlying graph G-bar of Section 3.2, a footprint, a
tree — is a read-only *adjacency mapping*: node → frozenset of neighbours,
with nodes in insertion order.  :func:`bfs` is the only graph search; the
spanning tree, connectivity, the tree test and node depths all read it.
:func:`bfs` and :func:`build_bfs_tree` read only ``graph[node]``, so any
graph object whose items iterate over the neighbours can be searched.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from ..core.data import NodeId

#: node → frozenset of its neighbours.
Adjacency = Mapping[NodeId, FrozenSet[NodeId]]
#: ``(parent, children)`` maps of a BFS spanning tree.
Tree = Tuple[Dict[NodeId, Optional[NodeId]], Dict[NodeId, Set[NodeId]]]


def adjacency(
    nodes: Iterable[NodeId], edges: Iterable[Tuple[NodeId, NodeId]]
) -> Adjacency:
    """The read-only adjacency mapping of ``nodes`` plus ``edges``.

    Nodes keep their order; endpoints missing from ``nodes`` are appended in
    edge order.
    """
    neighbours: Dict[NodeId, Set[NodeId]] = {node: set() for node in nodes}
    for u, v in edges:
        neighbours.setdefault(u, set()).add(v)
        neighbours.setdefault(v, set()).add(u)
    return MappingProxyType(
        {node: frozenset(peers) for node, peers in neighbours.items()}
    )


def edge_count(graph: Adjacency) -> int:
    """Number of edges ``|E|``."""
    return sum(len(peers) for peers in graph.values()) // 2


def bfs(graph: Adjacency, root: NodeId) -> Dict[NodeId, Optional[NodeId]]:
    """Deterministic BFS from ``root``: every reached node's parent.

    Neighbours are visited in ascending ``repr`` order of their identifier,
    so every node computing it gets the same tree.  The map lists nodes in
    visit order (``root`` first, parent ``None``); unreachable nodes are
    absent.  Raises ``KeyError`` if ``root`` is not a node of ``graph``.
    """
    parent: Dict[NodeId, Optional[NodeId]] = {root: None}
    frontier: List[NodeId] = [root]
    while frontier:
        next_frontier: List[NodeId] = []
        for node in frontier:
            for neighbour in sorted(graph[node], key=repr):
                if neighbour not in parent:
                    parent[neighbour] = node
                    next_frontier.append(neighbour)
        frontier = next_frontier
    return parent


def build_bfs_tree(graph: Adjacency, root: NodeId) -> Tree:
    """The :func:`bfs` spanning tree rooted at ``root`` as ``(parent, children)``.

    Nodes unreachable from the root are absent from both maps (no
    aggregation can include them anyway).
    """
    parent = bfs(graph, root)
    children: Dict[NodeId, Set[NodeId]] = {node: set() for node in parent}
    for node, up in parent.items():
        if up is not None:
            children[up].add(node)
    return parent, children


def depths(graph: Adjacency, root: NodeId) -> Dict[NodeId, int]:
    """Hop distance from ``root`` to every node it reaches."""
    depth: Dict[NodeId, int] = {}
    for node, up in bfs(graph, root).items():
        depth[node] = 0 if up is None else depth[up] + 1
    return depth


def is_connected(graph: Adjacency) -> bool:
    """True if every node reaches every other (vacuously for no nodes)."""
    if not graph:
        return True
    return len(bfs(graph, next(iter(graph)))) == len(graph)


def is_tree(graph: Adjacency) -> bool:
    """True if ``graph`` is connected with ``|E| = |V| - 1``.

    A single node is a tree; a graph without nodes is not.
    """
    return bool(graph) and edge_count(graph) == len(graph) - 1 and is_connected(graph)
