"""The adjacency-mapping graph form and its BFS, checked against networkx.

networkx is the reference here only: the package itself never imports it.
"""

import hashlib
import random

import networkx as nx
import pytest

from repro.algorithms.spanning_tree import build_bfs_tree
from repro.graph.adjacency import (
    adjacency,
    bfs,
    depths,
    edge_count,
    is_connected,
    is_tree,
)
from repro.graph.generators import (
    random_tree,
    sequence_with_footprint,
    tree_recurrent_sequence,
)


def _as_adjacency(graph):
    return adjacency(graph.nodes(), graph.edges())


def _random_graphs():
    """Small G(n, p) graphs, many disconnected or with isolated nodes, plus trees."""
    rng = random.Random(2016)
    graphs = []
    for _ in range(400):
        n = rng.randint(1, 14)
        p = rng.choice([0.0, 0.1, 0.2, 0.35, 0.6, 1.0])
        graphs.append(nx.gnp_random_graph(n, p, seed=rng.randrange(2**32)))
    for n in range(2, 30):
        tree = nx.empty_graph(n)
        tree.add_edges_from(random_tree(n, seed=n))
        graphs.append(tree)
    return graphs


GRAPHS = _random_graphs()


class TestRandomTreeMatchesNetworkx:
    def test_prufer_decoding_edge_order(self):
        rng = random.Random(5)
        for _ in range(3000):
            n = rng.choice([2, 3, rng.randint(2, 40)])
            seed = rng.randrange(2**32)
            code_rng = random.Random(seed)
            code = [code_rng.randrange(n) for _ in range(n - 2)]
            assert random_tree(n, seed=seed) == list(
                nx.from_prufer_sequence(code).edges()
            ), (n, code)

    def test_shared_rng_advances_identically(self):
        ours, theirs = random.Random(9), random.Random(9)
        for n in (2, 3, 7, 12):
            random_tree(n, rng=ours)
            for _ in range(n - 2):
                theirs.randrange(n)
        assert ours.random() == theirs.random()


class TestBfsMatchesNetworkx:
    def test_graph_mix_covers_every_case(self):
        connected = [nx.is_connected(graph) for graph in GRAPHS]
        isolated = [any(d == 0 for _, d in graph.degree()) for graph in GRAPHS]
        assert any(connected) and not all(connected)
        assert any(isolated) and any(nx.is_tree(graph) for graph in GRAPHS)

    def test_connectivity(self):
        for graph in GRAPHS:
            assert is_connected(_as_adjacency(graph)) == nx.is_connected(graph)

    def test_tree_test(self):
        for graph in GRAPHS:
            assert is_tree(_as_adjacency(graph)) == nx.is_tree(graph)

    def test_edge_count(self):
        for graph in GRAPHS:
            assert edge_count(_as_adjacency(graph)) == graph.number_of_edges()

    def test_depths(self):
        for graph in GRAPHS:
            for root in (0, len(graph) - 1):
                expected = nx.shortest_path_length(graph, source=root)
                assert depths(_as_adjacency(graph), root) == expected

    def test_build_bfs_tree_reads_both_forms_alike(self):
        for graph in GRAPHS:
            for root in (0, len(graph) - 1):
                assert build_bfs_tree(graph, root) == build_bfs_tree(
                    _as_adjacency(graph), root
                )

    def test_neighbours_visited_in_repr_order(self):
        # repr order puts 10 before 9: node 10 is reached through node 1.
        graph = adjacency(range(11), [(0, 1), (0, 9), (1, 10), (9, 10)])
        assert bfs(graph, 0) == {0: None, 1: 0, 9: 0, 10: 1}
        assert list(bfs(graph, 0)) == [0, 1, 9, 10]

    def test_missing_root_raises(self):
        with pytest.raises(KeyError):
            bfs(adjacency([0, 1], [(0, 1)]), 5)

    def test_empty_graph(self):
        graph = adjacency([], [])
        assert is_connected(graph)
        assert not is_tree(graph)
        assert edge_count(graph) == 0


class TestAdjacency:
    def test_read_only_and_ordered(self):
        graph = adjacency([2, 0, 1], [(0, 1), (1, 5)])
        assert list(graph) == [2, 0, 1, 5]
        assert graph == {2: set(), 0: {1}, 1: {0, 5}, 5: {1}}
        assert all(isinstance(peers, frozenset) for peers in graph.values())
        with pytest.raises(TypeError):
            graph[7] = frozenset()


#: sha256 of ``(random_tree edges, sequence_with_footprint pairs,
#: tree_recurrent_sequence pairs bottom_up, ... sorted)`` per ``(n, seed)``,
#: recorded from the networkx-backed generators.  Experiments E5 and E20
#: shuffle and order exactly these edge lists.
GOLDEN = {
    (2, 0): "ed39b94fecd2d3a8512056224a48364261039fb42ae4915b6c9b01f3999e512c",
    (2, 1): "ed39b94fecd2d3a8512056224a48364261039fb42ae4915b6c9b01f3999e512c",
    (3, 0): "4349cd4f15b724aa6023f7edb4989dd7d40cc2604e33b2b4e70dc4aab8dd51a5",
    (3, 1): "80550708b2b79bd0d4f794c5fc58bb524594a4c93504a02e22307fcde08d8826",
    (10, 0): "8dc82214a7d6b5e1d1ff25d23d4dfca2d879e19d419ad22b881301ecab028c35",
    (10, 1): "e1dfc19663341bb826a9f0fe2b84345c4384354c20c9b93cc0787a7db6def58f",
    (60, 0): "718745a5de945ba070b92d4f5507fe1337666e6d2dbc52cf4d94f094e43bc1de",
    (60, 1): "5bb4123ee38a7e463135d9e9a4a5636d69ed1eaf68632f77673584c804be4f47",
}


@pytest.mark.parametrize("n, seed", sorted(GOLDEN))
def test_tree_generators_golden(n, seed):
    tree = random_tree(n, seed=seed)
    parts = [
        [tuple(edge) for edge in tree],
        sequence_with_footprint(tree, rounds=3, seed=seed).pairs,
        tree_recurrent_sequence(tree, 2, "bottom_up", root=0).pairs,
        tree_recurrent_sequence(tree, 2, "sorted", root=0).pairs,
    ]
    assert hashlib.sha256(repr(parts).encode()).hexdigest() == GOLDEN[(n, seed)]
