"""Unit tests for the spanning-tree aggregation algorithm (Theorems 4 and 5)."""

import networkx as nx
import pytest

from repro.algorithms.spanning_tree import SpanningTreeAggregation, build_bfs_tree
from repro.core.cost import cost_of_result
from repro.core.execution import Executor
from repro.core.interaction import InteractionSequence
from repro.graph.generators import random_tree, sequence_with_footprint, tree_recurrent_sequence
from repro.knowledge import KnowledgeBundle, UnderlyingGraphKnowledge


def run_on_tree(tree, sequence, sink=0):
    nodes = list(tree.nodes())
    knowledge = KnowledgeBundle(
        UnderlyingGraphKnowledge(nodes, edges=list(tree.edges()))
    )
    executor = Executor(nodes, sink, SpanningTreeAggregation(), knowledge=knowledge)
    result = executor.run(sequence)
    return nodes, result


class TestBFSTree:
    def test_path_graph_tree(self):
        graph = nx.path_graph(4)
        parent, children = build_bfs_tree(graph, root=0)
        assert parent[1] == 0
        assert parent[2] == 1
        assert parent[3] == 2
        assert children[0] == {1}
        assert children[3] == set()

    def test_star_graph_tree(self):
        graph = nx.star_graph(4)  # center 0
        parent, children = build_bfs_tree(graph, root=0)
        assert all(parent[i] == 0 for i in range(1, 5))
        assert children[0] == {1, 2, 3, 4}

    def test_deterministic_neighbour_order(self):
        graph = nx.cycle_graph(4)
        parent_a, _ = build_bfs_tree(graph, root=0)
        parent_b, _ = build_bfs_tree(graph, root=0)
        assert parent_a == parent_b

    def test_unreachable_nodes_excluded(self):
        graph = nx.Graph()
        graph.add_edge(0, 1)
        graph.add_node(5)
        parent, children = build_bfs_tree(graph, root=0)
        assert 5 not in parent


class TestOnTreeFootprints:
    def test_terminates_and_is_optimal_on_path(self):
        tree = nx.path_graph(5)
        sequence = tree_recurrent_sequence(tree.edges(), rounds=6, order="sorted")
        nodes, result = run_on_tree(tree, sequence)
        assert result.terminated
        breakdown = cost_of_result(result, sequence, nodes, 0)
        assert breakdown.cost == 1.0

    def test_terminates_and_is_optimal_on_random_trees(self):
        for seed in range(4):
            edges = random_tree(9, seed=seed)
            sequence = sequence_with_footprint(edges, rounds=10, seed=seed)
            tree = nx.empty_graph(9)
            tree.add_edges_from(edges)
            nodes, result = run_on_tree(tree, sequence)
            assert result.terminated
            breakdown = cost_of_result(result, sequence, nodes, 0)
            assert breakdown.cost == 1.0

    def test_single_round_bottom_up_suffices(self):
        tree = nx.balanced_tree(2, 3)
        sequence = tree_recurrent_sequence(
            tree.edges(), rounds=1, order="bottom_up", root=0
        )
        nodes, result = run_on_tree(tree, sequence)
        assert result.terminated
        assert result.duration == len(sequence)

    def test_waits_for_children_before_transmitting(self):
        # Path 0-1-2: if (1, 0) appears before (2, 1), node 1 must not send
        # yet; it sends at its second opportunity.
        tree = nx.path_graph(3)
        sequence = InteractionSequence.from_pairs([(1, 0), (2, 1), (1, 0)])
        nodes, result = run_on_tree(tree, sequence)
        assert result.terminated
        senders = [t.sender for t in result.transmissions]
        times = [t.time for t in result.transmissions]
        assert senders == [2, 1]
        assert times == [1, 2]


class TestOnNonTreeFootprints:
    def test_terminates_on_recurrent_cycle(self):
        cycle = nx.cycle_graph(6)
        sequence = sequence_with_footprint(cycle.edges(), rounds=12, seed=0)
        nodes, result = run_on_tree(cycle, sequence)
        assert result.terminated

    def test_cost_can_exceed_one_on_non_tree(self):
        from repro.adversaries.constructions import theorem4_delaying_sequence

        nodes, sequence = theorem4_delaying_sequence(6, delay_rounds=10)
        knowledge = KnowledgeBundle(
            UnderlyingGraphKnowledge(nodes, sequence=sequence)
        )
        executor = Executor(nodes, 0, SpanningTreeAggregation(), knowledge=knowledge)
        result = executor.run(sequence)
        assert result.terminated
        breakdown = cost_of_result(result, sequence, nodes, 0)
        assert breakdown.cost > 1.0

    def test_state_resets_between_runs(self):
        tree = nx.path_graph(4)
        sequence = tree_recurrent_sequence(tree.edges(), rounds=5, order="sorted")
        algorithm = SpanningTreeAggregation()
        nodes = list(tree.nodes())
        knowledge = KnowledgeBundle(
            UnderlyingGraphKnowledge(nodes, edges=list(tree.edges()))
        )
        executor = Executor(nodes, 0, algorithm, knowledge=knowledge)
        first = executor.run(sequence)
        second = executor.run(sequence)
        assert first.terminated and second.terminated
        assert first.duration == second.duration
