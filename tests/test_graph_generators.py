"""Unit tests for interaction-sequence generators."""

import random

import networkx as nx
import pytest

from repro.core.exceptions import ConfigurationError
from repro.graph.adjacency import adjacency, is_tree
from repro.graph.generators import (
    all_pairs,
    default_nodes,
    edge_markov_sequence,
    line_sequence,
    periodic_sequence,
    random_tree,
    ring_sequence,
    round_robin_sequence,
    sequence_with_footprint,
    star_with_sink_sequence,
    tree_recurrent_sequence,
    uniform_random_sequence,
)


class TestBasics:
    def test_default_nodes(self):
        assert default_nodes(4) == [0, 1, 2, 3]

    def test_default_nodes_too_small(self):
        with pytest.raises(ConfigurationError):
            default_nodes(1)

    def test_all_pairs_count(self):
        assert len(all_pairs(range(6))) == 15


class TestUniformRandom:
    def test_length_and_node_coverage(self):
        sequence = uniform_random_sequence(list(range(5)), 200, seed=0)
        assert len(sequence) == 200
        assert sequence.nodes() <= set(range(5))

    def test_seed_reproducibility(self):
        a = uniform_random_sequence(list(range(6)), 50, seed=7)
        b = uniform_random_sequence(list(range(6)), 50, seed=7)
        assert a == b

    def test_different_seeds_differ(self):
        a = uniform_random_sequence(list(range(6)), 50, seed=7)
        b = uniform_random_sequence(list(range(6)), 50, seed=8)
        assert a != b

    def test_explicit_rng_used(self):
        rng = random.Random(3)
        a = uniform_random_sequence(list(range(6)), 20, rng=rng)
        rng = random.Random(3)
        b = uniform_random_sequence(list(range(6)), 20, rng=rng)
        assert a == b

    def test_roughly_uniform_pair_distribution(self):
        nodes = list(range(5))
        sequence = uniform_random_sequence(nodes, 5000, seed=1)
        counts = {}
        for interaction in sequence:
            counts[interaction.pair] = counts.get(interaction.pair, 0) + 1
        expected = 5000 / 10
        assert all(0.6 * expected < count < 1.4 * expected for count in counts.values())

    def test_single_node_rejected(self):
        with pytest.raises(ConfigurationError):
            uniform_random_sequence([0], 10, seed=0)


class TestDeterministicPatterns:
    def test_round_robin_footprint_complete(self):
        sequence = round_robin_sequence(list(range(5)), rounds=2)
        assert len(sequence) == 20
        assert len(sequence.footprint_edges()) == 10

    def test_periodic_sequence(self):
        sequence = periodic_sequence([(0, 1), (1, 2)], repetitions=3)
        assert len(sequence) == 6
        assert sequence[4].pair == frozenset({0, 1})

    def test_star_with_sink(self):
        sequence = star_with_sink_sequence(list(range(4)), sink=0, rounds=2)
        assert len(sequence) == 6
        assert all(interaction.involves(0) for interaction in sequence)

    def test_line_sequence_forward(self):
        sequence = line_sequence([0, 1, 2, 3], rounds=1)
        assert sequence.pairs == [(0, 1), (1, 2), (2, 3)]

    def test_line_sequence_reverse(self):
        sequence = line_sequence([0, 1, 2, 3], rounds=1, reverse=True)
        assert sequence.pairs == [(2, 3), (1, 2), (0, 1)]

    def test_ring_sequence(self):
        sequence = ring_sequence([0, 1, 2, 3], rounds=1)
        assert len(sequence) == 4
        assert frozenset({3, 0}) in sequence.footprint_edges()


class TestTreeGenerators:
    def test_random_tree_is_tree(self):
        tree = random_tree(12, seed=3)
        graph = adjacency((), tree)
        assert is_tree(graph)
        assert sorted(graph) == list(range(12))

    def test_random_tree_two_nodes(self):
        tree = random_tree(2, seed=0)
        assert tree == [(0, 1)]

    def test_random_tree_rejects_single_node(self):
        with pytest.raises(ConfigurationError):
            random_tree(1)

    def test_tree_recurrent_sequence_bottom_up_single_round_convergecast(self):
        tree = nx.balanced_tree(2, 2)
        sequence = tree_recurrent_sequence(
            tree.edges(), rounds=1, order="bottom_up", root=0
        )
        # Bottom-up order lets data flow to the root within a single round,
        # so the offline optimum is finite on just one round.
        from repro.offline.convergecast import opt

        assert opt(sequence, list(tree.nodes()), 0) < len(sequence)

    def test_tree_recurrent_sequence_requires_tree(self):
        graph = nx.cycle_graph(4)
        with pytest.raises(ConfigurationError):
            tree_recurrent_sequence(graph.edges(), rounds=1, order="sorted")
        with pytest.raises(ConfigurationError):
            tree_recurrent_sequence([(0, 1), (2, 3)], rounds=1, order="sorted")
        with pytest.raises(ConfigurationError):
            tree_recurrent_sequence([], rounds=1, order="sorted")

    def test_tree_recurrent_sequence_bottom_up_requires_root(self):
        tree = nx.path_graph(4)
        with pytest.raises(ConfigurationError):
            tree_recurrent_sequence(tree.edges(), rounds=1, order="bottom_up")

    def test_sequence_with_footprint(self):
        graph = nx.cycle_graph(6)
        sequence = sequence_with_footprint(graph.edges(), rounds=3, seed=0)
        assert len(sequence) == 18
        assert sequence.footprint_edges() == {
            frozenset(edge) for edge in graph.edges()
        }

    def test_sequence_with_footprint_requires_edges(self):
        with pytest.raises(ConfigurationError):
            sequence_with_footprint(nx.empty_graph(4).edges(), rounds=1)


class TestEdgeMarkov:
    def test_length_and_persistence_validation(self):
        sequence = edge_markov_sequence(list(range(6)), 100, persistence=0.5, seed=0)
        assert len(sequence) == 100
        with pytest.raises(ConfigurationError):
            edge_markov_sequence(list(range(6)), 10, persistence=1.5)

    def test_high_persistence_shares_endpoints(self):
        sequence = edge_markov_sequence(list(range(10)), 500, persistence=1.0, seed=1)
        shared = 0
        for previous, current in zip(sequence, list(sequence)[1:]):
            if previous.pair & current.pair:
                shared += 1
        assert shared == len(sequence) - 1

    def test_zero_persistence_matches_uniform_independence(self):
        sequence = edge_markov_sequence(list(range(10)), 500, persistence=0.0, seed=1)
        shared = sum(
            1
            for previous, current in zip(sequence, list(sequence)[1:])
            if previous.pair & current.pair
        )
        # Under uniformity, consecutive interactions share an endpoint with
        # probability well below 1/2 for 10 nodes.
        assert shared < 0.55 * len(sequence)
