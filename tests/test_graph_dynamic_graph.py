"""Unit tests for repro.graph.dynamic_graph."""

import pytest

from repro.core.exceptions import InvalidInteractionError
from repro.core.interaction import InteractionSequence
from repro.graph.dynamic_graph import DynamicGraph


@pytest.fixture
def triangle_graph():
    return DynamicGraph.create(
        [0, 1, 2], sink=0, interactions=[(0, 1), (1, 2), (0, 2), (0, 1)]
    )


class TestConstruction:
    def test_create_from_pairs(self, triangle_graph):
        assert triangle_graph.size == 3
        assert triangle_graph.length == 4
        assert triangle_graph.sink == 0

    def test_sink_must_be_a_node(self):
        with pytest.raises(InvalidInteractionError):
            DynamicGraph.create([0, 1], sink=5, interactions=[(0, 1)])

    def test_sequence_nodes_must_be_subset(self):
        with pytest.raises(InvalidInteractionError):
            DynamicGraph.create([0, 1], sink=0, interactions=[(0, 7)])

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(InvalidInteractionError):
            DynamicGraph(nodes=(0, 0, 1), sink=0,
                         sequence=InteractionSequence.from_pairs([(0, 1)]))

    def test_non_sink_nodes(self, triangle_graph):
        assert triangle_graph.non_sink_nodes() == (1, 2)


class TestFootprint:
    def test_underlying_graph_edges(self, triangle_graph):
        footprint = triangle_graph.underlying_graph()
        assert footprint == {0: {1, 2}, 1: {0, 2}, 2: {0, 1}}
        with pytest.raises(TypeError):
            footprint[3] = frozenset()

    def test_footprint_includes_isolated_nodes(self):
        graph = DynamicGraph.create([0, 1, 2, 3], sink=0, interactions=[(0, 1)])
        assert list(graph.underlying_graph()) == [0, 1, 2, 3]
        assert not graph.is_footprint_connected()

    def test_connected_footprint(self, triangle_graph):
        assert triangle_graph.is_footprint_connected()

    def test_interaction_counts(self, triangle_graph):
        counts = triangle_graph.interaction_counts()
        assert counts[frozenset({0, 1})] == 2
        assert counts[frozenset({1, 2})] == 1

    def test_is_recurrent(self, triangle_graph):
        assert not triangle_graph.is_recurrent(min_occurrences=2)
        assert triangle_graph.is_recurrent(min_occurrences=1)

    def test_degree_in_footprint(self, triangle_graph):
        assert triangle_graph.degree_in_footprint(0) == 2

    def test_meeting_times_with_sink(self, triangle_graph):
        assert triangle_graph.meeting_times_with_sink(1) == [0, 3]
        assert triangle_graph.meeting_times_with_sink(2) == [2]


class TestTransformations:
    def test_prefix(self, triangle_graph):
        prefix = triangle_graph.prefix(2)
        assert prefix.length == 2
        assert prefix.size == 3

    def test_with_sequence(self, triangle_graph):
        other = triangle_graph.with_sequence(
            InteractionSequence.from_pairs([(1, 2)])
        )
        assert other.length == 1
        assert other.nodes == triangle_graph.nodes
