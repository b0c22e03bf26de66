"""Unit tests for the contact-trace substrates and sequence properties."""

import pytest

from repro.graph.properties import (
    aggregation_feasible,
    distinct_sink_contacts_within,
    footprint_is_tree,
    mean_intercontact_time,
    sink_contact_times,
    summarize,
    temporal_eccentricity_to_sink,
)
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.traces import (
    BodyAreaNetworkTrace,
    RandomWaypointTrace,
    VehicularGridTrace,
)
from repro.core.exceptions import ConfigurationError


class TestBodyAreaNetworkTrace:
    def test_build_produces_dynamic_graph(self):
        graph = BodyAreaNetworkTrace(sensor_count=6, cycles=10, seed=0).build()
        assert graph.sink == "hub"
        assert graph.size == 7
        assert graph.length == 60

    def test_reproducible_with_seed(self):
        a = BodyAreaNetworkTrace(sensor_count=6, cycles=5, seed=1).build()
        b = BodyAreaNetworkTrace(sensor_count=6, cycles=5, seed=1).build()
        assert a.sequence == b.sequence

    def test_aggregation_is_feasible(self):
        graph = BodyAreaNetworkTrace(sensor_count=6, cycles=10, seed=0).build()
        assert aggregation_feasible(graph)

    def test_too_few_sensors_rejected(self):
        with pytest.raises(ConfigurationError):
            BodyAreaNetworkTrace(sensor_count=1).build()


class TestRandomWaypointTrace:
    def test_build_and_feasibility(self):
        graph = RandomWaypointTrace(node_count=10, steps=150, seed=2).build()
        assert graph.sink == 0
        assert graph.size == 10
        assert graph.length > 0
        assert aggregation_feasible(graph)

    def test_reproducible_with_seed(self):
        a = RandomWaypointTrace(node_count=8, steps=60, seed=5).build()
        b = RandomWaypointTrace(node_count=8, steps=60, seed=5).build()
        assert a.sequence == b.sequence

    def test_node_count_validation(self):
        with pytest.raises(ConfigurationError):
            RandomWaypointTrace(node_count=1).build()


class TestVehicularGridTrace:
    def test_build_and_nodes(self):
        graph = VehicularGridTrace(vehicle_count=8, grid_size=4, steps=200, seed=3).build()
        assert graph.sink == "rsu"
        assert graph.size == 9
        assert graph.length > 0

    def test_reproducible_with_seed(self):
        a = VehicularGridTrace(vehicle_count=6, grid_size=4, steps=80, seed=9).build()
        b = VehicularGridTrace(vehicle_count=6, grid_size=4, steps=80, seed=9).build()
        assert a.sequence == b.sequence

    def test_grid_size_validation(self):
        with pytest.raises(ConfigurationError):
            VehicularGridTrace(grid_size=1).build()


class TestProperties:
    def test_footprint_is_tree(self):
        line = DynamicGraph.create([0, 1, 2], 0, [(0, 1), (1, 2)])
        triangle = DynamicGraph.create([0, 1, 2], 0, [(0, 1), (1, 2), (0, 2)])
        assert footprint_is_tree(line)
        assert not footprint_is_tree(triangle)

    @pytest.mark.parametrize(
        "nodes, expected",
        [([0], True), ([0, 1], False)],
        ids=["one-node", "two-nodes-no-edge"],
    )
    def test_edgeless_footprints_agree_across_entry_points(self, nodes, expected):
        # A single node is a tree; two nodes without an edge are not.
        graph = DynamicGraph.create(nodes, 0, [])
        assert footprint_is_tree(graph) is expected
        assert summarize(graph).footprint_is_tree is expected

    def test_sink_contact_times_and_intercontact(self):
        graph = DynamicGraph.create([0, 1, 2], 0, [(0, 1), (1, 2), (0, 2), (0, 1)])
        times = sink_contact_times(graph)
        assert times == [0, 2, 3]
        assert mean_intercontact_time(times) == pytest.approx(1.5)
        assert mean_intercontact_time([4]) is None

    def test_summarize(self):
        graph = DynamicGraph.create([0, 1, 2], 0, [(0, 1), (1, 2), (0, 1)])
        stats = summarize(graph)
        assert stats.node_count == 3
        assert stats.interaction_count == 3
        assert stats.distinct_pairs == 2
        assert stats.footprint_edges == 2
        assert stats.footprint_is_tree
        assert stats.footprint_is_connected
        assert not stats.recurrent
        assert stats.sink_contact_count == 2

    def test_distinct_sink_contacts_within(self):
        graph = DynamicGraph.create(
            [0, 1, 2, 3], 0, [(0, 1), (0, 1), (0, 2), (0, 3)]
        )
        assert distinct_sink_contacts_within(graph, 2) == 1
        assert distinct_sink_contacts_within(graph, 4) == 3

    def test_temporal_eccentricity(self):
        graph = DynamicGraph.create([0, 1, 2], 0, [(2, 1), (1, 0)])
        ecc = temporal_eccentricity_to_sink(graph)
        assert ecc[2] == 1
        assert ecc[1] == 1

    def test_aggregation_infeasible_when_isolated(self):
        graph = DynamicGraph.create([0, 1, 2], 0, [(0, 1)])
        assert not aggregation_feasible(graph)
