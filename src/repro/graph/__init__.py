"""Dynamic graph model, generators, journeys and contact-trace substrates."""

from .dynamic_graph import DynamicGraph
from .generators import (
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
from .journeys import (
    Journey,
    earliest_arrivals_from,
    foremost_journey,
    is_temporally_connected_to,
    journey_exists,
    temporal_reachability_matrix,
)
from .properties import (
    SequenceStatistics,
    aggregation_feasible,
    distinct_sink_contacts_within,
    footprint_is_tree,
    mean_intercontact_time,
    sink_contact_times,
    summarize,
    temporal_eccentricity_to_sink,
)
from .trace_io import (
    load_contact_csv,
    save_contact_csv,
    sequence_from_contact_events,
)
from .traces import BodyAreaNetworkTrace, RandomWaypointTrace, VehicularGridTrace

__all__ = [
    "BodyAreaNetworkTrace",
    "DynamicGraph",
    "Journey",
    "RandomWaypointTrace",
    "SequenceStatistics",
    "VehicularGridTrace",
    "aggregation_feasible",
    "all_pairs",
    "default_nodes",
    "distinct_sink_contacts_within",
    "earliest_arrivals_from",
    "edge_markov_sequence",
    "footprint_is_tree",
    "foremost_journey",
    "is_temporally_connected_to",
    "journey_exists",
    "line_sequence",
    "load_contact_csv",
    "mean_intercontact_time",
    "periodic_sequence",
    "random_tree",
    "ring_sequence",
    "round_robin_sequence",
    "save_contact_csv",
    "sequence_from_contact_events",
    "sequence_with_footprint",
    "sink_contact_times",
    "star_with_sink_sequence",
    "summarize",
    "temporal_eccentricity_to_sink",
    "temporal_reachability_matrix",
    "tree_recurrent_sequence",
    "uniform_random_sequence",
]
