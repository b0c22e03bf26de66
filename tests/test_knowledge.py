"""Unit tests for the knowledge oracles and the bundle."""

import pytest

from repro.adversaries.randomized import RandomizedAdversary
from repro.core.exceptions import HorizonExhaustedError, KnowledgeError
from repro.core.interaction import InteractionSequence
from repro.graph.adjacency import edge_count
from repro.knowledge import (
    FullKnowledge,
    FutureKnowledge,
    KnowledgeBundle,
    MeetTimeKnowledge,
    UnderlyingGraphKnowledge,
)


@pytest.fixture
def committed_sequence():
    return InteractionSequence.from_pairs(
        [(1, 2), (1, 0), (2, 0), (1, 2), (2, 0)]
    )


class TestMeetTime:
    def test_from_finite_sequence(self, committed_sequence):
        oracle = MeetTimeKnowledge(committed_sequence, sink=0, horizon=100)
        assert oracle.meet_time(1, 0) == 1
        assert oracle.meet_time(2, 0) == 2
        assert oracle.meet_time(2, 2) == 4

    def test_sink_meet_time_is_identity(self, committed_sequence):
        oracle = MeetTimeKnowledge(committed_sequence, sink=0, horizon=100)
        assert oracle.meet_time(0, 17) == 17

    def test_no_future_meeting_returns_beyond_horizon(self, committed_sequence):
        # "Never meets within the horizon" must compare strictly larger than
        # any legal tau (including tau == horizon), hence horizon + 1.
        oracle = MeetTimeKnowledge(committed_sequence, sink=0, horizon=50)
        assert oracle.meet_time(1, 1) == 51

    def test_strict_mode_raises(self, committed_sequence):
        oracle = MeetTimeKnowledge(committed_sequence, sink=0, horizon=50, strict=True)
        with pytest.raises(HorizonExhaustedError):
            oracle.meet_time(1, 1)

    def test_no_horizon_and_no_meeting_raises(self, committed_sequence):
        oracle = MeetTimeKnowledge(committed_sequence, sink=0)
        with pytest.raises(HorizonExhaustedError):
            oracle.meet_time(1, 1)

    def test_consistent_with_randomized_adversary(self):
        adversary = RandomizedAdversary(list(range(6)), seed=11)
        oracle = MeetTimeKnowledge(adversary, sink=0, horizon=10_000)
        answer = oracle.meet_time(3, 0)
        # The adversary must indeed schedule {3, 0} at the answered time.
        sequence = adversary.committed_prefix(answer + 1)
        assert sequence[answer].pair == frozenset({3, 0})
        for time in range(1, answer):
            assert sequence[time].pair != frozenset({3, 0})


class TestFuture:
    def test_future_lists_all_meetings(self, committed_sequence):
        oracle = FutureKnowledge(committed_sequence)
        assert oracle.future(1) == [(0, 2), (1, 0), (3, 2)]
        assert oracle.future(0) == [(1, 1), (2, 2), (4, 2)]

    def test_future_is_cached_but_copied(self, committed_sequence):
        oracle = FutureKnowledge(committed_sequence)
        first = oracle.future(1)
        first.append((99, 99))
        assert oracle.future(1) == [(0, 2), (1, 0), (3, 2)]


class TestUnderlyingGraph:
    def test_from_sequence(self, committed_sequence):
        oracle = UnderlyingGraphKnowledge([0, 1, 2], sequence=committed_sequence)
        graph = oracle.underlying_graph()
        assert edge_count(graph) == 3

    def test_from_edges(self):
        oracle = UnderlyingGraphKnowledge([0, 1, 2], edges=[(0, 1), (1, 2)])
        assert oracle.edge_set == {frozenset({0, 1}), frozenset({1, 2})}

    def test_exactly_one_source_required(self, committed_sequence):
        with pytest.raises(ValueError):
            UnderlyingGraphKnowledge([0, 1], edges=[(0, 1)], sequence=committed_sequence)
        with pytest.raises(ValueError):
            UnderlyingGraphKnowledge([0, 1])

    def test_returned_graph_is_shared_and_read_only(self):
        oracle = UnderlyingGraphKnowledge([0, 1], edges=[(0, 1)])
        graph = oracle.underlying_graph()
        assert oracle.underlying_graph() is graph
        assert graph == {0: {1}, 1: {0}}
        with pytest.raises(TypeError):
            graph[0] = frozenset()
        with pytest.raises(TypeError):
            del graph[1]
        assert oracle.edge_set == {frozenset({0, 1})}

    def test_bfs_tree_is_memoized_per_typed_root(self):
        oracle = UnderlyingGraphKnowledge([1, 2, 3], edges=[(1, 2), (2, 3)])
        tree = oracle.bfs_tree(1)
        assert oracle.bfs_tree(1) is tree
        assert tree == ({1: None, 2: 1, 3: 2}, {1: {2}, 2: {3}, 3: set()})
        assert oracle.bfs_tree(True) is not tree
        assert oracle.bfs_tree(3) == ({3: None, 2: 3, 1: 2}, {3: {2}, 2: {1}, 1: set()})


class TestFullKnowledgeOracle:
    def test_full_sequence_returned(self, committed_sequence):
        oracle = FullKnowledge(committed_sequence)
        assert oracle.full_sequence() == committed_sequence


class TestBundle:
    def test_provides_and_dispatch(self, committed_sequence):
        bundle = KnowledgeBundle(
            MeetTimeKnowledge(committed_sequence, sink=0, horizon=100),
            FutureKnowledge(committed_sequence),
            FullKnowledge(committed_sequence),
            UnderlyingGraphKnowledge([0, 1, 2], sequence=committed_sequence),
        )
        assert bundle.provides() == {
            "meetTime",
            "future",
            "full_knowledge",
            "underlying_graph",
        }
        assert bundle.meet_time(1, 0) == 1
        assert bundle.future(2)
        assert bundle.full_sequence() == committed_sequence
        assert edge_count(bundle.underlying_graph()) == 3

    def test_missing_oracle_raises(self, committed_sequence):
        bundle = KnowledgeBundle(FutureKnowledge(committed_sequence))
        with pytest.raises(KnowledgeError):
            bundle.meet_time(1, 0)

    def test_oracle_without_name_rejected(self):
        with pytest.raises(KnowledgeError):
            KnowledgeBundle(object())

    def test_has(self, committed_sequence):
        bundle = KnowledgeBundle(FutureKnowledge(committed_sequence))
        assert bundle.has("future")
        assert not bundle.has("meetTime")
