"""Pins of the skewed (zipf/hub) committed streams and their sampling table.

The golden vector below was recorded from the per-trial Python table
construction and ``np.searchsorted`` draws that the shared, guide-indexed
:class:`~repro.adversaries.nonuniform.PairTable` replaced; any change to
the committed future of a skewed family shows up here.  The differential
suites cannot see such a change, because they feed one adversary object to
both engines.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.adversaries.committed import COMMIT_CHUNK
from repro.adversaries.factory import make_adversary
from repro.adversaries.nonuniform import (
    NonUniformRandomizedAdversary,
    PairTable,
    hub_weights,
    pair_table,
    zipf_weights,
)
from repro.algorithms.kernels import KernelUnsupported, SpanningTreeKernel
from repro.algorithms.spanning_tree import SpanningTreeAggregation
from repro.graph import adjacency as adjacency_module
from repro.knowledge import KnowledgeBundle, UnderlyingGraphKnowledge, complete_footprint
from repro.knowledge.underlying_graph import _complete_footprint
from repro.sim.runner import build_knowledge_for_random_run, run_random_trial

FAMILIES = [
    ("zipf", {"exponent": 1.0}),
    ("zipf", {"exponent": 1.5}),
    ("hub", {}),
]
NS = (5, 80, 160, 480)

#: sha256 of the first 3 * COMMIT_CHUNK committed (i, j) dense-index pairs
#: (little-endian int64, row-major), nodes 0..n-1, sink 0.
GOLDEN_STREAMS = {
    ("zipf", 1.0, 5, 0): "ace8e41bb4827ae1c1409d2d0b3ffd4bdddd8e8798e3277c7da1cf0ff035b045",
    ("zipf", 1.0, 5, 1): "7a48d3566d44cd16ebf4386ba2ab7a41b689b0656325ea52cc859393cb85013c",
    ("zipf", 1.0, 80, 0): "97ca2f72633cd7714f3decf2698c042fde5c2e35dbb62321dbb20e2550957b00",
    ("zipf", 1.0, 80, 1): "a6979949a5743d9f770c2b79fb252480534b31b80224390a9441c3ba93fe323e",
    ("zipf", 1.0, 160, 0): "3e3ac7f49bf43a03651e23a709e4fd8d684c3c2f9902ea458236bb2ae9993138",
    ("zipf", 1.0, 160, 1): "4516ebde492f0149e2abc62da33b973adbd823bf3d90cb8346538b7c70a52216",
    ("zipf", 1.0, 480, 0): "34a0f2d4b10c577fa9466bd73528314caf567b5cb7154ef3de2ef73c53942dcd",
    ("zipf", 1.0, 480, 1): "1a136f743c1beb229edd73a582761231a91a338072d7a3b29c3b863d37c3da41",
    ("zipf", 1.5, 5, 0): "59700df91032f45825524e0690b113bb79423d2529707f064ffabda6885b7eaa",
    ("zipf", 1.5, 5, 1): "d3ee727d083bf8327b779e52c09c0e17520f42758a6e3fa3e8aa7c10d01a0c07",
    ("zipf", 1.5, 80, 0): "7f5b95d9c12c289a7deb2522664f2ddf925048c7d1602cf932671c62d10d7364",
    ("zipf", 1.5, 80, 1): "e3f7173fc2738ccff7a3affdebe1929aafdaaeaaf221898e4e513c4e2a16b295",
    ("zipf", 1.5, 160, 0): "871a97d4857ce85ac979cf2bc7905ca8f4c182023ec07c7a63d8bdc6eb23fbac",
    ("zipf", 1.5, 160, 1): "9920710b372faf22f03ce40bd3f2c1eefeae1fe73dce05a6ed6ac0fd710a58f2",
    ("zipf", 1.5, 480, 0): "e5bfb4664cfb40da557785b913da4c4ed811a2651e0c887c6cdb17b070a1e706",
    ("zipf", 1.5, 480, 1): "4b62ed9a357820915bc793c8403f009acdb112668fdd95be722b0653a7ae2f3c",
    ("hub", 8.0, 5, 0): "adc7ec02cae2a8d7744596b07cc21ef622cade4101e77c7ccb8b0b9dfecdb0f0",
    ("hub", 8.0, 5, 1): "77e352376dc40d9421858fffba6234cc49f15894830ce5a8fb127d5414a1b920",
    ("hub", 8.0, 80, 0): "f6aed910b74547baf1ef1d5e04dcf4110f1648f14b05b352b653b25b52b4886e",
    ("hub", 8.0, 80, 1): "d7636207a71a476fd1f5739d30ddeeb4999ee38eed157d4ed0b8be86e7c6e359",
    ("hub", 8.0, 160, 0): "1481c1e9877ff414b816722c4c4c4b2e4fdd9d289a9a69676a2dbef7b39a9054",
    ("hub", 8.0, 160, 1): "c659615b09d5204569839e19170bc4f612175132304ef54360237b1a6e3785be",
    ("hub", 8.0, 480, 0): "c88250b4e34c983501c83fee4e73bcb63a6c82652dbb46c95fc3b94b367e657e",
    ("hub", 8.0, 480, 1): "e1a7655519957ded7383696abb648d1923f690004eccccba385f25529fd0e812",
}


def _weights(family: str, params: dict, n: int) -> Dict[int, float]:
    nodes = list(range(n))
    if family == "zipf":
        return zipf_weights(nodes, exponent=params["exponent"])
    return hub_weights(nodes, hub=0, hub_factor=8.0)


def _python_table(
    weights: Dict[int, float], n: int
) -> Tuple[List[Tuple[int, int]], List[float]]:
    """The per-trial construction the shared table replaced."""
    pairs = list(itertools.combinations(range(n), 2))
    pair_weights = [weights[u] * weights[v] for u, v in pairs]
    total = sum(pair_weights)
    cumulative: List[float] = []
    running = 0.0
    for weight in pair_weights:
        running += weight / total
        cumulative.append(running)
    cumulative[-1] = 1.0
    return pairs, cumulative


def _table_of(family: str, params: dict, n: int) -> PairTable:
    weights = _weights(family, params, n)
    return pair_table(tuple(float(weights[node]) for node in range(n)))


CASES = [(family, params, n) for family, params in FAMILIES for n in NS]
CASE_IDS = [f"{family}{params.get('exponent', '')}-n{n}" for family, params, n in CASES]


class TestGoldenStreams:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("family,params,n", CASES, ids=CASE_IDS)
    def test_committed_stream_is_pinned(self, family, params, n, seed):
        adversary = make_adversary(
            family, list(range(n)), seed=seed, sink=0, params=params
        )
        i, j = adversary.committed_index_block(0, 3 * COMMIT_CHUNK)
        data = np.stack([i, j], axis=1).astype("<i8").tobytes()
        key = (family, params.get("exponent", 8.0), n, seed)
        assert hashlib.sha256(data).hexdigest() == GOLDEN_STREAMS[key]


class TestPairTable:
    @pytest.mark.parametrize("family,params,n", CASES, ids=CASE_IDS)
    def test_bit_identical_to_python_construction(self, family, params, n):
        pairs, cumulative = _python_table(_weights(family, params, n), n)
        table = _table_of(family, params, n)
        assert table.pi.tolist() == [u for u, _ in pairs]
        assert table.pj.tolist() == [v for _, v in pairs]
        assert table.cdf.tolist() == cumulative

    @pytest.mark.parametrize("family,params,n", CASES, ids=CASE_IDS)
    def test_lookup_equals_searchsorted(self, family, params, n):
        table = _table_of(family, params, n)
        cdf = table.cdf
        rng = np.random.default_rng(n)
        # Exact cdf entries inside the sampler's domain [0, 1).
        sample = cdf[rng.integers(0, cdf.shape[0], size=min(cdf.shape[0], 4096))]
        points = np.concatenate(
            [rng.random(20_000), sample[sample < 1.0], [0.0, np.nextafter(1.0, 0.0)]]
        )
        last = cdf.shape[0] - 1
        expected = np.minimum(np.searchsorted(cdf, points, side="left"), last)
        assert np.array_equal(table.lookup(points), expected)

    @pytest.mark.parametrize("weights", [
        (1.0,) * 5,  # cdf[4] == 0.5 sits exactly on a bucket boundary
        (8.0, 1.0, 1.0, 1.0, 1.0),
        tuple(zipf_weights(range(5), exponent=1.5).values()),
    ])
    def test_lookup_on_every_bucket_boundary(self, weights):
        table = pair_table(weights)
        buckets = table.guide.shape[0] - 1
        points = np.arange(buckets) / buckets
        points = np.concatenate([points, np.nextafter(points[1:], 0.0)])
        expected = np.searchsorted(table.cdf, points, side="left")
        assert np.array_equal(table.lookup(points), expected)

    def test_guide_has_power_of_two_buckets(self):
        table = _table_of("hub", {}, 80)
        buckets = table.guide.shape[0] - 1
        assert buckets & (buckets - 1) == 0
        assert buckets >= 4 * table.cdf.shape[0]

    def test_equal_weights_share_one_read_only_table(self):
        nodes = list(range(12))
        first = NonUniformRandomizedAdversary(nodes, zipf_weights(nodes), seed=1)
        second = NonUniformRandomizedAdversary(nodes, zipf_weights(nodes), seed=2)
        assert first._table is second._table
        for array in (first._table.pi, first._table.pj,
                      first._table.cdf, first._table.guide):
            assert not array.flags.writeable

    def test_table_ignores_node_identities(self):
        ints = NonUniformRandomizedAdversary([1, 2, 3], seed=0)
        mixed = NonUniformRandomizedAdversary([True, 2.0, "c"], seed=0)
        assert ints._table is mixed._table
        for left, right in zip(
            ints.committed_index_block(0, 50), mixed.committed_index_block(0, 50)
        ):
            assert np.array_equal(left, right)


class TestPairProbability:
    @pytest.mark.parametrize("family,params", FAMILIES)
    def test_matches_the_list_index_construction(self, family, params):
        n = 9
        weights = _weights(family, params, n)
        adversary = NonUniformRandomizedAdversary(list(range(n)), weights, seed=0)
        pairs, cumulative = _python_table(weights, n)
        for u in range(n):
            for v in range(n):
                if u == v:
                    continue
                try:
                    index = pairs.index((u, v))
                except ValueError:
                    index = pairs.index((v, u))
                lower = cumulative[index - 1] if index > 0 else 0.0
                assert adversary.pair_probability(u, v) == cumulative[index] - lower

    @pytest.mark.parametrize("u,v", [(2, 2), (0, 99), (99, 0)])
    def test_invalid_pair_names_the_pair(self, u, v):
        adversary = NonUniformRandomizedAdversary(list(range(5)), seed=0)
        with pytest.raises(ValueError, match=rf"\({u}, {v}\)"):
            adversary.pair_probability(u, v)


class TestCompleteFootprint:
    def test_one_oracle_per_node_tuple(self):
        assert complete_footprint([0, 1, 2]) is complete_footprint((0, 1, 2))
        oracle = complete_footprint([0, 1, 2, 3])
        assert oracle.edge_set == {
            frozenset(pair) for pair in itertools.combinations(range(4), 2)
        }

    def test_equal_but_differently_typed_nodes_do_not_alias(self):
        ints = complete_footprint([1, 2])
        mixed = complete_footprint([True, 2])
        assert ints is not mixed
        assert [repr(node) for node in mixed.underlying_graph()] == ["True", "2"]

    def test_trials_share_the_oracle(self):
        algorithm = SpanningTreeAggregation()
        nodes = list(range(6))
        bundles = [
            build_knowledge_for_random_run(
                algorithm, make_adversary("uniform", nodes, seed=seed), nodes, 0, 100
            )[0]
            for seed in (0, 1)
        ]
        first, second = (bundle.oracle("underlying_graph") for bundle in bundles)
        assert first is second


class TestSpanningTreeMemo:
    @staticmethod
    def _prepare(knowledge, sink_node, nodes):
        index_of = {node: position for position, node in enumerate(nodes)}
        return SpanningTreeKernel().prepare(
            SpanningTreeAggregation(), None, knowledge, 100, len(nodes),
            index_of.get(sink_node), sink_node=sink_node, index_of=index_of,
        )

    def test_memoized_tree_equals_a_fresh_one(self):
        nodes = list(range(7))
        shared = complete_footprint(nodes)
        fresh = UnderlyingGraphKnowledge(
            nodes, edges=list(itertools.combinations(nodes, 2))
        )
        for sink in (0, 3):
            first = self._prepare(KnowledgeBundle(shared), sink, nodes)
            again = self._prepare(KnowledgeBundle(shared), sink, nodes)
            reference = self._prepare(KnowledgeBundle(fresh), sink, nodes)
            assert first.parent_list == again.parent_list == reference.parent_list
            assert first.needed == again.needed == reference.needed
            # Each trial gets its own running counters.
            first.received[0] += 1
            assert again.received[0] == 0

    def test_reference_trials_run_the_bfs_once(self, monkeypatch):
        calls = []
        real_bfs = adjacency_module.bfs

        def counting_bfs(graph, root):
            calls.append(root)
            return real_bfs(graph, root)

        monkeypatch.setattr(adjacency_module, "bfs", counting_bfs)
        _complete_footprint.cache_clear()
        for seed in (0, 1):
            metrics = run_random_trial(
                SpanningTreeAggregation(), 8, seed, engine="reference"
            )
            assert metrics.terminated
        assert calls == [0]

    def test_sink_outside_the_graph_is_unsupported(self):
        oracle = complete_footprint([0, 1, 2])
        for _ in range(2):
            with pytest.raises(KernelUnsupported):
                self._prepare(KnowledgeBundle(oracle), 9, [0, 1, 2, 9])
