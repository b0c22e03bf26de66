"""Non-uniform randomized adversary (concluding remarks, question 3).

The paper closes by asking whether randomized adversaries with a
*non-uniform* interaction distribution change the Section 4 bounds (in the
spirit of Yamauchi et al. on probabilistic schedulers).  This adversary
draws each interaction with probability proportional to the product of the
two endpoints' weights, which covers the natural skews:

* a *popular hub* (one node, possibly the sink, with a much larger weight);
* *Zipf-distributed* activity (a few very social nodes, a long tail);
* the uniform adversary as the special case of equal weights.

The committed-future machinery is shared with :class:`RandomizedAdversary`
through :class:`~repro.adversaries.committed.CommittedBlockAdversary`, so
the ``meetTime`` and ``future`` oracles stay consistent with the replayed
interactions, both engines can consume the adversary (the vectorized one
in batches), and the ablation experiment (E18) can rerun the paper's
algorithms unchanged under the skewed distribution.

The pair distribution depends only on the weight vector, so it lives in an
immutable :class:`PairTable` built once per process per weight vector
(:func:`pair_table`) and shared by every trial that uses those weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..core.data import NodeId
from ..core.exceptions import ConfigurationError
from .committed import CommittedBlockAdversary


def zipf_weights(nodes: Sequence[NodeId], exponent: float = 1.0) -> Dict[NodeId, float]:
    """Zipf-like activity weights: the i-th node gets weight ``1 / (i+1)^exponent``."""
    return {
        node: 1.0 / (index + 1) ** exponent for index, node in enumerate(nodes)
    }


def hub_weights(
    nodes: Sequence[NodeId], hub: NodeId, hub_factor: float = 10.0
) -> Dict[NodeId, float]:
    """Equal weights except for one hub node that is ``hub_factor`` times more active."""
    weights = {node: 1.0 for node in nodes}
    if hub not in weights:
        raise ConfigurationError(f"hub {hub!r} is not one of the nodes")
    weights[hub] = hub_factor
    return weights


#: Linear guide-table steps per lookup before the remaining points fall back
#: to a binary search; past four, the scan's per-step overhead dominates.
GUIDE_SCAN_STEPS = 4


@dataclass(frozen=True)
class PairTable:
    """The inverse-CDF sampling table of one weight vector (read-only arrays).

    ``pi[k] < pj[k]`` are the dense endpoints of pair ``k``, in
    ``itertools.combinations`` order; ``cdf[k]`` is the cumulative
    probability of pairs ``0..k`` (``cdf[-1] == 1.0``).  ``guide`` is a
    cutpoint index over ``M = len(guide) - 1`` equal buckets of ``[0, 1)``:
    ``guide[b]`` is the first pair whose ``cdf`` reaches ``b / M``.
    """

    pi: np.ndarray
    pj: np.ndarray
    cdf: np.ndarray
    guide: np.ndarray

    def lookup(self, points: np.ndarray) -> np.ndarray:
        """``searchsorted(cdf, points, "left")`` for points in ``[0, 1)``.

        ``M`` is a power of two, so ``points * M`` and ``b / M`` are exact
        and the first pair reaching ``p`` lies in
        ``[guide[b], guide[b + 1]]`` for ``b = floor(p * M)``; a short
        vectorised scan from ``guide[b]`` finds it, giving exactly the
        binary search's answer without its per-key cost.  The few points
        in crowded buckets (a steep Zipf tail packs hundreds of pairs into
        one) still unresolved after :data:`GUIDE_SCAN_STEPS` steps take the
        binary search itself.
        """
        guide, cdf = self.guide, self.cdf
        buckets = (points * (guide.shape[0] - 1)).astype(np.int64)
        picks = guide[buckets]
        stops = guide[buckets + 1]
        active = np.flatnonzero(picks < stops)
        for _ in range(GUIDE_SCAN_STEPS):
            if not active.size:
                return picks
            active = active[cdf[picks[active]] < points[active]]
            picks[active] += 1
            active = active[picks[active] < stops[active]]
        if active.size:
            picks[active] = np.searchsorted(cdf, points[active], side="left")
        return picks


#: Weight vectors whose pair tables stay cached per process; a campaign grid
#: touches a handful (one per skewed family, parameter set and ``n``).
PAIR_TABLE_CACHE_SIZE = 8


@lru_cache(maxsize=PAIR_TABLE_CACHE_SIZE)
def pair_table(weights: Tuple[float, ...]) -> PairTable:
    """The shared :class:`PairTable` of a weight vector given in node order.

    The table depends only on ``n`` and the weights, never on node
    identities.  The total and the running sum are both sequential
    (``np.cumsum``), so every ``cdf`` entry is bit-identical to a Python
    running sum over the ``combinations`` order; ``ndarray.sum`` would sum
    pairwise and differ in the last bits.
    """
    pi, pj = np.triu_indices(len(weights), 1)
    w = np.asarray(weights, dtype=np.float64)
    pair_weights = w[pi] * w[pj]
    cdf = np.cumsum(pair_weights / np.cumsum(pair_weights)[-1])
    cdf[-1] = 1.0
    buckets = 1 << (4 * cdf.shape[0] - 1).bit_length()
    guide = np.searchsorted(cdf, np.arange(buckets + 1) / buckets, side="left")
    for array in (pi, pj, cdf, guide):
        array.flags.writeable = False
    return PairTable(pi=pi, pj=pj, cdf=cdf, guide=guide)


class NonUniformRandomizedAdversary(CommittedBlockAdversary):
    """Randomized adversary with pair probability proportional to weight products."""

    family = "randomized"

    def __init__(
        self,
        nodes: Sequence[NodeId],
        weights: Optional[Dict[NodeId, float]] = None,
        seed: Optional[int] = None,
        max_horizon: int = 10_000_000,
    ) -> None:
        super().__init__(nodes, max_horizon=max_horizon)
        weights = weights or {node: 1.0 for node in self._nodes}
        missing = set(self._nodes) - set(weights)
        if missing:
            raise ConfigurationError(
                f"missing weights for nodes {sorted(map(repr, missing))}"
            )
        if any(weights[node] <= 0 for node in self._nodes):
            raise ConfigurationError("weights must be strictly positive")
        self._weights = {node: float(weights[node]) for node in self._nodes}
        self._table = pair_table(tuple(self._weights[node] for node in self._nodes))
        # Seeded PCG64 stream (seeds arrive derived via repro.sim.seeding);
        # the stdlib-random stream this replaces was never byte-pinned — the
        # committed-future contract only requires draws to be a pure,
        # chunk-alignment-independent function of the seed, which a single
        # Generator consumed in commit order satisfies.
        self._rng = np.random.Generator(np.random.PCG64(seed))

    # ------------------------------------------------------------------ #
    def pair_probability(self, u: NodeId, v: NodeId) -> float:
        """The per-interaction probability of the pair ``{u, v}``.

        Raises:
            ValueError: if ``u == v`` or either node is not in the node set.
        """
        iu, iv = self._index_of.get(u), self._index_of.get(v)
        if iu is None or iv is None or iu == iv:
            raise ValueError(f"({u!r}, {v!r}) is not a pair of distinct nodes")
        a, b = min(iu, iv), max(iu, iv)
        index = a * (2 * len(self._nodes) - a - 1) // 2 + (b - a - 1)
        cdf = self._table.cdf
        lower = float(cdf[index - 1]) if index > 0 else 0.0
        return float(cdf[index]) - lower

    def _sample_block(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Draw ``k`` pairs by inverse-CDF sampling, one uniform each.

        Exactly one RNG value is consumed per committed interaction, in
        commit order (PCG64 doubles are generated sequentially, so a block
        draw of ``k`` equals ``k`` single draws), keeping the committed
        future a pure prefix-deterministic function of the seed regardless
        of chunk alignment.
        """
        table = self._table
        picks = table.lookup(self._rng.random(k))
        return table.pi[picks], table.pj[picks]

    def _meeting_search_block(self, iu: int, iv: int) -> int:
        """Extend by the pair's expected waiting time per probe."""
        u, v = self._nodes[iu], self._nodes[iv]
        return max(16, int(2.0 / max(self.pair_probability(u, v), 1e-9)))
