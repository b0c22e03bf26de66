"""Trial-vectorized offline-optimum kernels.

The pure-Python oracle (:mod:`repro.offline.convergecast`) computes foremost
arrival times with one backward sweep over a sequence's whole window.  These
kernels answer the same question with a forward sweep that stops early, one
row of a ``(B, L)`` cell at a time, over the same dense committed index
matrices the trial-vectorized engine consumes
(:meth:`~repro.adversaries.committed.CommittedBlockAdversary.
committed_index_matrix`):

* every node holds the set of data origins that could have reached it so
  far, as a Python-int bitmask (so any ``n`` works);
* an interaction ``(u, v)`` at time ``t`` ORs the two sets into both nodes;
* each origin that newly enters the sink's set arrives at time ``t``;
* the row stops as soon as the sink holds all ``n`` origins — exactly at
  ``opt`` — so a row reads about ``opt`` interactions, not its window.

The oracle stays backward, so the differential tests
(``tests/test_ratio_kernels.py``) pin two independent algorithms to each
other sequence for sequence.  All returned times are float64 — exact for
any realistic horizon (``< 2**53``) — so downstream metrics are
byte-identical no matter which implementation produced them.  Each
:func:`foremost_arrival_matrix` call emits one ``ratio.interactions_swept``
counter: the row-interactions the sweep actually read.

Row conventions (shared with ``committed_index_matrix``):

* ``I[b, t]`` / ``J[b, t]`` are dense node indices of row ``b``'s committed
  interaction at time ``t``; entries at ``t >= lengths[b]`` are padding and
  are never read;
* a row's window is ``[starts[b], lengths[b])``; nodes unreachable within
  it get :data:`~repro.ratio.semantics.UNREACHABLE`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..obs import current_collector
from .semantics import UNREACHABLE

__all__ = [
    "foremost_arrival_matrix",
    "opt_end_matrix",
    "sequence_index_blocks",
    "successive_convergecast_end_matrix",
]

StartSpec = Union[int, np.ndarray]


def _as_matrix(values: np.ndarray) -> np.ndarray:
    matrix = np.ascontiguousarray(values, dtype=np.int64)
    if matrix.ndim != 2:
        raise ValueError(f"expected a (B, L) matrix, got shape {matrix.shape}")
    return matrix


def _starts_vector(starts: StartSpec, batch: int) -> np.ndarray:
    vector = np.broadcast_to(np.asarray(starts, dtype=np.int64), (batch,))
    return vector


def foremost_arrival_matrix(
    i_nodes: np.ndarray,
    j_nodes: np.ndarray,
    lengths: np.ndarray,
    n: int,
    sink: int,
    starts: StartSpec = 0,
) -> np.ndarray:
    """Foremost arrival times at the sink for a whole cell of sequences.

    The vectorized counterpart of :func:`repro.offline.convergecast.
    foremost_arrival_times`: ``result[b, u]`` is the earliest time a
    time-respecting journey starting at or after ``starts[b]`` brings node
    ``u``'s data to the sink using row ``b``'s committed interactions, or
    :data:`~repro.ratio.semantics.UNREACHABLE` when no such journey exists
    within the row's window.  ``result[b, sink] = starts[b] - 1`` by the
    oracle's convention.

    Args:
        i_nodes, j_nodes: ``(B, L)`` dense ``I``/``J`` node-index matrices
            (padding beyond a row's length is ignored; any in-range value
            is acceptable padding).
        lengths: per-row committed lengths, shape ``(B,)``.
        n: number of nodes (dense indices ``0..n-1``).
        sink: dense sink index.
        starts: shared start time, or one per row (shape ``(B,)``).

    Returns:
        ``(B, n)`` float64 arrival-time matrix.
    """
    i_nodes = _as_matrix(i_nodes)
    j_nodes = _as_matrix(j_nodes)
    batch, width = i_nodes.shape
    if j_nodes.shape != i_nodes.shape:
        raise ValueError(
            f"I/J shape mismatch: {i_nodes.shape} vs {j_nodes.shape}"
        )
    stops = np.minimum(np.asarray(lengths, dtype=np.int64), width).tolist()
    starts = _starts_vector(starts, batch).tolist()
    arrival = np.full((batch, n), UNREACHABLE, dtype=np.float64)
    if n == 0:
        return arrival
    full = (1 << n) - 1
    swept = 0
    for b in range(batch):
        arrival[b, sink] = starts[b] - 1
        first = max(starts[b], 0)
        if first >= stops[b]:
            continue
        row = arrival[b]
        held = [1 << node for node in range(n)]
        reached = held[sink]
        # memoryview iteration yields Python ints lazily, so a row that
        # completes early never converts the rest of its window.
        pairs = zip(
            memoryview(i_nodes[b, first:stops[b]]),
            memoryview(j_nodes[b, first:stops[b]]),
        )
        for time, (u, v) in enumerate(pairs, first):
            merged = held[u] | held[v]
            held[u] = held[v] = merged
            if u == sink or v == sink:
                fresh = merged & ~reached
                reached = merged
                while fresh:
                    lowest = fresh & -fresh
                    row[lowest.bit_length() - 1] = time
                    fresh ^= lowest
                if reached == full:
                    break
        swept += time + 1 - first
    current_collector().counter("ratio.interactions_swept", swept)
    return arrival


def opt_end_matrix(
    i_nodes: np.ndarray,
    j_nodes: np.ndarray,
    lengths: np.ndarray,
    n: int,
    sink: int,
    starts: StartSpec = 0,
) -> np.ndarray:
    """The paper's ``opt(start)`` per row: optimal convergecast end times.

    Vectorized counterpart of :func:`repro.offline.convergecast.opt`:
    ``result[b]`` is the ending time of an optimal offline convergecast on
    row ``b`` starting at ``starts[b]``, or
    :data:`~repro.ratio.semantics.UNREACHABLE` when none completes within
    the row's window.  Returns a ``(B,)`` float64 vector.
    """
    i_nodes = _as_matrix(i_nodes)
    batch = i_nodes.shape[0]
    starts = _starts_vector(starts, batch)
    if n <= 1:
        # Degenerate single-node instances: nothing to aggregate (oracle
        # convention: the convergecast is already complete).
        return np.maximum(starts - 1, 0).astype(np.float64)
    arrival = foremost_arrival_matrix(i_nodes, j_nodes, lengths, n, sink, starts=starts)
    non_sink = np.ones(n, dtype=bool)
    non_sink[sink] = False
    return arrival[:, non_sink].max(axis=1)


def successive_convergecast_end_matrix(
    i_nodes: np.ndarray,
    j_nodes: np.ndarray,
    lengths: np.ndarray,
    n: int,
    sink: int,
    count: int,
    starts: StartSpec = 0,
) -> np.ndarray:
    """End times ``T(1) .. T(count)`` of successive convergecasts, per row.

    Vectorized counterpart of :func:`repro.offline.convergecast.
    successive_convergecasts` with a fixed ``count``: ``result[b, i-1]`` is
    the paper's ``T(i)`` for row ``b`` (``T(1) = opt(starts[b])``,
    ``T(i+1) = opt(T(i) + 1)``).  Once a row's convergecasts stop fitting
    in its window, every later entry is
    :data:`~repro.ratio.semantics.UNREACHABLE` — the same sentinel the
    oracle stops listing at.

    Returns a ``(B, count)`` float64 matrix.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    i_nodes = _as_matrix(i_nodes)
    j_nodes = _as_matrix(j_nodes)
    batch, width = i_nodes.shape
    lengths = np.asarray(lengths, dtype=np.int64)
    starts = _starts_vector(starts, batch).copy()
    ends = np.full((batch, count), UNREACHABLE, dtype=np.float64)
    active = np.ones(batch, dtype=bool)
    for round_index in range(count):
        if not active.any():
            break
        # Inactive rows sweep an empty window (start beyond the row), so
        # one matrix call serves every row each round.
        round_starts = np.where(active, starts, width)
        round_ends = opt_end_matrix(
            i_nodes, j_nodes, lengths, n, sink, starts=round_starts
        )
        ends[active, round_index] = round_ends[active]
        finite = np.isfinite(round_ends) & active
        # Guard against degenerate instances where opt() cannot advance the
        # start (e.g. n <= 1): stop instead of looping on the same window.
        progressed = finite & (round_ends + 1 > starts)
        active = progressed
        safe_ends = np.where(finite, round_ends, 0).astype(np.int64)
        starts = np.where(progressed, safe_ends + 1, starts)
    return ends


def sequence_index_blocks(
    sequence, index_of: Dict, length: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Dense node-index arrays for a finite interaction sequence prefix.

    Adapts an :class:`~repro.core.interaction.InteractionSequence` to the
    kernels' input shape, mirroring how the executors map node identifiers
    to dense indices (``index_of``).  Returns ``(i, j)`` int64 arrays of
    the first ``length`` interactions (the whole sequence by default).

    Raises:
        KeyError: if the prefix mentions a node outside ``index_of``.
    """
    limit = len(sequence) if length is None else min(length, len(sequence))
    i = np.fromiter(
        (index_of[sequence[k].u] for k in range(limit)),
        dtype=np.int64,
        count=limit,
    )
    j = np.fromiter(
        (index_of[sequence[k].v] for k in range(limit)),
        dtype=np.int64,
        count=limit,
    )
    return i, j
