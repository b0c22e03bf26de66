"""Differential tests: ratio kernels vs the pure-Python offline oracle.

The vectorized kernels in :mod:`repro.ratio.kernels` must reproduce
:mod:`repro.offline.convergecast` sequence for sequence — foremost arrival
times, ``opt(t)`` and successive-convergecast end times — on random
sequences, committed adversary cells and trace replays, including the
impossible-aggregation sentinel cases.  This file also pins the hardened
:func:`~repro.offline.convergecast.successive_convergecasts` semantics
(satellite: documented sentinel instead of looping/raising on traces that
never complete) and the scalar ratio vocabulary of
:mod:`repro.ratio.semantics`.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from strategies import random_dense_pairs, random_sequence

from repro.adversaries.committed import CommittedBlockAdversary
from repro.adversaries.factory import make_adversary
from repro.adversaries.mobility import TraceReplayAdversary
from repro.core.interaction import InteractionSequence
from repro.offline.convergecast import (
    INFINITY,
    foremost_arrival_times,
    opt,
    successive_convergecasts,
)
from repro.ratio.kernels import (
    foremost_arrival_matrix,
    opt_end_matrix,
    sequence_index_blocks,
    successive_convergecast_end_matrix,
)
from repro.ratio.semantics import (
    RATIO_UNDEFINED,
    UNREACHABLE,
    competitive_ratio,
    opt_cost_from_end,
)


# random_sequence is shared suite-wide — see tests/strategies.py.

#: Node counts on and across the 64-bit word boundary.
WIDE_NS = (64, 65, 130)


def random_case(rng: random.Random):
    """One differential case: ``(n, sink, sequence)``.

    ``n`` is small (convergecasts complete often) or on a word boundary,
    the sink is any node, and the sequence may be too short to complete.
    """
    n = rng.choice((2, 3, 5, 8, 9) + WIDE_NS)
    sink = rng.randrange(n)
    return n, sink, random_sequence(rng, n, rng.randint(0, 12 * n))


def truncated_at_opt(sequence: InteractionSequence, n: int, sink: int):
    """The prefix whose final interaction brings the last origin to the sink.

    Returns ``None`` when no convergecast completes.  A sweep that stops one
    interaction short of a row's length cannot match the oracle on it.
    """
    end = opt(sequence, list(range(n)), sink)
    if not math.isfinite(end):
        return None
    return InteractionSequence(
        [sequence[k] for k in range(int(end) + 1)]
    )


def window_starts(length: int):
    """Starts before 0, at 0, inside the window, at its end and past it.

    The oracle reads ``sequence[start]`` for negative starts, so they stay
    within ``-length``.
    """
    return (-min(2, length), 0, length // 2, length, length + 3)


def padded_cell(rng: random.Random, sequences, n: int):
    """``(I, J, lengths)`` for ``sequences`` with random-interaction padding.

    The padding is ``4 * n`` random interactions past every row's length,
    where a convergecast would often complete: a sweep that reads beyond
    ``lengths`` gives itself away (zero padding would be a sink self-loop
    for sink 0, which changes nothing).
    """
    index_of = {node: node for node in range(n)}
    width = max(len(s) for s in sequences) + 4 * n
    I = np.empty((len(sequences), width), dtype=np.int64)
    J = np.empty_like(I)
    for row, sequence in enumerate(sequences):
        I[row], J[row] = random_dense_pairs(rng, n, width)
        i, j = sequence_index_blocks(sequence, index_of)
        I[row, : len(sequence)] = i
        J[row, : len(sequence)] = j
    lengths = np.array([len(s) for s in sequences], dtype=np.int64)
    return I, J, lengths


def assert_arrivals_match(kernel_row, sequence, n, sink, start):
    oracle = foremost_arrival_times(sequence, list(range(n)), sink, start=start)
    for node in range(n):
        assert kernel_row[node] == float(oracle[node]), (n, sink, start, node)


class TestForemostArrivalMatrix:
    def test_matches_oracle_on_random_sequences(self):
        rng = random.Random(7)
        for _ in range(120):
            n, sink, sequence = random_case(rng)
            I, J, lengths = padded_cell(rng, [sequence], n)
            for start in window_starts(len(sequence)):
                kernel = foremost_arrival_matrix(
                    I, J, lengths, n, sink, starts=start
                )
                assert_arrivals_match(kernel[0], sequence, n, sink, start)

    def test_last_origin_arrives_at_the_final_interaction(self):
        rng = random.Random(11)
        checked = 0
        for _ in range(60):
            n, sink, sequence = random_case(rng)
            prefix = truncated_at_opt(sequence, n, sink)
            if prefix is None:
                continue
            I, J, lengths = padded_cell(rng, [prefix], n)
            kernel = foremost_arrival_matrix(I, J, lengths, n, sink)
            assert kernel[0].max() == len(prefix) - 1
            assert_arrivals_match(kernel[0], prefix, n, sink, 0)
            checked += 1
        assert checked >= 10

    def test_disconnected_node_is_unreachable(self):
        # Node 3 never interacts: its arrival must be the inf sentinel.
        sequence = InteractionSequence.from_pairs([(1, 0), (2, 0), (1, 2)])
        I, J, lengths = padded_cell(random.Random(1), [sequence], 4)
        kernel = foremost_arrival_matrix(I, J, lengths, 4, 0)
        assert kernel[0, 3] == UNREACHABLE

    def test_rows_with_different_lengths_and_padding(self):
        rng = random.Random(13)
        for n in (6,) + WIDE_NS:
            sink = rng.randrange(n)
            sequences = [
                random_sequence(rng, n, length)
                for length in (0, 5, 40 * n // 6, 17 * n // 6)
            ]
            complete = truncated_at_opt(random_sequence(rng, n, 12 * n), n, sink)
            if complete is not None:
                sequences.append(complete)
            I, J, lengths = padded_cell(rng, sequences, n)
            kernel = foremost_arrival_matrix(I, J, lengths, n, sink)
            for row, sequence in enumerate(sequences):
                assert_arrivals_match(kernel[row], sequence, n, sink, 0)

    def test_empty_batch(self):
        I = np.empty((0, 0), dtype=np.int64)
        arrival = foremost_arrival_matrix(I, I, np.empty(0, dtype=np.int64), 4, 0)
        assert arrival.shape == (0, 4)


class TestOptEndMatrix:
    def test_matches_oracle_including_unreachable(self):
        rng = random.Random(21)
        for _ in range(120):
            n, sink, sequence = random_case(rng)
            I, J, lengths = padded_cell(rng, [sequence], n)
            for start in window_starts(len(sequence)):
                kernel = opt_end_matrix(I, J, lengths, n, sink, starts=start)
                assert kernel[0] == float(
                    opt(sequence, list(range(n)), sink, start=start)
                )

    def test_per_row_starts(self):
        rng = random.Random(3)
        for n in (5, 65):
            sink = n - 1
            sequence = random_sequence(rng, n, 10 * n)
            starts = np.array(
                [-2, 0, 7, 2 * n, 10 * n - 1, 10 * n, 10 * n + 5],
                dtype=np.int64,
            )
            I, J, lengths = padded_cell(rng, [sequence] * len(starts), n)
            kernel = opt_end_matrix(I, J, lengths, n, sink, starts=starts)
            for row, start in enumerate(starts.tolist()):
                assert kernel[row] == float(
                    opt(sequence, list(range(n)), sink, start=start)
                )

    def test_committed_adversary_cell(self):
        nodes = list(range(7))
        adversaries = [
            make_adversary(family, nodes, seed=seed, max_horizon=4000, sink=0)
            for family in ("uniform", "zipf", "hub", "waypoint", "community")
            for seed in (0, 1)
        ]
        stops = [150 + 17 * k for k in range(len(adversaries))]
        for adversary, stop in zip(adversaries, stops):
            adversary.ensure_committed(stop)
        I, J, lengths = CommittedBlockAdversary.committed_index_matrix(
            adversaries, 0, stops, pad=0
        )
        kernel = opt_end_matrix(I, J, lengths, len(nodes), 0)
        for row, (adversary, stop) in enumerate(zip(adversaries, stops)):
            sequence = adversary.committed_prefix(stop)
            assert kernel[row] == float(opt(sequence, nodes, 0))


class TestSuccessiveConvergecastMatrix:
    def test_matches_oracle_with_inf_tail_convention(self):
        rng = random.Random(5)
        count = 6
        for _ in range(80):
            n, sink, sequence = random_case(rng)
            prefix = truncated_at_opt(sequence, n, sink)
            rows = [sequence] if prefix is None else [sequence, prefix]
            I, J, lengths = padded_cell(rng, rows, n)
            kernel = successive_convergecast_end_matrix(
                I, J, lengths, n, sink, count
            )
            for row, row_sequence in enumerate(rows):
                oracle = successive_convergecasts(
                    row_sequence, list(range(n)), sink, count=count
                )
                for position in range(count):
                    expected = (
                        float(oracle[position])
                        if position < len(oracle)
                        else INFINITY
                    )
                    assert kernel[row, position] == expected

    def test_rejects_non_positive_count(self):
        I = np.zeros((1, 0), dtype=np.int64)
        with pytest.raises(ValueError, match="count"):
            successive_convergecast_end_matrix(
                I, I, np.array([0]), 3, 0, 0
            )


class TestHardenedSuccessiveConvergecasts:
    """Satellite: impossible aggregations return sentinels, never hang."""

    def test_trace_replay_that_never_completes(self):
        # A finite committed trace whose node 3 never meets anyone: the
        # trace replays fine, but no convergecast ever completes.  opt and
        # successive_convergecasts must answer with the documented INFINITY
        # sentinel instead of raising or looping.
        trace = InteractionSequence.from_pairs([(1, 0), (2, 0), (1, 2), (2, 1)])
        adversary = TraceReplayAdversary(trace, nodes=[0, 1, 2, 3])
        sequence = adversary.committed_prefix(50)
        assert adversary.future_exhausted
        nodes = adversary.nodes()
        assert opt(sequence, nodes, 0) == INFINITY
        values = successive_convergecasts(sequence, nodes, 0)
        assert values == [INFINITY]
        values = successive_convergecasts(sequence, nodes, 0, count=4)
        assert values == [INFINITY]

    def test_disconnected_tail(self):
        # Aggregation possible once, then the sequence ends: the second
        # convergecast is INFINITY and the enumeration stops.
        sequence = InteractionSequence.from_pairs([(2, 1), (1, 0)])
        values = successive_convergecasts(sequence, [0, 1, 2], 0)
        assert values[0] == 1
        assert values[-1] == INFINITY

    def test_degenerate_single_node_instance_terminates(self):
        # opt() on a <= 1-node instance cannot advance the start; the
        # enumeration must stop instead of looping forever (regression:
        # this used to hang with count=None on any sequence longer than 1).
        sequence = InteractionSequence.from_pairs([(1, 2), (2, 3), (1, 3)])
        values = successive_convergecasts(sequence, [0], 0)
        assert len(values) <= 2
        assert all(not math.isnan(value) for value in values)
        values = successive_convergecasts(sequence, [0], 0, count=5)
        assert len(values) <= 5

    def test_count_must_be_positive(self):
        sequence = InteractionSequence.from_pairs([(1, 0)])
        with pytest.raises(ValueError, match="count"):
            successive_convergecasts(sequence, [0, 1], 0, count=0)


class TestRatioSemantics:
    def test_opt_cost_from_end(self):
        assert opt_cost_from_end(4) == 5.0
        assert isinstance(opt_cost_from_end(4), float)
        assert opt_cost_from_end(UNREACHABLE) == UNREACHABLE

    def test_ratio_conventions(self):
        assert competitive_ratio(10.0, 5.0) == 2.0
        assert competitive_ratio(5.0, 5.0) == 1.0
        assert competitive_ratio(math.inf, 5.0) == math.inf
        assert math.isnan(competitive_ratio(10.0, UNREACHABLE))
        assert math.isnan(RATIO_UNDEFINED)

    def test_degenerate_zero_cost(self):
        assert competitive_ratio(0.0, 0.0) == 1.0
