"""Equivalence tests: batched array scoreboard vs the scalar reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitslice import pack_transrow_chunks
from repro.core.metrics import OpCounts, op_counts_from_result
from repro.errors import BitSliceError, ScoreboardError
from repro.scoreboard import (
    batched_total_op_counts,
    run_scoreboard,
    run_scoreboard_batch,
    weight_op_counts,
)
from tests.reference import lane_ppe_loads


def _random_bags(rng, width, num_bags, max_rows=60):
    return [
        rng.integers(0, 1 << width, size=int(rng.integers(0, max_rows))).tolist()
        for _ in range(num_bags)
    ]


def _assert_bags_match_scalar(batch, bags, num_lanes=None):
    """Per bag: the batch's OpCounts fields and lane loads equal the scalar
    scoreboard's."""
    fields = batch.op_count_fields()
    lanes = num_lanes if num_lanes is not None else batch.width
    loads = batch.lane_node_counts(lanes)
    assert len(loads) == len(bags)
    for i, bag in enumerate(bags):
        scalar = run_scoreboard(bag, width=batch.width, max_distance=batch.max_distance,
                                num_lanes=num_lanes)
        fast = OpCounts(width=batch.width, **{key: int(arr[i]) for key, arr in fields.items()})
        assert fast == op_counts_from_result(scalar)
        assert loads[i] == lane_ppe_loads(scalar)


class TestExactEquivalence:
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([1, 2, 4, 8]),
        st.sampled_from([1, 2, 4, 8]),
    )
    @settings(max_examples=30, deadline=None)
    def test_batched_results_match_scalar(self, seed, width, max_distance):
        rng = np.random.default_rng(seed)
        bags = _random_bags(rng, width, num_bags=8)
        batch = run_scoreboard_batch(bags, width=width, max_distance=max_distance)
        _assert_bags_match_scalar(batch, bags)

    def test_custom_lane_count_matches_scalar(self):
        rng = np.random.default_rng(11)
        bags = _random_bags(rng, 8, num_bags=4)
        _assert_bags_match_scalar(run_scoreboard_batch(bags, width=8), bags, num_lanes=3)

    def test_rectangular_array_input_matches_ragged(self):
        rng = np.random.default_rng(5)
        values = rng.integers(0, 256, size=(6, 40))
        bags = [row.tolist() for row in values]
        from_array = run_scoreboard_batch(values, width=8)
        from_lists = run_scoreboard_batch(bags, width=8)
        for key, arr in from_array.op_count_fields().items():
            assert np.array_equal(arr, from_lists.op_count_fields()[key])
        assert from_array.lane_node_counts(8) == from_lists.lane_node_counts(8)
        _assert_bags_match_scalar(from_array, bags)


class TestOpCountTallies:
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([2, 4, 8]),
        st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=25, deadline=None)
    def test_tallies_match_scalar_merge(self, seed, width, max_distance):
        rng = np.random.default_rng(seed)
        bags = _random_bags(rng, width, num_bags=6)
        batch = run_scoreboard_batch(bags, width=width, max_distance=max_distance)
        merged_fast = OpCounts(width=width, **batch.total_op_count_fields())
        merged_scalar = None
        for bag in bags:
            counts = op_counts_from_result(
                run_scoreboard(bag, width=width, max_distance=max_distance)
            )
            merged_scalar = (
                counts if merged_scalar is None else merged_scalar.merge(counts)
            )
        assert merged_fast == merged_scalar

    def test_per_chunk_fields_match_scalar(self):
        rng = np.random.default_rng(3)
        bags = _random_bags(rng, 8, num_bags=5)
        batch = run_scoreboard_batch(bags, width=8)
        fields = batch.op_count_fields()
        for i, bag in enumerate(bags):
            scalar = op_counts_from_result(run_scoreboard(bag, width=8))
            fast = OpCounts(
                width=8, **{key: int(arr[i]) for key, arr in fields.items()}
            )
            assert fast == scalar

    def test_empty_batch(self):
        batch = run_scoreboard_batch([], width=8)
        assert batch.num_chunks == 0
        assert all(v == 0 for v in batch.total_op_count_fields().values())


class TestWeightOpCounts:
    """Counts streamed over row blocks equal those of the whole packed
    matrix, for ragged shapes: N not a multiple of the 256-row block, K not
    a multiple of T."""

    @pytest.mark.parametrize("width", [1, 4, 8, 16])
    @pytest.mark.parametrize("n, k", [(1, 1), (255, 9), (300, 37), (513, 20)])
    def test_equal_to_the_whole_packed_matrix(self, width, n, k):
        bits = 4
        weight = np.random.default_rng(n * k + width).integers(
            -(1 << (bits - 1)), 1 << (bits - 1), size=(n, k), dtype=np.int8
        )
        packed = pack_transrow_chunks(weight, bits, width)
        whole = batched_total_op_counts(
            packed.reshape(packed.shape[0], -1).astype(np.int64), width=width
        )
        assert weight_op_counts(weight, bits, width) == whole

    def test_several_chunk_blocks_at_t16(self):
        # At T = 16 a block holds 32 chunks: 40 chunks take two blocks.
        weight = np.random.default_rng(5).integers(-8, 8, size=(20, 16 * 40), dtype=np.int8)
        packed = pack_transrow_chunks(weight, 4, 16)
        bags = [chunk.ravel().tolist() for chunk in packed]
        merged = run_scoreboard_batch(bags[:32], width=16).total_op_counts().merge(
            run_scoreboard_batch(bags[32:], width=16).total_op_counts())
        assert weight_op_counts(weight, 4, 16) == merged

    def test_empty_weights_are_still_validated(self):
        zero = weight_op_counts(np.zeros((0, 12), dtype=np.int8), 4, 4)
        assert zero == batched_total_op_counts([[]] * 3, width=4)
        with pytest.raises(BitSliceError):
            weight_op_counts(np.zeros((0, 12)), 4, 4)  # not an integer matrix
        past_first_block = np.zeros((300, 12), dtype=np.int8)
        past_first_block[299, 5] = 8  # not a 4-bit value
        with pytest.raises(BitSliceError):
            weight_op_counts(past_first_block, 4, 4)


class TestValidation:
    def test_out_of_range_value_rejected(self):
        with pytest.raises(ScoreboardError):
            run_scoreboard_batch([[16]], width=4)
        with pytest.raises(ScoreboardError):
            run_scoreboard_batch(np.array([[3, -1]]), width=4)

    def test_invalid_width_rejected(self):
        with pytest.raises(ScoreboardError):
            run_scoreboard_batch([[1]], width=0)

    def test_invalid_max_distance_rejected(self):
        with pytest.raises(ScoreboardError):
            run_scoreboard_batch([[1]], width=4, max_distance=0)
