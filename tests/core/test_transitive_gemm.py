"""Bit-exactness and op-count tests for the functional transitive GEMM engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TransitiveGemmEngine
from repro.errors import SimulationError


class TestPaperFigure1:
    def test_four_row_binary_example(self):
        # Fig. 1: binary weight rows 1011, 1111, 0011, 0010 times input [6,-5,-2,4]
        weight = np.array([[1, 0, 1, 1], [1, 1, 1, 1], [0, 0, 1, 1], [0, 0, 1, 0]])
        activation = np.array([[6], [-5], [-2], [4]])
        report = TransitiveGemmEngine(transrow_bits=4).multiply(weight, activation, weight_bits=1)
        assert report.output.flatten().tolist() == [8, 3, 2, -2]

    def test_binary_example_needs_only_four_ops(self):
        # Transitive sparsity reduces the 10 bit-sparsity ops of Fig. 1 to 4.
        weight = np.array([[1, 0, 1, 1], [1, 1, 1, 1], [0, 0, 1, 1], [0, 0, 1, 0]])
        activation = np.array([[6], [-5], [-2], [4]])
        report = TransitiveGemmEngine(transrow_bits=4).multiply(weight, activation, weight_bits=1)
        assert report.op_counts.bit_sparsity_ops == 10
        assert report.op_counts.pr_ops + report.op_counts.tr_ops == 4
        assert report.op_counts.fr_ops == 0


class TestCorrectness:
    def test_int8_gemm_matches_numpy(self):
        rng = np.random.default_rng(0)
        weight = rng.integers(-128, 128, size=(16, 32), dtype=np.int64)
        act = rng.integers(-128, 128, size=(32, 8), dtype=np.int64)
        report = TransitiveGemmEngine(transrow_bits=8).multiply(weight, act, weight_bits=8)
        np.testing.assert_array_equal(report.output, weight @ act)

    def test_int4_weights_with_4bit_transrows(self):
        rng = np.random.default_rng(1)
        weight = rng.integers(-8, 8, size=(12, 20), dtype=np.int64)
        act = rng.integers(-128, 128, size=(20, 5), dtype=np.int64)
        report = TransitiveGemmEngine(transrow_bits=4).multiply(weight, act, weight_bits=4)
        np.testing.assert_array_equal(report.output, weight @ act)

    def test_k_not_multiple_of_transrow_width(self):
        rng = np.random.default_rng(2)
        weight = rng.integers(-8, 8, size=(6, 13), dtype=np.int64)
        act = rng.integers(-50, 50, size=(13, 3), dtype=np.int64)
        report = TransitiveGemmEngine(transrow_bits=8).multiply(weight, act, weight_bits=4)
        np.testing.assert_array_equal(report.output, weight @ act)

    def test_all_zero_weight(self):
        weight = np.zeros((4, 16), dtype=np.int64)
        act = np.ones((16, 4), dtype=np.int64)
        report = TransitiveGemmEngine(transrow_bits=8).multiply(weight, act, weight_bits=8)
        np.testing.assert_array_equal(report.output, np.zeros((4, 4)))
        assert report.op_counts.transitive_ops == 0
        assert report.op_counts.zr_fraction == 1.0

    def test_negative_weights_only(self):
        weight = np.full((3, 8), -1, dtype=np.int64)
        act = np.arange(8 * 2).reshape(8, 2).astype(np.int64)
        report = TransitiveGemmEngine().multiply(weight, act, weight_bits=8)
        np.testing.assert_array_equal(report.output, weight @ act)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(SimulationError):
            TransitiveGemmEngine().multiply(
                np.zeros((2, 3), dtype=np.int64), np.zeros((4, 1), dtype=np.int64), 4
            )

    def test_non_2d_rejected(self):
        with pytest.raises(SimulationError):
            TransitiveGemmEngine().multiply(
                np.zeros(3, dtype=np.int64), np.zeros((3, 1), dtype=np.int64), 4
            )

    def test_invalid_transrow_width_rejected(self):
        with pytest.raises(SimulationError):
            TransitiveGemmEngine(transrow_bits=0)

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([2, 4, 8]),
        st.sampled_from([4, 8]),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_gemm_is_lossless(self, seed, weight_bits, transrow_bits):
        rng = np.random.default_rng(seed)
        n, k, m = rng.integers(1, 20, size=3)
        lo, hi = -(1 << (weight_bits - 1)), (1 << (weight_bits - 1)) - 1
        weight = rng.integers(lo, hi + 1, size=(n, k), dtype=np.int64)
        act = rng.integers(-128, 128, size=(k, m), dtype=np.int64)
        report = TransitiveGemmEngine(transrow_bits=transrow_bits).multiply(
            weight, act, weight_bits
        )
        np.testing.assert_array_equal(report.output, weight @ act)


class TestOpCounts:
    def test_density_floor_is_one_over_t(self):
        # With every 8-bit value present the density approaches 1/8 = 12.5 %.
        rng = np.random.default_rng(3)
        weight = rng.integers(-128, 128, size=(64, 8), dtype=np.int64)
        act = rng.integers(-8, 8, size=(8, 4), dtype=np.int64)
        report = TransitiveGemmEngine(transrow_bits=8).multiply(weight, act, weight_bits=8)
        assert report.density >= 1.0 / 8
        assert report.density < 0.25

    def test_transitive_never_exceeds_bit_sparsity(self):
        rng = np.random.default_rng(4)
        weight = rng.integers(-128, 128, size=(32, 32), dtype=np.int64)
        act = rng.integers(-8, 8, size=(32, 4), dtype=np.int64)
        report = TransitiveGemmEngine(transrow_bits=8).multiply(weight, act, weight_bits=8)
        assert report.op_counts.transitive_ops <= report.op_counts.bit_sparsity_ops
        assert report.op_counts.bit_sparsity_ops <= report.op_counts.dense_ops
