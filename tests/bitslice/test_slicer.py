"""Unit and property tests for the bit-slicing substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitslice import (
    bit_plane_weights,
    bit_slice,
    binary_weight_matrix,
    reconstruct_from_binary,
    reconstruct_from_planes,
    sliced_gemm,
)
from repro.errors import BitSliceError


class TestBitPlaneWeights:
    def test_int4_weights_follow_twos_complement(self):
        assert bit_plane_weights(4).tolist() == [1, 2, 4, -8]

    def test_int8_msb_is_negative(self):
        weights = bit_plane_weights(8)
        assert weights[7] == -128
        assert weights[:7].tolist() == [1, 2, 4, 8, 16, 32, 64]

    def test_single_bit_is_unsigned(self):
        assert bit_plane_weights(1).tolist() == [1]

    def test_zero_width_rejected(self):
        with pytest.raises(BitSliceError):
            bit_plane_weights(0)


class TestBitSlice:
    def test_roundtrip_int4(self):
        matrix = np.array([[1, 0, -3, 5], [-5, 3, 7, 3], [2, -4, -1, -1], [6, 2, -7, 4]])
        planes = bit_slice(matrix, 4)
        assert planes.planes.shape == (4, 4, 4)
        np.testing.assert_array_equal(reconstruct_from_planes(planes), matrix)

    def test_paper_figure2_example_rows(self):
        # Fig. 2: -3 is 1101 (MSB..LSB) in 4-bit two's complement.
        matrix = np.array([[-3]])
        planes = bit_slice(matrix, 4)
        msb_to_lsb = [int(planes.planes[s, 0, 0]) for s in (3, 2, 1, 0)]
        assert msb_to_lsb == [1, 1, 0, 1]

    def test_out_of_range_rejected(self):
        with pytest.raises(BitSliceError):
            bit_slice(np.array([[8]]), 4)
        with pytest.raises(BitSliceError):
            bit_slice(np.array([[-9]]), 4)

    def test_non_integer_rejected(self):
        with pytest.raises(BitSliceError):
            bit_slice(np.array([[0.5]]), 4)

    def test_non_2d_rejected(self):
        with pytest.raises(BitSliceError):
            bit_slice(np.array([1, 2, 3]), 4)

    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, bits, rows, cols, seed):
        rng = np.random.default_rng(seed)
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        matrix = rng.integers(lo, hi + 1, size=(rows, cols), dtype=np.int64)
        planes = bit_slice(matrix, bits)
        np.testing.assert_array_equal(reconstruct_from_planes(planes), matrix)


    @given(
        st.integers(min_value=1, max_value=32),
        st.sampled_from([np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_planes_match_int64_shifts_for_every_dtype(self, bits, dtype, seed):
        info = np.iinfo(dtype)
        lo = max(-(1 << (bits - 1)) if bits > 1 else 0, info.min)
        hi = min((1 << (bits - 1)) - 1 if bits > 1 else 1, info.max)
        rng = np.random.default_rng(seed)
        matrix = rng.integers(lo, hi + 1, size=(3, 5), dtype=np.int64).astype(dtype)
        planes = bit_slice(matrix, bits).planes
        assert planes.dtype == np.uint8
        unsigned = matrix.astype(np.int64) & ((1 << bits) - 1)
        for s in range(bits):
            np.testing.assert_array_equal(planes[s], (unsigned >> s) & 1)


class TestBinaryWeightMatrix:
    def test_shape_is_s_times_n(self):
        matrix = np.arange(-8, 8).reshape(4, 4)
        binary = binary_weight_matrix(matrix, 4)
        assert binary.shape == (16, 4)
        assert set(np.unique(binary)) <= {0, 1}

    def test_roundtrip(self):
        rng = np.random.default_rng(7)
        matrix = rng.integers(-128, 128, size=(5, 9), dtype=np.int64)
        binary = binary_weight_matrix(matrix, 8)
        np.testing.assert_array_equal(reconstruct_from_binary(binary, 8), matrix)

    def test_lsb_first_ordering_roundtrip(self):
        rng = np.random.default_rng(11)
        matrix = rng.integers(-8, 8, size=(3, 5), dtype=np.int64)
        binary = binary_weight_matrix(matrix, 4, msb_first=False)
        np.testing.assert_array_equal(
            reconstruct_from_binary(binary, 4, msb_first=False), matrix
        )

    def test_bad_row_count_rejected(self):
        with pytest.raises(BitSliceError):
            reconstruct_from_binary(np.zeros((7, 3), dtype=np.uint8), 4)


class TestSlicedGemm:
    def test_matches_dense_gemm(self):
        rng = np.random.default_rng(3)
        weight = rng.integers(-128, 128, size=(16, 24), dtype=np.int64)
        act = rng.integers(-128, 128, size=(24, 8), dtype=np.int64)
        np.testing.assert_array_equal(sliced_gemm(weight, act, 8), weight @ act)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(BitSliceError):
            sliced_gemm(np.zeros((2, 3), dtype=np.int64), np.zeros((4, 2), dtype=np.int64), 4)

    @pytest.mark.parametrize(
        "value", [1.5, np.nan, np.inf, -np.inf, np.uint64(2**63)],
        ids=["1.5", "nan", "inf", "-inf", "uint64-2**63"],
    )
    def test_inexact_activation_rejected(self, value):
        # np.asarray(..., dtype=np.int64) would floor 1.5 and wrap the rest.
        act = np.full((3, 1), value, dtype=np.asarray(value).dtype)
        with pytest.raises(BitSliceError):
            sliced_gemm(np.ones((2, 3), dtype=np.int64), act, 4)

    def test_integral_float_activation_is_exact(self):
        weight = np.array([[1, -2, 3], [-4, 5, -6]], dtype=np.int64)
        act = np.array([[2.0**52], [-3.0], [7.0]])
        np.testing.assert_array_equal(
            sliced_gemm(weight, act, 4), weight @ act.astype(np.int64)
        )

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=8))
    @settings(max_examples=30, deadline=None)
    def test_lossless_property(self, seed, bits):
        rng = np.random.default_rng(seed)
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        weight = rng.integers(lo, hi + 1, size=(6, 10), dtype=np.int64)
        act = rng.integers(-100, 100, size=(10, 4), dtype=np.int64)
        np.testing.assert_array_equal(sliced_gemm(weight, act, bits), weight @ act)
