"""Tests for TransRow packing helpers and the bit-ordering convention."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bitslice import pack_bits_to_uint, pack_transrow_chunks
from repro.errors import BitSliceError
from tests.reference import extract_transrows, unpack_uint_to_bits


class TestPacking:
    def test_paper_convention_msb_is_first_input_row(self):
        # The pattern 1011 from Fig. 1 selects input rows 0, 2, 3 and packs to 11.
        assert pack_bits_to_uint(np.array([1, 0, 1, 1])) == 11

    def test_pack_unpack_roundtrip(self):
        bits = np.array([[1, 1, 1, 1], [0, 0, 1, 0], [0, 0, 0, 0]])
        values = pack_bits_to_uint(bits)
        assert values.tolist() == [15, 2, 0]
        np.testing.assert_array_equal(unpack_uint_to_bits(values, 4), bits)

    def test_non_binary_rejected(self):
        with pytest.raises(BitSliceError):
            pack_bits_to_uint(np.array([[2, 0, 1, 1]]))

    def test_out_of_range_unpack_rejected(self):
        with pytest.raises(BitSliceError):
            unpack_uint_to_bits(np.array([16]), 4)
        with pytest.raises(BitSliceError):
            unpack_uint_to_bits(np.array([-1]), 4)

    def test_bad_width_rejected(self):
        with pytest.raises(BitSliceError):
            unpack_uint_to_bits(np.array([0]), 0)

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, width, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 1 << width, size=20, dtype=np.int64)
        bits = unpack_uint_to_bits(values, width)
        np.testing.assert_array_equal(pack_bits_to_uint(bits), values)


def _reference_chunks(matrix, bits, width):
    """``(chunks, N, S)`` values built chunk by chunk from ``extract_transrows``."""
    n_rows, n_cols = matrix.shape
    chunks = -(-n_cols // width)
    out = np.zeros((chunks, n_rows, bits), dtype=np.int64)
    for chunk in range(chunks):
        for row in extract_transrows(matrix, bits, width, chunk):
            out[chunk, row.source_row, row.bit_level] = row.value
    return out


class TestPackTransrowChunks:
    def test_paper_convention_msb_is_first_input_row(self):
        # Row [-1, 0, 1, 1] at 2 bits: plane 0 is 1011 (11), plane 1 is 1000 (8).
        packed = pack_transrow_chunks(np.array([[-1, 0, 1, 1]]), 2, 4)
        assert packed.shape == (1, 1, 2)
        assert packed.dtype == np.uint16
        assert packed[0, 0].tolist() == [11, 8]

    def test_partial_last_chunk_is_zero_padded_on_the_right(self):
        # Columns 4..5 form a 2-column last chunk: bits 1 and 0 stay clear.
        packed = pack_transrow_chunks(np.array([[0, 0, 0, 0, 1, 1]]), 2, 4)
        assert packed[:, 0, 0].tolist() == [0, 0b1100]

    def test_out_of_range_weights_rejected(self):
        with pytest.raises(BitSliceError):
            pack_transrow_chunks(np.array([[8, 0]]), 4, 4)

    @pytest.mark.parametrize("width", [0, 17])
    def test_bad_width_rejected(self, width):
        with pytest.raises(BitSliceError):
            pack_transrow_chunks(np.zeros((2, 2), dtype=np.int64), 4, width)

    @given(
        st.sampled_from([3, 4, 8, 12, 16]),
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(width=8, bits=4, rows=0, cols=5, seed=0)  # N = 0
    @example(width=8, bits=4, rows=3, cols=0, seed=0)  # K = 0
    @example(width=12, bits=8, rows=2, cols=7, seed=1)  # K < T
    @example(width=3, bits=2, rows=4, cols=10, seed=2)  # partial last chunk
    @example(width=16, bits=5, rows=3, cols=37, seed=3)  # two-byte rows, partial
    @settings(max_examples=80, deadline=None)
    def test_matches_extract_transrows(self, width, bits, rows, cols, seed):
        rng = np.random.default_rng(seed)
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        matrix = rng.integers(lo, hi + 1, size=(rows, cols), dtype=np.int64)
        packed = pack_transrow_chunks(matrix, bits, width)
        assert packed.dtype == np.uint16
        np.testing.assert_array_equal(packed, _reference_chunks(matrix, bits, width))


class TestExtractTransrows:
    def test_reference_refuses_what_it_cannot_slice(self):
        with pytest.raises(BitSliceError):
            extract_transrows(np.zeros(4, dtype=np.int64), 4, 4)  # not 2-D
        with pytest.raises(BitSliceError):
            extract_transrows(np.zeros((2, 4), dtype=np.int64), 4, 4, column_chunk=1)
        with pytest.raises(BitSliceError):
            extract_transrows(np.zeros((2, 4), dtype=np.int64), 4, 4, column_chunk=-1)
