"""Property-style regression suite for the batched GEMM engine.

For randomized shapes, TransRow widths, weight precisions and distance limits
the engine must be **bit-identical** to both the scalar oracle
(:func:`repro.core.scalar_multiply`) and plain ``weight @ activation`` —
outputs and reported operation counts alike.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TransitiveGemmEngine, scalar_multiply
from repro.workloads.synthetic import outlier_weight_matrix
from repro.quant.quantizer import quantize


def _random_case(rng, weight_bits, max_dim=24):
    n, k, m = (int(x) for x in rng.integers(1, max_dim, size=3))
    lo = -(1 << (weight_bits - 1)) if weight_bits > 1 else 0
    hi = (1 << (weight_bits - 1)) - 1 if weight_bits > 1 else 1
    weight = rng.integers(lo, hi + 1, size=(n, k), dtype=np.int64)
    activation = rng.integers(-128, 128, size=(k, m), dtype=np.int64)
    return weight, activation


def _assert_paths_agree(weight, activation, weight_bits, transrow_bits, max_distance):
    engine = TransitiveGemmEngine(transrow_bits=transrow_bits, max_distance=max_distance)
    fast_report = engine.multiply(weight, activation, weight_bits)
    scalar_report = scalar_multiply(
        weight, activation, weight_bits,
        transrow_bits=transrow_bits, max_distance=max_distance,
    )
    expected = weight.astype(np.int64) @ activation.astype(np.int64)
    np.testing.assert_array_equal(fast_report.output, expected)
    np.testing.assert_array_equal(scalar_report.output, expected)
    assert fast_report.op_counts == scalar_report.op_counts
    return fast_report


class TestRandomizedEquivalence:
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([2, 4, 8]),          # TransRow width T
        st.integers(min_value=2, max_value=8),  # weight precision S
        st.sampled_from([1, 2, 4, 8]),       # max prefix distance
    )
    @settings(max_examples=40, deadline=None)
    def test_fast_equals_scalar_and_numpy(self, seed, transrow_bits, weight_bits,
                                          max_distance):
        rng = np.random.default_rng(seed)
        weight, activation = _random_case(rng, weight_bits)
        _assert_paths_agree(weight, activation, weight_bits, transrow_bits, max_distance)


class TestEdgeCases:
    def test_empty_reduction_dimension(self):
        weight = np.zeros((3, 0), dtype=np.int64)
        activation = np.zeros((0, 4), dtype=np.int64)
        report = _assert_paths_agree(weight, activation, 4, 8, 4)
        assert report.op_counts.total_transrows == 0

    def test_empty_output_rows(self):
        weight = np.zeros((0, 9), dtype=np.int64)
        activation = np.ones((9, 4), dtype=np.int64)
        report = _assert_paths_agree(weight, activation, 4, 4, 4)
        assert report.output.shape == (0, 4)

    def test_all_zero_weight(self):
        weight = np.zeros((5, 17), dtype=np.int64)
        activation = np.arange(17 * 3, dtype=np.int64).reshape(17, 3)
        report = _assert_paths_agree(weight, activation, 8, 8, 4)
        assert report.op_counts.transitive_ops == 0
        assert report.op_counts.zr_fraction == 1.0

    def test_outlier_heavy_distance_one(self):
        # max_distance=1 turns every present node into an outlier: the engine
        # must reproduce the raw popcount accumulation exactly.
        rng = np.random.default_rng(0)
        weight = rng.integers(-128, 128, size=(12, 32), dtype=np.int64)
        activation = rng.integers(-64, 64, size=(32, 6), dtype=np.int64)
        report = _assert_paths_agree(weight, activation, 8, 8, 1)
        assert report.op_counts.pr_ops == 0
        assert report.op_counts.tr_ops == 0
        assert report.op_counts.outlier_ops > 0

    def test_outlier_channel_weights(self):
        # Quantized Gaussian weights with heavy-tailed outlier channels (the
        # LLM-style distribution the paper evaluates on).
        quantized = quantize(outlier_weight_matrix(24, 40, seed=9), bits=8, axis=1)
        rng = np.random.default_rng(9)
        activation = rng.integers(-128, 128, size=(40, 5), dtype=np.int64)
        _assert_paths_agree(quantized.values, activation, 8, 8, 4)

    def test_single_bit_width_and_lanes(self):
        rng = np.random.default_rng(2)
        weight = rng.integers(0, 2, size=(6, 10), dtype=np.int64)
        activation = rng.integers(-9, 9, size=(10, 2), dtype=np.int64)
        _assert_paths_agree(weight, activation, 1, 2, 4)


class TestStaticScoreboardCache:
    def test_repeated_inference_hits_cache(self):
        rng = np.random.default_rng(4)
        weight = rng.integers(-8, 8, size=(32, 48), dtype=np.int64)
        engine = TransitiveGemmEngine(transrow_bits=8)
        first = engine.multiply(weight, rng.integers(-5, 5, size=(48, 7)), 4)
        info = engine.scoreboard_cache_info()
        assert (info.hits, info.misses, info.entries) == (0, 1, 1)
        act = rng.integers(-5, 5, size=(48, 7))
        second = engine.multiply(weight, act, 4)
        info = engine.scoreboard_cache_info()
        assert (info.hits, info.misses) == (1, 1)
        np.testing.assert_array_equal(second.output, weight @ act)
        assert second.op_counts == first.op_counts

    def test_different_weights_miss_cache(self):
        rng = np.random.default_rng(6)
        engine = TransitiveGemmEngine(transrow_bits=8)
        act = rng.integers(-5, 5, size=(16, 3))
        for _ in range(2):
            weight = rng.integers(-8, 8, size=(8, 16), dtype=np.int64)
            report = engine.multiply(weight, act, 4)
            np.testing.assert_array_equal(report.output, weight @ act)
        assert engine.scoreboard_cache_info().misses == 2

    def test_cache_eviction_respects_capacity(self):
        rng = np.random.default_rng(7)
        engine = TransitiveGemmEngine(
            transrow_bits=4, scoreboard_cache_entries=2
        )
        act = rng.integers(-5, 5, size=(8, 2))
        for _ in range(4):
            weight = rng.integers(-8, 8, size=(4, 8), dtype=np.int64)
            engine.multiply(weight, act, 4)
        assert engine.scoreboard_cache_info().entries == 2

    def test_cache_disabled(self):
        rng = np.random.default_rng(8)
        engine = TransitiveGemmEngine(
            transrow_bits=4, scoreboard_cache_entries=0
        )
        weight = rng.integers(-8, 8, size=(4, 8), dtype=np.int64)
        act = rng.integers(-5, 5, size=(8, 2))
        for _ in range(2):
            report = engine.multiply(weight, act, 4)
            np.testing.assert_array_equal(report.output, weight @ act)
        info = engine.scoreboard_cache_info()
        assert (info.hits, info.entries) == (0, 0)
