"""Tests for the quantization substrate and the Table 3 perplexity proxy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QuantizationError
from repro.quant import (
    FP16_PERPLEXITY,
    group_quantize,
    perplexity_proxy,
    perplexity_table,
    quantize,
)
from repro.quant.accuracy import SCHEME_PIPELINES, layer_output_error, perplexity_grid
from repro.quant.schemes import (
    bitvert_pruned_quantize,
    olive_outlier_victim_quantize,
    tender_power_of_two_quantize,
    transarray_group_quantize,
)
from repro.workloads import outlier_weight_matrix


def _relative_mse(original, quantized):
    """``mean((x - x_hat)^2) / mean(x^2)``: a scale-free reconstruction error."""
    signal = float(np.mean(original ** 2))
    return float(np.mean((original - quantized.dequantized) ** 2)) / signal


class TestQuantizer:
    def test_symmetric_range(self):
        tensor = np.array([[1.0, -2.0, 0.5]])
        quantized = quantize(tensor, bits=8)
        assert quantized.values.max() <= 127 and quantized.values.min() >= -128
        np.testing.assert_allclose(quantized.dequantized, tensor, atol=2.0 / 127)

    def test_per_channel_beats_per_tensor_on_outliers(self):
        tensor = outlier_weight_matrix(64, 64, outlier_scale=20.0, seed=0)
        per_tensor = _relative_mse(tensor, quantize(tensor, 8, axis=None))
        per_channel = _relative_mse(tensor, quantize(tensor, 8, axis=1))
        assert per_channel <= per_tensor

    def test_group_quantize_shapes_and_padding(self):
        tensor = np.random.default_rng(0).normal(size=(4, 130))
        quantized = group_quantize(tensor, bits=4, group_size=128)
        assert quantized.values.shape == tensor.shape
        assert quantized.scales.shape == tensor.shape

    def test_group_size_validation(self):
        with pytest.raises(QuantizationError):
            group_quantize(np.ones((2, 4)), bits=4, group_size=0)
        with pytest.raises(QuantizationError):
            group_quantize(np.ones(4), bits=4)

    def test_bits_validation(self):
        with pytest.raises(QuantizationError):
            quantize(np.ones((2, 2)), bits=1)

    def test_mse_of_identical_reconstruction_is_zero(self):
        tensor = np.array([[1.0, -1.0], [2.0, -2.0]])
        quantized = quantize(tensor, bits=8)
        assert _relative_mse(tensor, quantized) < 1e-3

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([4, 6, 8]))
    @settings(max_examples=25, deadline=None)
    def test_more_bits_never_hurt(self, seed, bits):
        tensor = np.random.default_rng(seed).normal(size=(16, 64))
        low = _relative_mse(tensor, quantize(tensor, bits, axis=1))
        high = _relative_mse(tensor, quantize(tensor, bits + 2, axis=1))
        assert high <= low + 1e-9


class TestSchemes:
    def test_olive_preserves_outliers(self):
        tensor = outlier_weight_matrix(32, 64, outlier_scale=30.0, seed=1)
        olive = olive_outlier_victim_quantize(tensor, bits=8)
        naive = quantize(tensor, bits=8, axis=None)
        assert _relative_mse(tensor, olive) <= _relative_mse(tensor, naive)

    def test_tender_scales_are_powers_of_two(self):
        tensor = np.random.default_rng(2).normal(size=(8, 64))
        quantized = tender_power_of_two_quantize(tensor, bits=8)
        scales = np.unique(quantized.scales)
        log2 = np.log2(scales)
        np.testing.assert_allclose(log2, np.round(log2), atol=1e-9)

    def test_bitvert_guarantees_bit_budget(self):
        tensor = np.random.default_rng(3).normal(size=(16, 64))
        quantized = bitvert_pruned_quantize(tensor, bits=8, prune_fraction=0.5)
        popcounts = [bin(abs(int(v))).count("1") for v in quantized.values.ravel()]
        assert max(popcounts) <= 4

    def test_transarray_group_is_near_lossless_at_8bit(self):
        tensor = outlier_weight_matrix(64, 256, seed=4)
        mse = _relative_mse(tensor, transarray_group_quantize(tensor, bits=8))
        assert mse < 1e-3



class TestPerplexityProxy:
    def test_proxy_is_monotone_and_anchored(self):
        assert perplexity_proxy(0.0, 5.68) == 5.68
        assert perplexity_proxy(0.1, 5.68) > perplexity_proxy(0.01, 5.68)
        with pytest.raises(QuantizationError):
            perplexity_proxy(-0.1, 5.68)

    def test_layer_output_error_validates_shapes(self):
        with pytest.raises(QuantizationError):
            layer_output_error(np.ones((4, 8)), np.ones((4, 8)),
                               SCHEME_PIPELINES["transarray-int8"])

    def test_table3_structure(self):
        entries = perplexity_table(models=["llama1-7b"], rows=64, cols=256, tokens=16)
        grid = perplexity_grid(entries)["llama1-7b"]
        fp16 = FP16_PERPLEXITY["llama1-7b"]
        # Qualitative Table 3 structure.
        assert grid["tender-4"] > 2 * fp16
        assert grid["transarray-int8"] < 1.1 * fp16
        assert grid["ant-8"] < 1.1 * fp16
        assert grid["transarray-int4"] < grid["tender-4"]
        assert all(value >= fp16 for value in grid.values())

    def test_unknown_model_or_scheme_rejected(self):
        with pytest.raises(QuantizationError):
            perplexity_table(models=["gpt-5"], rows=16, cols=64, tokens=4)
        with pytest.raises(QuantizationError):
            perplexity_table(models=["llama1-7b"], schemes=["fp4-magic"],
                             rows=16, cols=64, tokens=4)
