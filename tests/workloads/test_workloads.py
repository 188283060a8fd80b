"""Tests for GEMM descriptors and the LLaMA / ResNet workloads."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads import (
    GemmShape,
    GemmWorkload,
    LLAMA_MODELS,
    im2col_gemm_shape,
    llama_attention_gemms,
    llama_fc_gemms,
    llama_model,
    outlier_weight_matrix,
    random_binary_matrix,
    resnet18_gemms,
)
from repro.workloads.resnet import RESNET18_LAYERS, ConvLayer


class TestGemmShape:
    def test_macs_and_bytes(self):
        shape = GemmShape("g", 128, 256, 64, weight_bits=4, activation_bits=8)
        assert shape.macs == 128 * 256 * 64
        assert shape.weight_bytes == 128 * 256 // 2
        assert shape.input_bytes == 256 * 64
        assert shape.output_bytes == 128 * 64 * 4

    def test_with_precision_copies(self):
        shape = GemmShape("g", 8, 8, 8).with_precision(4, 16)
        assert (shape.weight_bits, shape.activation_bits) == (4, 16)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            GemmShape("bad", 0, 1, 1)
        with pytest.raises(WorkloadError):
            GemmWorkload("empty", [])

    def test_workload_totals(self):
        workload = GemmWorkload("w", [GemmShape("a", 4, 4, 4), GemmShape("b", 8, 8, 8)])
        assert workload.total_macs == 4 ** 3 + 8 ** 3


class TestLlama:
    def test_model_lookup(self):
        assert llama_model("llama1-7b").hidden_size == 4096
        with pytest.raises(WorkloadError):
            llama_model("llama9-1t")

    def test_fc_block_structure(self):
        workload = llama_fc_gemms("llama1-7b", sequence_length=2048)
        names = [g.name for g in workload.gemms]
        assert names == ["q_proj", "k_proj", "v_proj", "o_proj",
                         "gate_proj", "up_proj", "down_proj"]
        q = workload.gemms[0]
        assert (q.n, q.k, q.m) == (4096, 4096, 2048)
        down = workload.gemms[-1]
        assert (down.n, down.k) == (4096, 11008)

    def test_llama3_grouped_query_attention_shrinks_kv(self):
        workload = llama_fc_gemms("llama3-8b")
        k_proj = workload.gemms[1]
        assert k_proj.n == 1024  # 8 KV heads x 128 head_dim
        assert LLAMA_MODELS["llama3-8b"].head_dim == 128

    def test_attention_gemm_volume(self):
        workload = llama_attention_gemms("llama1-7b", sequence_length=1024)
        qk = workload.gemms[0]
        assert qk.macs == 1024 * 32 * 128 * 1024

    def test_sequence_length_validation(self):
        with pytest.raises(WorkloadError):
            llama_fc_gemms("llama1-7b", sequence_length=0)


class TestResNet:
    def test_im2col_lowering(self):
        layer = ConvLayer("c", in_channels=64, out_channels=128, kernel=3, stride=2,
                          input_size=56)
        shape = im2col_gemm_shape(layer)
        assert shape.n == 128
        assert shape.k == 64 * 9
        assert shape.m == 28 * 28

    def test_resnet18_layer_count_and_precision(self):
        workload = resnet18_gemms(weight_bits=4)
        assert len(workload.gemms) == len(RESNET18_LAYERS) + 1
        assert workload.gemms[0].weight_bits == 8     # first conv stays 8-bit
        assert workload.gemms[1].weight_bits == 4
        assert workload.gemms[-1].name == "fc"
        assert workload.gemms[-1].weight_bits == 8    # classifier stays 8-bit

    def test_batch_scales_output_columns(self):
        single = resnet18_gemms(batch=1)
        batched = resnet18_gemms(batch=4)
        assert batched.gemms[1].m == 4 * single.gemms[1].m

    def test_total_gmacs_in_expected_range(self):
        # ResNet-18 at 224x224 is ~1.8 GMACs; im2col does not change that.
        total = resnet18_gemms().total_macs
        assert 1.5e9 <= total <= 2.2e9


class TestSampleWeight:
    """Row-block sampling draws what one whole-matrix int64 draw did, in
    the narrowest dtype, and leaves the generator where that draw did."""

    @pytest.mark.parametrize("bits, dtype", [(1, np.int8), (4, np.int8), (8, np.int8),
                                             (9, np.int16), (16, np.int16), (33, np.int64)])
    @pytest.mark.parametrize("n, k", [(1, 3), (300, 7), (513, 33)])
    def test_equal_to_one_int64_draw(self, bits, dtype, n, k):
        shape = GemmShape("fc", n, k, 1, weight_bits=bits)
        workload = GemmWorkload("w", [shape])
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        old, new = np.random.default_rng(3), np.random.default_rng(3)
        expected = old.integers(lo, hi + 1, size=(n, k), dtype=np.int64)
        sampled = workload.sample_weight(shape, new)
        assert sampled.dtype == dtype
        assert np.array_equal(sampled, expected)
        assert new.bit_generator.state == old.bit_generator.state


class TestSynthetic:
    def test_random_binary_density(self):
        matrix = random_binary_matrix(512, 512, density=0.5, seed=0)
        assert 0.45 <= matrix.mean() <= 0.55
        with pytest.raises(WorkloadError):
            random_binary_matrix(8, 8, density=1.5)

    def test_outlier_matrix_has_heavy_columns(self):
        matrix = outlier_weight_matrix(256, 256, outlier_fraction=0.02,
                                       outlier_scale=10.0, seed=0)
        column_norms = np.abs(matrix).max(axis=0)
        assert column_norms.max() > 5 * np.median(column_norms)
