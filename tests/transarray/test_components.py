"""Tests for the TransArray building blocks: tiling, prefix buffer, PEs, VPU."""

import numpy as np
import pytest

from repro.config import TransArrayConfig
from repro.errors import SimulationError
from repro.transarray import (
    AccumulationPE,
    DistributedPrefixBuffer,
    PrefixPE,
    plan_tiling,
)
from repro.transarray.vpu import VectorProcessingUnit
from repro.workloads import GemmShape


class TestTiling:
    def test_table1_tile_heights(self):
        config = TransArrayConfig()
        assert config.weight_rows(8) == 32
        assert config.weight_rows(4) == 64

    def test_subtile_counts(self):
        plan = plan_tiling(GemmShape("fc", 4096, 4096, 2048, weight_bits=8), TransArrayConfig())
        assert plan.row_blocks == 128
        assert plan.col_chunks == 512
        assert plan.input_blocks == 64
        assert plan.num_subtiles == 128 * 512 * 64
        assert plan.transrows_per_subtile == 256

    def test_ragged_dimensions_round_up(self):
        plan = plan_tiling(GemmShape("odd", 33, 9, 33, weight_bits=8), TransArrayConfig())
        assert plan.row_blocks == 2
        assert plan.col_chunks == 2
        assert plan.input_blocks == 2

    def test_dram_traffic_accounts_all_streams(self):
        shape = GemmShape("fc", 256, 256, 128, weight_bits=4)
        plan = plan_tiling(shape, TransArrayConfig())
        assert plan.dram_weight_bytes == 256 * 256 // 2
        assert plan.dram_output_bytes == 256 * 128 * 4
        assert plan.dram_total_bytes == (
            plan.dram_weight_bytes + plan.dram_input_bytes + plan.dram_output_bytes
        )


class TestPrefixBuffer:
    def test_write_read_roundtrip_and_traffic(self):
        buffer = DistributedPrefixBuffer(num_banks=8, capacity_bytes=18 * 1024, entry_bytes=64)
        value = np.arange(32)
        buffer.write(lane=3, node=11, value=value)
        np.testing.assert_array_equal(buffer.read(lane=3, node=11), value)
        assert buffer.stats.reads == 1 and buffer.stats.writes == 1
        assert buffer.traffic.read_bytes + buffer.traffic.write_bytes == 128

    def test_node_zero_reads_as_zero(self):
        buffer = DistributedPrefixBuffer(num_banks=4, capacity_bytes=1024, entry_bytes=64)
        assert (buffer.read(lane=0, node=0) == 0).all()

    def test_missing_prefix_raises(self):
        buffer = DistributedPrefixBuffer(num_banks=4, capacity_bytes=1024, entry_bytes=64)
        with pytest.raises(SimulationError):
            buffer.read(lane=0, node=5)

    def test_capacity_overflow_raises(self):
        buffer = DistributedPrefixBuffer(num_banks=2, capacity_bytes=128, entry_bytes=64)
        buffer.write(0, 1, np.zeros(32))
        buffer.write(1, 2, np.zeros(32))
        with pytest.raises(SimulationError):
            buffer.write(0, 3, np.zeros(32))


class TestProcessingElements:
    def test_ppe_adds_within_precision(self):
        ppe = PrefixPE(12)
        result = ppe.add(np.array([100, -100]), np.array([27, -27]))
        assert result.tolist() == [127, -127]
        assert ppe.counters.operations == 1

    def test_ppe_overflow_detected(self):
        ppe = PrefixPE(12)
        with pytest.raises(SimulationError):
            ppe.add(np.array([2000]), np.array([100]))

    def test_ape_shift_accumulate(self):
        ape = AccumulationPE(24)
        result = ape.accumulate(np.array([10]), np.array([3]), plane_weight=-128)
        assert result.tolist() == [10 - 384]

    def test_ape_rejects_non_power_of_two_weight(self):
        ape = AccumulationPE(24)
        with pytest.raises(SimulationError):
            ape.accumulate(np.array([0]), np.array([1]), plane_weight=3)

    def test_precision_claim_8bit_activations_never_overflow(self):
        # Paper Sec. 4.5: a 12-bit PPE suffices for 8-bit activations with T=8.
        rng = np.random.default_rng(0)
        ppe = PrefixPE(12)
        total = np.zeros(32, dtype=np.int64)
        for _ in range(8):
            total = ppe.add(total, rng.integers(-128, 128, size=32))
        assert ppe.counters.operations == 8


class TestPipelineAndVPU:
    def test_vpu_softmax_rows_sum_to_one(self):
        vpu = VectorProcessingUnit()
        probs = vpu.softmax(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(probs.sum(axis=-1), [1.0, 1.0])
