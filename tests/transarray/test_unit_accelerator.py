"""Integration tests: TransArray unit execution and accelerator-level simulation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TransArrayConfig
from repro.core.metrics import OpCounts
from repro.errors import SimulationError
from repro.hasse import balance_lanes, hasse_graph
from repro.scoreboard import DynamicScoreboard, run_scoreboard, run_scoreboard_batch
from repro.transarray import TransArrayUnit, TransitiveArrayAccelerator
from repro.workloads import GemmShape, GemmWorkload
from repro.workloads.llama import LlamaConfig, llama_block_gemms
from tests.reference import lane_ppe_loads, profile_subtile


class TestUnitFunctional:
    def test_subtile_execution_is_bit_exact(self):
        rng = np.random.default_rng(0)
        unit = TransArrayUnit()
        weight = rng.integers(-128, 128, size=(32, 8), dtype=np.int64)
        act = rng.integers(-128, 128, size=(8, 32), dtype=np.int64)
        np.testing.assert_array_equal(unit.execute_subtile(weight, act, 8), weight @ act)

    def test_4bit_weights_double_tile_height(self):
        rng = np.random.default_rng(1)
        unit = TransArrayUnit()
        weight = rng.integers(-8, 8, size=(64, 8), dtype=np.int64)
        act = rng.integers(-128, 128, size=(8, 32), dtype=np.int64)
        np.testing.assert_array_equal(unit.execute_subtile(weight, act, 4), weight @ act)

    def test_shape_validation(self):
        unit = TransArrayUnit()
        with pytest.raises(SimulationError):
            unit.execute_subtile(np.zeros((4, 7), dtype=np.int64),
                                 np.zeros((8, 4), dtype=np.int64), 8)
        with pytest.raises(SimulationError):
            unit.execute_subtile(np.zeros((4, 8), dtype=np.int64),
                                 np.zeros((7, 4), dtype=np.int64), 8)

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([2, 4, 8]))
    @settings(max_examples=15, deadline=None)
    def test_random_subtiles_are_lossless(self, seed, bits):
        rng = np.random.default_rng(seed)
        unit = TransArrayUnit()
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        rows = int(rng.integers(1, 40))
        weight = rng.integers(lo, hi + 1, size=(rows, 8), dtype=np.int64)
        act = rng.integers(-128, 128, size=(8, 16), dtype=np.int64)
        np.testing.assert_array_equal(unit.execute_subtile(weight, act, bits), weight @ act)


class TestUnitProfiling:
    def test_profile_density_near_floor_for_full_population(self):
        rng = np.random.default_rng(2)
        unit = TransArrayUnit()
        report = unit.profile_subtiles([rng.integers(0, 256, size=256).tolist()])[0]
        assert 0.115 <= report.op_counts.density <= 0.16
        assert report.ape_cycles >= 1
        assert report.compute_cycles == max(report.ppe_cycles, report.ape_cycles)

    def test_buffer_traffic_keys(self):
        rng = np.random.default_rng(4)
        report = TransArrayUnit().profile_subtiles([rng.integers(0, 256, size=64).tolist()])[0]
        assert set(report.buffer_bytes) == {"weight", "input", "prefix", "output"}
        assert report.buffer_bytes["prefix"] > 0


class TestAccelerator:
    def test_configuration_validation(self):
        with pytest.raises(SimulationError):
            TransitiveArrayAccelerator(samples_per_gemm=0)

    def test_simulate_reports_positive_cycles_and_energy(self):
        accelerator = TransitiveArrayAccelerator(samples_per_gemm=2)
        report = accelerator.simulate(GemmShape("small", 128, 128, 64, weight_bits=8))
        assert report.cycles > 0
        assert report.energy_nj > 0
        assert report.macs == 128 * 128 * 64
        assert "small" in report.per_gemm_cycles

    def test_4bit_weights_roughly_double_throughput(self):
        shape = GemmShape("fc", 512, 512, 256, weight_bits=8)
        eight = TransitiveArrayAccelerator(samples_per_gemm=3).simulate(shape)
        four = TransitiveArrayAccelerator(samples_per_gemm=3).simulate(shape.with_precision(4))
        assert 1.6 <= eight.cycles / four.cycles <= 2.4

    def test_weight_provider_is_used_and_validated(self):
        shape = GemmShape("fc", 64, 64, 32, weight_bits=8)
        calls = []

        def provider(s):
            calls.append(s.name)
            rng = np.random.default_rng(0)
            return rng.integers(-128, 128, size=(s.n, s.k), dtype=np.int64)

        accelerator = TransitiveArrayAccelerator(samples_per_gemm=2, weight_provider=provider)
        accelerator.simulate(shape)
        assert calls

        bad = TransitiveArrayAccelerator(
            samples_per_gemm=2, weight_provider=lambda s: np.zeros((2, 2), dtype=np.int64)
        )
        with pytest.raises(SimulationError):
            bad.simulate(shape)

    def test_workload_aggregation(self):
        workload = GemmWorkload(
            name="two",
            gemms=[GemmShape("a", 64, 64, 32), GemmShape("b", 64, 64, 32)],
        )
        report = TransitiveArrayAccelerator(samples_per_gemm=2).simulate(workload)
        assert set(report.per_gemm_cycles) == {"a", "b"}
        assert report.cycles == sum(report.per_gemm_cycles.values())


@st.composite
def _bag_batches(draw):
    """A width, lane count and max distance, plus bags of TransRows to profile.

    Bags may be empty or all zero; values are drawn from a small pool so
    duplicates, relays and (at small distances) outliers all occur.
    """
    width = draw(st.integers(min_value=1, max_value=8))
    lanes = draw(st.integers(min_value=1, max_value=8))
    max_distance = draw(st.integers(min_value=1, max_value=5))
    pool = draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=24))
    bag = st.one_of(
        st.lists(st.sampled_from(pool), max_size=48),
        st.lists(st.just(0), max_size=8),
    )
    return width, lanes, max_distance, draw(st.lists(bag, min_size=1, max_size=4))


def _check_workload_counter_rule(indices, counts, candidates, num_lanes, prefixes, lanes):
    """Each node took the rule's choice given the lane loads placed before it."""
    loads = [0] * num_lanes
    lane_of = {}
    for index, count, options, prefix, lane in zip(
        indices, counts, candidates, prefixes, lanes
    ):
        placed = [p for p in options if p in lane_of]
        if placed:  # the placed prefix on the lightest lane, smaller prefix on ties
            best = min(placed, key=lambda p: (loads[lane_of[p]], p))
            assert (prefix, lane) == (best, lane_of[best]), index
        else:  # a new tree on the lightest lane, lower lane on ties
            assert 0 in options
            assert (prefix, lane) == (0, loads.index(min(loads))), index
        loads[lane] += max(count, 1)  # a relay still costs one step
        lane_of[index] = lane


class TestArrayProfile:
    """The accelerator's array-built reports against the scalar oracle."""

    @given(_bag_batches())
    @settings(max_examples=150, deadline=None)
    def test_array_reports_equal_the_scalar_oracle(self, case):
        width, lanes, max_distance, bags = case
        unit = TransArrayUnit(TransArrayConfig(transrow_bits=width,
                                               max_prefix_distance=max_distance))
        unit.scoreboard = DynamicScoreboard(width, max_distance, num_lanes=lanes)
        reports = unit.profile_subtiles(bags)
        assert reports == [profile_subtile(unit, bag) for bag in bags]
        lane_loads = run_scoreboard_batch(bags, width, max_distance).lane_node_counts(lanes)
        for bag, report, loads in zip(bags, reports, lane_loads):
            result = run_scoreboard(bag, width, max_distance, num_lanes=lanes)
            assert loads == lane_ppe_loads(result)
            # Pin the pricing itself, which both paths share.
            outlier_adds = sum(outlier.popcount for outlier in result.outliers)
            nonzero = len(bag) - bag.count(0)
            assert report.ppe_cycles == (
                max(lane_ppe_loads(result)) + math.ceil(outlier_adds / width)
            )
            assert report.ape_cycles == math.ceil(nonzero / width)
            assert report.op_counts.outlier_ops == outlier_adds

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_lane_core_follows_the_workload_counter_rule(self, width, lanes, data):
        graph = hasse_graph(width)
        order = graph.hamming_order(include_zero=False)
        indices = data.draw(st.lists(st.sampled_from(order), unique=True, max_size=40))
        indices.sort(key=order.index)
        counts, candidates = [], []
        for position, index in enumerate(indices):
            counts.append(data.draw(st.integers(min_value=0, max_value=3)))
            placed = [p for p in graph.direct_prefixes(index) if p in indices[:position]]
            options = data.draw(st.lists(st.sampled_from(placed), unique=True)) if placed else []
            if not options or data.draw(st.booleans()):
                options.append(0)
            candidates.append(tuple(options))
        prefixes, assigned = balance_lanes(indices, counts, candidates, lanes)
        _check_workload_counter_rule(indices, counts, candidates, lanes, prefixes, assigned)


def _decode_block_shapes():
    """The hidden-256 / intermediate-704 INT4 decode block, one column."""
    config = LlamaConfig(
        "bench-256", hidden_size=256, intermediate_size=704,
        num_attention_heads=4, num_key_value_heads=4, num_layers=1,
    )
    return llama_block_gemms(
        config.name, config=config, sequence_length=1, weight_bits=4, activation_bits=8,
    ).gemms


#: ``simulate_gemm`` of the decode block shapes, in order, on one seed-1
#: accelerator: cycles, OpCounts and the non-zero energy components (nJ).
_DECODE_GOLDEN = {
    "qkv_proj": (
        1551,
        OpCounts(width=8, total_transrows=3072, zero_rows=15, pr_ops=1949,
                 fr_ops=1108, tr_ops=51, outlier_ops=0, set_bits=12351),
        {"core_nj": 186.85176, "dram_dynamic_nj": 680.96, "dram_static_nj": 372.24,
         "input_buffer_nj": 106.66666666666666, "output_buffer_nj": 270.37125290977224,
         "prefix_buffer_nj": 286.0671193968297, "weight_buffer_nj": 5.12},
    ),
    "attn_score": (
        1551,
        OpCounts(width=8, total_transrows=3072, zero_rows=8, pr_ops=1939,
                 fr_ops=1125, tr_ops=49, outlier_ops=0, set_bits=12252),
        {"core_nj": 186.87224, "dram_dynamic_nj": 680.96, "dram_static_nj": 372.24,
         "input_buffer_nj": 106.02666666666666, "output_buffer_nj": 270.9903562039718,
         "prefix_buffer_nj": 285.784276684355, "weight_buffer_nj": 5.12},
    ),
    "o_proj": (
        1551,
        OpCounts(width=8, total_transrows=3072, zero_rows=20, pr_ops=1928,
                 fr_ops=1124, tr_ops=48, outlier_ops=0, set_bits=12297),
        {"core_nj": 186.5036, "dram_dynamic_nj": 680.96, "dram_static_nj": 372.24,
         "input_buffer_nj": 105.38666666666666, "output_buffer_nj": 269.9290362710581,
         "prefix_buffer_nj": 284.4266316644768, "weight_buffer_nj": 5.12},
    ),
    "gate_proj": (
        4090,
        OpCounts(width=8, total_transrows=3072, zero_rows=15, pr_ops=1952,
                 fr_ops=1105, tr_ops=47, outlier_ops=0, set_bits=12273),
        {"core_nj": 505.05168000000003, "dram_dynamic_nj": 1863.68,
         "dram_static_nj": 981.5999999999998, "input_buffer_nj": 293.18666666666667,
         "output_buffer_nj": 743.5209455018735, "prefix_buffer_nj": 786.5290148494205,
         "weight_buffer_nj": 14.08},
    ),
    "down_proj": (
        4090,
        OpCounts(width=8, total_transrows=3072, zero_rows=11, pr_ops=1961,
                 fr_ops=1100, tr_ops=45, outlier_ops=0, set_bits=12359),
        {"core_nj": 505.47407999999996, "dram_dynamic_nj": 1836.8,
         "dram_static_nj": 981.5999999999998, "input_buffer_nj": 294.2133333333333,
         "output_buffer_nj": 744.4938221070444, "prefix_buffer_nj": 788.2402132598917,
         "weight_buffer_nj": 14.08},
    ),
}

_ENERGY_FIELDS = (
    "dram_static_nj", "dram_dynamic_nj", "core_nj", "weight_buffer_nj",
    "input_buffer_nj", "prefix_buffer_nj", "output_buffer_nj", "other_buffer_nj",
)


class TestSimulateGemmGolden:
    """Pinned sampled-profile outputs: sampling and packing must not drift."""

    def test_decode_block_seed_1(self):
        accelerator = TransitiveArrayAccelerator(seed=1)
        shapes = _decode_block_shapes()
        assert [shape.name for shape in shapes] == list(_DECODE_GOLDEN)
        for shape in shapes:
            cycles, counts, energy = _DECODE_GOLDEN[shape.name]
            profile = accelerator.simulate_gemm(shape)
            assert profile.cycles == cycles, shape.name
            assert profile.op_counts == counts, shape.name
            for name in _ENERGY_FIELDS:
                assert getattr(profile.energy, name) == pytest.approx(
                    energy.get(name, 0.0), rel=1e-12, abs=0.0
                ), (shape.name, name)

    @pytest.mark.parametrize(
        "cycles, tr_ops, total_nj",
        # The id keeps the dynamic scoreboard these values were pinned under.
        [pytest.param(133, 146, 74.9009426231629, id="dynamic-133-146-74.9009426231629")],
    )
    def test_weight_provider_profile(self, cycles, tr_ops, total_nj):
        # A partial row block and a partial column chunk exercise the padding.
        shape = GemmShape("odd", 37, 29, 3, weight_bits=4)
        accelerator = TransitiveArrayAccelerator(
            seed=6, weight_provider=lambda s: np.random.default_rng(7).integers(-8, 8, size=(s.n, s.k)),
        )
        profile = accelerator.simulate_gemm(shape)
        assert profile.cycles == cycles
        assert profile.op_counts == OpCounts(
            width=8, total_transrows=3072, zero_rows=1311, pr_ops=1155,
            fr_ops=606, tr_ops=tr_ops, outlier_ops=0, set_bits=6756,
        )
        assert profile.energy.total_nj == pytest.approx(total_nj, rel=1e-12, abs=0.0)

    def test_weight_provider_called_once_per_gemm(self):
        calls = []

        def provider(shape):
            calls.append(shape.name)
            return np.ones((shape.n, shape.k), dtype=np.int64)

        accelerator = TransitiveArrayAccelerator(samples_per_gemm=12, weight_provider=provider)
        shapes = [GemmShape("a", 64, 64, 8, weight_bits=4),
                  GemmShape("b", 96, 40, 8, weight_bits=4)]
        for shape in shapes:
            accelerator.simulate_gemm(shape)
        assert calls == ["a", "b"]
