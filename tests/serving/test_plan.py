"""Model-plan compilation and planned execution: exactness and validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TransitiveGemmEngine
from repro.exact import FLOAT64_EXACT
from repro.errors import ServingError, SimulationError
from repro.quant.schemes import SCHEME_REGISTRY
from repro.serving import compile_workload
from repro.transarray import TransitiveArrayAccelerator
from repro.workloads import (
    GemmShape,
    GemmWorkload,
    LlamaConfig,
    llama_attention_gemms,
    llama_block_gemms,
    outlier_weight_matrix,
    resnet18_gemms,
    synthetic_gemm_workload,
)


def _workload(num_layers=3, n=24, k=20, m=8, weight_bits=6):
    return synthetic_gemm_workload(
        num_layers=num_layers, n=n, k=k, m=m, weight_bits=weight_bits
    )


class TestWorkloadLayers:
    def test_layers_is_uniform_across_builders(self):
        for workload in (
            _workload(),
            llama_attention_gemms("llama1-7b", sequence_length=8),
            resnet18_gemms(),
        ):
            layers = workload.layers()
            assert layers == tuple(workload.gemms)
            assert all(shape.name for shape in layers)


class TestGemmPlan:
    def test_planned_multiply_is_bit_identical(self):
        rng = np.random.default_rng(0)
        engine = TransitiveGemmEngine(transrow_bits=4)
        weight = rng.integers(-8, 8, size=(17, 13), dtype=np.int64)
        plan = engine.plan(weight, weight_bits=4)
        for m in (1, 3, 16):
            activation = rng.integers(-128, 128, size=(13, m), dtype=np.int64)
            report = engine.multiply_planned(plan, activation)
            assert np.array_equal(report.output, weight @ activation)
            assert report.op_counts == engine.multiply(weight, activation, 4).op_counts

    def test_plan_counts_like_multiply_and_leaves_the_cache_empty(self):
        # plan() streams its counts and keeps no packed TransRows, so only
        # multiply() fills the cache; both count through one path.
        rng = np.random.default_rng(2)
        engine = TransitiveGemmEngine(transrow_bits=8)
        weight = rng.integers(-8, 8, size=(10, 10), dtype=np.int64)
        plan = engine.plan(weight, weight_bits=4)
        info = engine.scoreboard_cache_info()
        assert (info.hits, info.misses, info.entries) == (0, 0, 0)
        activation = rng.integers(-4, 4, size=(10, 2), dtype=np.int64)
        report = engine.multiply(weight, activation, 4)
        assert report.op_counts == plan.op_counts
        assert np.array_equal(report.output, weight @ activation)

    def test_narrow_codes_and_int64_values_share_one_cache_entry(self):
        # The cache keys on the narrowed codes, so the dtype the same values
        # arrive in does not matter.
        rng = np.random.default_rng(2)
        engine = TransitiveGemmEngine(transrow_bits=8)
        weight = rng.integers(-8, 8, size=(10, 10), dtype=np.int64)
        activation = rng.integers(-4, 4, size=(10, 2), dtype=np.int64)
        narrow = engine.multiply(weight.astype(np.int8), activation, 4)
        wide = engine.multiply(weight, activation, 4)
        info = engine.scoreboard_cache_info()
        assert (info.hits, info.misses, info.entries) == (1, 1, 1)
        assert np.array_equal(wide.output, weight @ activation)
        assert np.array_equal(narrow.output, wide.output)
        assert narrow.op_counts == wide.op_counts

    def test_plan_validation(self):
        rng = np.random.default_rng(3)
        engine = TransitiveGemmEngine(transrow_bits=8)
        weight = rng.integers(-8, 8, size=(6, 6), dtype=np.int64)
        plan = engine.plan(weight, weight_bits=4)
        with pytest.raises(SimulationError):
            engine.plan(np.zeros(3), weight_bits=4)  # not 2-D
        with pytest.raises(SimulationError):
            engine.multiply_planned(plan, np.zeros((5, 2), dtype=np.int64))  # bad k
        other = TransitiveGemmEngine(transrow_bits=4)
        with pytest.raises(SimulationError):
            other.multiply_planned(plan, np.zeros((6, 1), dtype=np.int64))


def _wrapped_product(weight, activation):
    """Exact product in Python ints, reduced mod 2**64 like an int64 matmul."""
    exact = weight.astype(object) @ activation.astype(object)
    wrap = np.vectorize(lambda value: (value + 2 ** 63) % 2 ** 64 - 2 ** 63, otypes=[np.int64])
    return wrap(exact).reshape(exact.shape)


class TestModelPlanRun:
    """``ModelPlan.run`` calls the layer's executor directly, which keeps
    every refusal of the engine's planned path and its exact result."""

    weight = np.random.default_rng(8).integers(-8, 8, size=(6, 40), dtype=np.int64)

    @pytest.fixture(scope="class")
    def plan(self):
        workload = synthetic_gemm_workload(num_layers=1, n=6, k=40, m=1, weight_bits=4)
        return compile_workload(workload, weight_provider=lambda shape: self.weight)

    def test_wrong_height_is_refused(self, plan):
        with pytest.raises(SimulationError, match="shape mismatch"):
            plan.run("layer0", np.zeros((39, 1), dtype=np.int64))

    def test_one_dimensional_input_is_refused(self, plan):
        with pytest.raises(SimulationError, match="2-D"):
            plan.run("layer0", np.zeros(40, dtype=np.int64))

    def test_unknown_layer_is_named(self, plan):
        with pytest.raises(ServingError, match="no layer 'nope'"):
            plan.run("nope", np.zeros((40, 1), dtype=np.int64))

    def test_inexact_entry_is_refused(self, plan):
        activation = np.zeros((40, 1))
        activation[7, 0] = 1.5
        with pytest.raises(SimulationError, match="not exactly representable"):
            plan.run("layer0", activation)

    @pytest.mark.parametrize("regime", ["one-product", "k-split", "digit-split"])
    def test_matches_python_ints_mod_2_64(self, plan, regime):
        kernel = plan.layer("layer0").gemm_plan.kernel
        peak = {
            "one-product": 127,
            "k-split": (FLOAT64_EXACT - 1) // kernel.max_weight,
            "digit-split": 2 ** 63 - 1,
        }[regime]
        one_product = kernel.row_bound * peak < FLOAT64_EXACT
        k_split = not one_product and kernel.max_weight * peak < FLOAT64_EXACT
        assert {"one-product": one_product, "k-split": k_split,
                "digit-split": not (one_product or k_split)}[regime]
        activation = np.random.default_rng(9).integers(
            -peak, peak, size=(40, 3), dtype=np.int64, endpoint=True
        )
        activation[0, 0] = -peak  # the peak itself, negated
        assert np.array_equal(
            plan.run("layer0", activation), _wrapped_product(self.weight, activation)
        )


def _lay_out(activation, layout):
    """``activation``'s values in a C, Fortran, reversed or strided layout."""
    if layout == "fortran":
        return np.asfortranarray(activation)
    if layout == "reversed":
        return np.ascontiguousarray(activation[::-1, ::-1])[::-1, ::-1]
    if layout == "strided":
        base = np.zeros((2 * activation.shape[0], 3 * activation.shape[1]), dtype=np.int64)
        base[::2, ::3] = activation
        return base[::2, ::3]
    return np.ascontiguousarray(activation)


_CHAIN_WEIGHTS = {
    name: np.random.default_rng(seed).integers(-128, 128, size=(12, 12), dtype=np.int64)
    for name, seed in (("layer0", 31), ("layer1", 32))
}


@pytest.fixture(scope="module")
def chain_plan():
    workload = synthetic_gemm_workload(num_layers=2, n=12, k=12, m=1, weight_bits=8)
    return compile_workload(workload, graph="chain",
                            weight_provider=lambda shape: _CHAIN_WEIGHTS[shape.name])


@st.composite
def _laid_out_inputs(draw, row_bound, max_weight):
    """An activation for a ``(12, 12)`` layer in any layout, its peak drawn
    into one executor regime: one product, K split or digit split."""
    regime = draw(st.sampled_from(["one-product", "k-split", "digit-split"]))
    low, high = {
        "one-product": (0, (FLOAT64_EXACT - 1) // row_bound),
        "k-split": (-(-FLOAT64_EXACT // row_bound), (FLOAT64_EXACT - 1) // max_weight),
        "digit-split": (-(-FLOAT64_EXACT // max_weight), 2 ** 63),
    }[regime]
    peak = draw(st.integers(low, high))
    m = draw(st.integers(1, 4))
    bound = min(peak, 2 ** 63 - 1)
    activation = np.array(
        draw(st.lists(st.integers(-bound, bound), min_size=12 * m, max_size=12 * m)),
        dtype=np.int64,
    ).reshape(12, m)
    row, col = draw(st.integers(0, 11)), draw(st.integers(0, m - 1))
    activation[row, col] = -(2 ** 63) if peak == 2 ** 63 else peak
    layout = draw(st.sampled_from(["contiguous", "fortran", "reversed", "strided"]))
    return _lay_out(activation, layout)


class TestColumnOrders:
    """Served stages hand column-major outputs to the next stage, so every
    input layout must give the exact product in every executor regime."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_run_and_run_model_match_python_ints(self, chain_plan, data):
        kernel = chain_plan.layer("layer0").gemm_plan.kernel
        activation = data.draw(_laid_out_inputs(kernel.row_bound, kernel.max_weight))
        first = _wrapped_product(_CHAIN_WEIGHTS["layer0"], activation)
        assert np.array_equal(chain_plan.run("layer0", activation), first)
        assert np.array_equal(chain_plan.run("layer1", activation),
                              _wrapped_product(_CHAIN_WEIGHTS["layer1"], activation))
        assert np.array_equal(chain_plan.run_model(activation),
                              _wrapped_product(_CHAIN_WEIGHTS["layer1"], first))


class TestCompileWorkload:
    def test_compiled_plan_serves_every_layer_exactly(self):
        workload = _workload()
        plan = compile_workload(workload, seed=11)
        rng = np.random.default_rng(4)
        for name in plan.layer_names():
            layer = plan.layer(name)
            activation = rng.integers(-128, 128, size=(layer.shape.k, 3), dtype=np.int64)
            assert np.array_equal(plan.run(name, activation), layer.weight @ activation)
        assert plan.op_counts.total_transrows > 0
        assert len(plan) == len(workload.layers())

    def test_layer_subset_and_unknown_layer(self):
        workload = _workload(num_layers=4)
        plan = compile_workload(workload, layer_names=["layer2"], seed=5)
        assert plan.layer_names() == ["layer2"]
        with pytest.raises(ServingError):
            plan.layer("layer0")
        with pytest.raises(ServingError):
            compile_workload(workload, layer_names=["nope"])
        with pytest.raises(ServingError):
            compile_workload(workload, layer_names=[])

    def test_weight_provider_and_reproducible_sampling(self):
        workload = _workload(num_layers=2)
        fixed = {
            shape.name: np.full((shape.n, shape.k), 3, dtype=np.int64)
            for shape in workload.layers()
        }
        plan = compile_workload(workload, weight_provider=lambda s: fixed[s.name])
        assert np.array_equal(plan.layer("layer0").weight, fixed["layer0"])

        bad = compile_workload  # provider returning the wrong shape must raise
        with pytest.raises(ServingError):
            bad(workload, weight_provider=lambda s: np.zeros((1, 1), dtype=np.int64))

        plan_a = compile_workload(workload, seed=99)
        plan_b = compile_workload(workload, seed=99)
        assert np.array_equal(plan_a.layer("layer1").weight, plan_b.layer("layer1").weight)

    def test_sampled_layers_follow_one_whole_draw_per_layer(self):
        # Each sampled layer equals a whole-matrix int64 draw from the
        # compile stream, and the quantized layer after them gets the seed
        # that stream then yields: sampling leaves the generator where one
        # whole draw per layer did.
        workload = synthetic_gemm_workload(num_layers=3, n=300, k=20, m=1, weight_bits=4)
        plan = compile_workload(workload, seed=21, quant_schemes={"layer2": "transarray-int4"})
        rng = np.random.default_rng(21)
        for name in ("layer0", "layer1"):
            expected = rng.integers(-8, 8, size=(300, 20), dtype=np.int64)
            assert plan.layer(name).weight.dtype == np.int8
            assert np.array_equal(plan.layer(name).weight, expected)
        source = outlier_weight_matrix(300, 20, seed=int(rng.integers(0, 2**31)))
        quantized = SCHEME_REGISTRY["transarray-int4"](source)
        assert np.array_equal(plan.layer("layer2").weight, quantized.values)

    @pytest.mark.parametrize("source", ["synthetic", "provider", "quant_schemes"])
    def test_accelerator_profiles_the_compiled_weights(self, source):
        config = LlamaConfig("tiny", hidden_size=64, intermediate_size=96,
                             num_attention_heads=1, num_key_value_heads=1, num_layers=1)
        workload = llama_block_gemms(config.name, config=config, weight_bits=4)
        kwargs = {}
        if source == "provider":
            kwargs["weight_provider"] = lambda s: np.full((s.n, s.k), 3, dtype=np.int64)
        elif source == "quant_schemes":
            kwargs["quant_schemes"] = {"qkv_proj": "transarray-int4", "down_proj": "olive-8"}
        plan = compile_workload(
            workload, seed=3, accelerator=TransitiveArrayAccelerator(seed=8), **kwargs
        )
        replay = TransitiveArrayAccelerator(seed=8)
        synthetic = TransitiveArrayAccelerator(seed=8)
        for name in plan.layer_names():
            layer = plan.layer(name)
            assert layer.profile == replay.simulate_gemm(layer.shape, weight=layer.weight), name
            if source == "provider":  # all-3 weights price nothing like a random draw
                assert layer.profile != synthetic.simulate_gemm(layer.shape), name

    def test_simulate_gemm_rejects_a_misshaped_weight(self):
        shape = GemmShape("fc", 16, 24, 2, weight_bits=4)
        with pytest.raises(SimulationError):
            TransitiveArrayAccelerator().simulate_gemm(
                shape, weight=np.zeros((24, 16), dtype=np.int8)
            )

    def test_duplicate_layer_names_rejected(self):
        shape = GemmShape("dup", 4, 4, 4, 4, 8)
        workload = GemmWorkload(name="dups", gemms=[shape, shape])
        with pytest.raises(ServingError):
            compile_workload(workload)
