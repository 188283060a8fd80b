"""Weight codes stored once, narrow.

A compiled plan pins its weights once, read-only, in the narrowest signed
integer dtype that holds them (``narrow_codes``), beside the executor's
float64 copy.  Every execution path must still equal the exact (Python-int)
product, the executor's bounds must not wrap on the narrow type's most
negative value, and the static-scoreboard cache must key on the narrowed
codes so equal values share one entry whatever dtype they arrive in.
"""

import gc
import tracemalloc
import types

import numpy as np
import pytest

from repro.core import ExactExecutor, TransitiveGemmEngine, narrow_codes, scalar_multiply
from repro.core.executor import FLOAT64_EXACT
from repro.serving import compile_workload
from repro.workloads import synthetic_gemm_workload


def _exact(weight: np.ndarray, activation: np.ndarray) -> np.ndarray:
    """The product in Python ints (no wrap anywhere)."""
    return np.asarray(weight).astype(object) @ np.asarray(activation).astype(object)


def _codes(bits: int, n: int, k: int, seed: int) -> np.ndarray:
    """Random ``bits``-bit int64 weights that reach both ends of the range."""
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    weight = np.random.default_rng(seed).integers(lo, hi + 1, size=(n, k), dtype=np.int64)
    weight[0, 0], weight[-1, -1] = lo, hi
    return weight


# (bits, dtype plan() pins them in)
NARROWING_TABLE = [
    (2, np.int8),
    (4, np.int8),
    (8, np.int8),
    (16, np.int16),
    (20, np.int32),
]


class TestNarrowCodes:
    @pytest.mark.parametrize(
        "values, dtype",
        [
            ([[0]], np.int8),
            ([[-128, 127]], np.int8),
            ([[-129]], np.int16),
            ([[128]], np.int16),
            ([[-(1 << 15), (1 << 15) - 1]], np.int16),
            ([[1 << 15]], np.int32),
            ([[-(1 << 19), (1 << 19) - 1]], np.int32),
            ([[-(1 << 31) - 1]], np.int64),
            ([[-(1 << 39), (1 << 39) - 1]], np.int64),
            ([[-(1 << 63), (1 << 63) - 1]], np.int64),
        ],
    )
    def test_narrowest_signed_dtype_holding_the_values(self, values, dtype):
        codes = narrow_codes(np.array(values, dtype=np.int64))
        assert codes.dtype == dtype
        assert codes.tolist() == values

    def test_unsigned_and_narrower_inputs(self):
        assert narrow_codes(np.array([[255]], dtype=np.uint8)).dtype == np.int16
        assert narrow_codes(np.array([[3]], dtype=np.uint64)).dtype == np.int8
        assert narrow_codes(np.array([[-3]], dtype=np.int32)).dtype == np.int8
        assert narrow_codes(np.zeros((0, 4), dtype=np.int64)).dtype == np.int8

    def test_already_narrow_codes_are_returned_as_is(self):
        codes = np.array([[1, -2]], dtype=np.int8)
        assert narrow_codes(codes) is codes

    def test_values_and_dtypes_no_signed_type_holds_pass_through(self):
        huge = np.array([[1 << 63]], dtype=np.uint64)
        assert narrow_codes(huge) is huge
        floats = np.array([[1.5]])
        assert narrow_codes(floats) is floats


class TestPlanStoresNarrowCodes:
    @pytest.mark.parametrize("bits, dtype", NARROWING_TABLE)
    def test_every_path_equals_the_exact_product(self, bits, dtype):
        weight = _codes(bits, 6, 13, seed=bits)
        activation = np.random.default_rng(bits + 100).integers(
            -(1 << 20), 1 << 20, size=(13, 3), dtype=np.int64
        )
        expected = _exact(weight, activation)
        engine = TransitiveGemmEngine(transrow_bits=4)
        plan = engine.plan(weight, bits)
        assert plan.weight.dtype == dtype
        assert not plan.weight.flags.writeable
        assert np.array_equal(plan.kernel.weight, plan.weight)
        assert np.array_equal(plan.weight, weight)
        assert np.array_equal(engine.multiply_planned(plan, activation).output, expected)
        oracle = scalar_multiply(plan.weight, activation, bits, transrow_bits=4)
        assert np.array_equal(oracle.output, expected)
        model = compile_workload(
            synthetic_gemm_workload(num_layers=1, n=6, k=13, m=3, weight_bits=bits),
            engine=TransitiveGemmEngine(transrow_bits=4),
            weight_provider=lambda shape: weight,
        )
        assert model.layer("layer0").weight.dtype == dtype
        scalar = scalar_multiply(model.layer("layer0").weight, activation, bits, transrow_bits=4)
        assert np.array_equal(scalar.output, expected)
        assert np.array_equal(model.run("layer0", activation), expected)

    def test_forty_bit_codes_stay_int64_and_exact(self):
        # plan() bit-slices at most 32 bits, so 40-bit codes are driven
        # through the narrowing helper and the executor a plan would build.
        weight = _codes(40, 5, 9, seed=40)
        codes = narrow_codes(weight)
        assert codes.dtype == np.int64
        executor = ExactExecutor(codes)
        activation = np.random.default_rng(41).integers(-127, 128, size=(9, 4))
        assert np.array_equal(executor.execute(activation), _exact(weight, activation))

    def test_planning_narrow_codes_copies_them(self):
        weight = _codes(4, 5, 7, seed=3).astype(np.int8)
        plan = TransitiveGemmEngine(transrow_bits=4).plan(weight, 4)
        expected = weight.copy()
        weight[:] = 0
        assert np.array_equal(plan.weight, expected)
        activation = np.ones((7, 1), dtype=np.int64)
        output = TransitiveGemmEngine(transrow_bits=4).multiply_planned(plan, activation)
        assert np.array_equal(output.output, _exact(expected, activation))

    def test_narrow_activations_need_widened_codes(self):
        # The documented hazard: numpy multiplies int8 by int8 in int8.
        weight = np.full((1, 4), 127, dtype=np.int64)
        plan = TransitiveGemmEngine(transrow_bits=4).plan(weight, 8)
        activation = np.full((4, 1), 127, dtype=np.int8)
        assert (plan.weight @ activation)[0, 0] != 4 * 127 * 127
        assert (plan.weight.astype(np.int64) @ activation)[0, 0] == 4 * 127 * 127
        assert plan.kernel.execute(activation)[0, 0] == 4 * 127 * 127


class TestMostNegativeRow:
    K = 64

    def _executor(self):
        weight = np.random.default_rng(5).integers(-128, 128, size=(3, self.K))
        weight[1] = -128
        codes = TransitiveGemmEngine().plan(weight, 8).weight
        assert codes.dtype == np.int8
        return ExactExecutor(codes), codes

    def test_bounds_do_not_wrap(self):
        executor, _ = self._executor()
        assert executor.row_bound == 128 * self.K
        assert executor.max_weight == 128

    @pytest.mark.parametrize(
        "peak, regime",
        [
            # row_bound * peak < 2**53: one product.
            ((FLOAT64_EXACT - 1) // (128 * K), "one-product"),
            ((FLOAT64_EXACT - 1) // (128 * K) + 1, "k-split"),
            # max|w| * peak < 2**53: K blocks.
            ((FLOAT64_EXACT - 1) // 128, "k-split"),
            ((FLOAT64_EXACT - 1) // 128 + 1, "digit-split"),
        ],
    )
    def test_peaks_around_each_regime_boundary_stay_exact(self, peak, regime, monkeypatch):
        executor, codes = self._executor()
        ran = []
        for name in ("_block_product", "_digit_product"):
            method = getattr(executor, name)
            monkeypatch.setattr(
                executor, name,
                lambda *args, _name=name, _method=method: ran.append(_name) or _method(*args),
            )
        # Every product of the -128 row has one sign, so its sum is the
        # largest the row bound allows at this peak.
        activation = np.random.default_rng(peak % 997).integers(
            -peak, peak, size=(self.K, 3), dtype=np.int64, endpoint=True
        )
        activation[:, 0] = -peak
        activation[:, 1] = peak
        output = executor.execute(activation)
        assert np.array_equal(output, _exact(codes, activation))
        assert output[1, 0] == 128 * self.K * peak
        expected = {
            "one-product": [], "k-split": ["_block_product"], "digit-split": ["_digit_product"],
        }[regime]
        assert ran == expected


def _reachable_arrays(root) -> list:
    """Every ndarray reachable from ``root`` through instance attributes,
    containers and array bases (not through classes, modules or code)."""
    arrays, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
            if obj.base is not None:
                stack.append(obj.base)
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif not isinstance(obj, (type, types.ModuleType, types.FunctionType)) and hasattr(
            obj, "__dict__"
        ):
            stack.extend(vars(obj).values())
    return arrays


class TestPlanMemory:
    SHAPE = (1024, 1024)

    def _weight(self):
        return np.random.default_rng(9).integers(-8, 8, size=self.SHAPE, dtype=np.int64)

    def test_plan_holds_at_most_ten_bytes_per_weight(self):
        weight = self._weight()
        # No scoreboard cache: only what the plan itself pins is counted.
        engine = TransitiveGemmEngine(transrow_bits=8, scoreboard_cache_entries=0)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            plan = engine.plan(weight, 4)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert plan.weight.dtype == np.int8
        assert held <= 10 * weight.size, f"{held / weight.size:.2f} B/weight held"

    @pytest.mark.parametrize("width", [4, 8])
    def test_plan_peak_is_what_it_keeps_plus_a_block(self, width):
        # plan() streams its counts over row blocks and builds the executor
        # copy in row blocks, so no weight-sized temporary (a whole packed
        # matrix, its int64 bags, an int64 draw) raises the peak past what
        # the plan keeps by more than a fixed block allowance.
        weight = np.random.default_rng(4).integers(-8, 8, size=(2816, 1024), dtype=np.int8)
        engine = TransitiveGemmEngine(transrow_bits=width)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            plan = engine.plan(weight, 4)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        kept = plan.weight.nbytes + plan.kernel.weight.nbytes
        assert peak <= kept + 2 * 2**20, f"peak {peak / 2**20:.1f} MiB, keeps {kept / 2**20:.1f} MiB"

    def test_no_int64_copy_of_the_weight_is_reachable(self):
        plan = TransitiveGemmEngine(transrow_bits=8).plan(self._weight(), 4)
        arrays = _reachable_arrays(plan)
        assert any(array is plan.weight for array in arrays)
        assert any(array is plan.kernel.weight for array in arrays)
        wide = [
            array for array in arrays
            if array.shape == self.SHAPE and array.dtype == np.int64
        ]
        assert wide == []
        # One float64 copy, column-major: weight.T is C-contiguous, and every
        # reachable float array of the weight's size is a view of it.
        assert plan.kernel.weight.T.flags.c_contiguous
        floats = [
            array for array in arrays
            if array.size == plan.weight.size and array.dtype == np.float64
        ]
        assert floats and all(np.shares_memory(array, plan.kernel.weight) for array in floats)
