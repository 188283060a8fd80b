"""The exact float64-BLAS executor behind every compiled plan.

Its contract: for every int64 activation, ``execute`` returns the exact
product ``weight @ activation`` reduced modulo 2**64 — one float64 product
while the row bound holds, one product's work split over K blocks while the
largest weight's bound holds, one exact product per activation digit past
both — and planned execution carries the plan's scoreboard counts unchanged.
"""

import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import ExactExecutor, TransitiveGemmEngine
from repro.core.executor import FLOAT64_EXACT
from repro.errors import SimulationError
from repro.quant.schemes import SCHEME_REGISTRY
from repro.serving import compile_workload
from repro.workloads import (
    LlamaConfig,
    llama_block_gemms,
    resnet_stack_gemms,
    synthetic_gemm_workload,
)

INT64_MIN, INT64_MAX = -(2 ** 63), 2 ** 63 - 1


def _wrap(value: int) -> int:
    """``value`` reduced modulo 2**64 into the signed int64 range."""
    value %= 2 ** 64
    return value - 2 ** 64 if value > INT64_MAX else value


def _reference(weight: np.ndarray, activation: np.ndarray) -> np.ndarray:
    """Exact product in Python ints, wrapped like an int64 matmul."""
    exact = weight.astype(object) @ activation.astype(object)
    return np.vectorize(_wrap, otypes=[np.int64])(exact).reshape(exact.shape)


class _CountingMatrix(np.ndarray):
    """Float64 weight view that records the K width of every product run
    against it or against a slice of it."""

    def __array_finalize__(self, obj):
        self.widths = getattr(obj, "widths", None)

    def __matmul__(self, other):
        self.widths.append(self.shape[1])
        return np.asarray(self) @ other


def _widths(executor: ExactExecutor, activation: np.ndarray) -> list:
    """K width of each float64 product ``execute`` runs for ``activation``."""
    weight = executor.weight
    counting = weight.view(_CountingMatrix)
    counting.widths = []
    executor.weight = counting
    try:
        executor.execute(activation)
    finally:
        executor.weight = weight
    return counting.widths


def _products(executor: ExactExecutor, activation: np.ndarray) -> float:
    """Full-K products' worth of work ``execute`` runs for ``activation``:
    summed product widths over K."""
    return sum(_widths(executor, activation)) / executor.weight.shape[1]


def _wrapping_add(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return (x.view(np.uint64) + y.view(np.uint64)).view(np.int64)


def _signed(bits: int, n: int, k: int, seed: int) -> np.ndarray:
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    return np.random.default_rng(seed).integers(lo, hi + 1, size=(n, k), dtype=np.int64)


def _activation(draw, k: int, m: int) -> np.ndarray:
    scale = draw(st.sampled_from([7, 20, 40, 63]))
    entry = st.one_of(
        st.integers(-(1 << scale), (1 << scale) - 1),
        st.sampled_from([INT64_MIN, INT64_MAX, INT64_MIN + 1, 0, -1]),
    )
    activation = draw(st.lists(entry, min_size=k * m, max_size=k * m))
    return np.array(activation, dtype=np.int64).reshape(k, m)


@st.composite
def _operands(draw):
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 5))
    m = draw(st.integers(1, 3))
    bits = draw(st.integers(2, 32))
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    weight = draw(st.lists(st.integers(lo, hi), min_size=n * k, max_size=n * k))
    return np.array(weight, dtype=np.int64).reshape(n, k), _activation(draw, k, m)


@st.composite
def _operand_pairs(draw):
    weight, first = draw(_operands())
    return weight, first, _activation(draw, *first.shape)


class TestWrappedExactness:
    @settings(max_examples=300, deadline=None)
    @given(_operands())
    def test_matches_python_ints_mod_2_64(self, operands):
        weight, activation = operands
        executor = ExactExecutor(weight)
        assert np.array_equal(executor.execute(activation), _reference(weight, activation))

    def test_one_digit_below_the_bound(self):
        weight = _signed(8, 6, 9, seed=0)
        activation = np.random.default_rng(1).integers(-128, 128, size=(9, 5))
        executor = ExactExecutor(weight)
        assert _products(executor, activation) == 1
        assert np.array_equal(executor.execute(activation), weight @ activation)

    def test_several_digits_past_the_bound(self):
        weight = _signed(32, 5, 7, seed=2)
        activation = np.random.default_rng(3).integers(
            INT64_MIN, INT64_MAX, size=(7, 4), dtype=np.int64, endpoint=True
        )
        executor = ExactExecutor(weight)
        assert _products(executor, activation) >= 3
        assert np.array_equal(executor.execute(activation), _reference(weight, activation))

    def test_int64_extremes(self):
        weight = np.array([[1, -1, 3], [-(2 ** 31), 2 ** 31 - 1, 0]], dtype=np.int64)
        activation = np.array(
            [[INT64_MIN, INT64_MAX], [INT64_MIN, -1], [INT64_MAX, INT64_MIN]],
            dtype=np.int64,
        )
        executor = ExactExecutor(weight)
        assert np.array_equal(executor.execute(activation), _reference(weight, activation))
        # numpy's int64 matmul wraps the same way.
        assert np.array_equal(executor.execute(activation), weight @ activation)

    def test_zero_weight_and_empty_activation(self):
        executor = ExactExecutor(np.zeros((3, 4), dtype=np.int64))
        assert executor.row_bound == 0
        full = np.full((4, 2), INT64_MIN, dtype=np.int64)
        assert np.array_equal(executor.execute(full), np.zeros((3, 2), dtype=np.int64))
        empty = executor.execute(np.zeros((4, 0), dtype=np.int64))
        assert empty.shape == (3, 0) and empty.dtype == np.int64

    @pytest.mark.parametrize(
        "row",
        [[2 ** 51] * 4, [2 ** 53], [2 ** 52, -(2 ** 52)], [INT64_MIN + 1]],
        ids=["sum", "single", "mixed-signs", "int64-max"],
    )
    def test_row_bound_past_float64_is_refused(self, row):
        weight = np.array([[1] * len(row), row], dtype=np.int64)
        with pytest.raises(SimulationError):
            ExactExecutor(weight)

    def test_stats(self):
        weight = _signed(4, 8, 6, seed=4)
        executor = ExactExecutor(weight)
        assert executor.backend == "float64-blas"
        assert executor.row_bound == int(np.abs(weight).sum(axis=1).max())
        assert executor.max_weight == int(np.abs(weight).max())
        assert executor.row_bound * ((1 << executor.digit_bits) - 1) < FLOAT64_EXACT
        assert executor.kernel_bytes == weight.size * 8
        assert executor.build_s >= 0.0


REGIMES = ("one-product", "k-split", "digit-split")


def _lay_out(activation: np.ndarray, layout: str) -> np.ndarray:
    """``activation`` with the same values in a non-contiguous layout."""
    if layout == "fortran":
        return np.asfortranarray(activation)
    if layout == "reversed":
        return np.ascontiguousarray(activation[::-1, ::-1])[::-1, ::-1]
    if layout == "strided":
        k, m = activation.shape
        base = np.zeros((2 * k, 3 * m), dtype=np.int64)
        base[::2, ::3] = activation
        return base[::2, ::3]
    return activation


@st.composite
def _regime_operands(draw):
    """Weight, activation and regime, the activation's peak drawn into the
    regime: one product, K split or digit split."""
    regime = draw(st.sampled_from(REGIMES))
    n = draw(st.integers(1, 4))
    k = draw(st.integers(0 if regime == "one-product" else 2, 9))
    m = draw(st.integers(1, 3))
    bits = draw(st.integers(2, 24))
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    weight = np.array(
        draw(st.lists(st.integers(lo, hi), min_size=n * k, max_size=n * k)),
        dtype=np.int64,
    ).reshape(n, k)
    row_bound = int(np.abs(weight).sum(axis=1).max(initial=0))
    max_weight = int(np.abs(weight).max(initial=0))
    if regime == "one-product":
        low, high = 0, min((FLOAT64_EXACT - 1) // max(row_bound, 1), 2 ** 63)
    elif regime == "k-split":
        assume(row_bound > 0)
        low, high = -(-FLOAT64_EXACT // row_bound), (FLOAT64_EXACT - 1) // max_weight
    else:
        assume(max_weight > 0)
        low, high = -(-FLOAT64_EXACT // max_weight), 2 ** 63
    assume(low <= high)
    peak = draw(st.integers(low, high))
    entries = st.integers(-min(peak, INT64_MAX), min(peak, INT64_MAX))
    activation = np.array(
        draw(st.lists(entries, min_size=k * m, max_size=k * m)), dtype=np.int64
    ).reshape(k, m)
    if activation.size:
        row, col = draw(st.integers(0, k - 1)), draw(st.integers(0, m - 1))
        negative = peak == 2 ** 63 or draw(st.booleans())
        activation[row, col] = INT64_MIN if peak == 2 ** 63 else (-peak if negative else peak)
    layout = draw(st.sampled_from(["contiguous", "fortran", "reversed", "strided"]))
    return regime, weight, _lay_out(activation, layout), peak


class TestRegimes:
    @settings(max_examples=300, deadline=None)
    @given(_regime_operands())
    def test_each_regime_matches_python_ints_with_its_work(self, operands):
        regime, weight, activation, peak = operands
        executor = ExactExecutor(weight)
        assert np.array_equal(executor.execute(activation), _reference(weight, activation))
        k = weight.shape[1]
        widths = _widths(executor, activation)
        if regime == "one-product":
            assert widths == [k]
        elif regime == "k-split":
            # Fewest equal blocks whose partial sums stay below 2**53.
            widest = (FLOAT64_EXACT - 1) // (executor.max_weight * peak)
            assert len(widths) == -(-k // widest) >= 2
            assert sum(widths) == k
            assert set(widths[:-1]) <= {widths[0]} and widths[-1] <= widths[0] <= widest
        else:
            digits = -(-peak.bit_length() // executor.digit_bits)
            assert widths == [k] * digits

    def test_k_not_divisible_by_the_block_width(self):
        # max|w| = 1 and peak ~ 2**53 / 3: blocks of 3 cover K = 7 as 3+3+1.
        weight = np.array([[1, -1, 1, 1, -1, 1, 1], [0, 1, 0, 0, 0, 0, 1]], dtype=np.int64)
        peak = (FLOAT64_EXACT - 1) // 3
        activation = np.array([[peak, -peak, peak, peak, -peak, peak, peak]], dtype=np.int64).T
        executor = ExactExecutor(weight)
        assert executor.row_bound * peak >= FLOAT64_EXACT
        assert _widths(executor, activation) == [3, 3, 1]
        assert np.array_equal(executor.execute(activation), _reference(weight, activation))


class TestAlgebra:
    """Properties of an exact product mod 2**64, whatever digits run."""

    @settings(max_examples=100, deadline=None)
    @given(_operand_pairs())
    def test_additive(self, operands):
        weight, x, y = operands
        executor = ExactExecutor(weight)
        assert np.array_equal(
            executor.execute(_wrapping_add(x, y)),
            _wrapping_add(executor.execute(x), executor.execute(y)),
        )

    @settings(max_examples=100, deadline=None)
    @given(_operands())
    def test_odd_under_negation(self, operands):
        weight, activation = operands
        executor = ExactExecutor(weight)
        negated = (np.uint64(0) - activation.view(np.uint64)).view(np.int64)
        expected = (np.uint64(0) - executor.execute(activation).view(np.uint64))
        assert np.array_equal(executor.execute(negated), expected.view(np.int64))

    @settings(max_examples=100, deadline=None)
    @given(_operands())
    def test_columns_are_independent(self, operands):
        # The server relies on it when it stacks a claim's columns: each
        # column may pick its own digit count.
        weight, activation = operands
        executor = ExactExecutor(weight)
        whole = executor.execute(activation)
        for j in range(activation.shape[1]):
            assert np.array_equal(whole[:, j:j + 1], executor.execute(activation[:, j:j + 1]))

    @settings(max_examples=100, deadline=None)
    @given(_operands(), st.integers(0, 40))
    def test_power_of_two_scaling(self, operands, shift):
        weight, activation = operands
        executor = ExactExecutor(weight)
        shift = np.uint64(shift)
        scaled = (activation.view(np.uint64) << shift).view(np.int64)
        expected = (executor.execute(activation).view(np.uint64) << shift).view(np.int64)
        assert np.array_equal(executor.execute(scaled), expected)


class TestDigitSplit:
    @pytest.mark.parametrize(
        "row_bound",
        [1, 2, 3, 7, 255, 2 ** 20, 2 ** 26 + 1, 2 ** 52, 2 ** 52 + 1, 2 ** 53 - 1],
    )
    def test_digit_is_the_widest_exact_one(self, row_bound):
        executor = ExactExecutor(np.array([[row_bound, 0]], dtype=np.int64))
        bits = executor.digit_bits
        assert bits >= 1
        assert row_bound * ((1 << bits) - 1) < FLOAT64_EXACT
        assert row_bound * ((1 << (bits + 1)) - 1) >= FLOAT64_EXACT

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, FLOAT64_EXACT - 1))
    def test_digit_is_the_widest_exact_one_for_any_bound(self, row_bound):
        bits = ExactExecutor(np.array([[row_bound]], dtype=np.int64)).digit_bits
        assert row_bound * ((1 << bits) - 1) < FLOAT64_EXACT
        assert row_bound * ((1 << (bits + 1)) - 1) >= FLOAT64_EXACT

    def test_largest_accepted_row_bound_runs_exactly(self):
        weight = np.array([[2 ** 53 - 1], [-(2 ** 52)]], dtype=np.int64)
        activation = np.array([[3, INT64_MIN, INT64_MAX, -7]], dtype=np.int64)
        executor = ExactExecutor(weight)
        assert executor.digit_bits == 1
        assert np.array_equal(executor.execute(activation), _reference(weight, activation))

    @pytest.mark.parametrize("row_bound", [1, 3, 2 ** 20 + 7, 2 ** 40 - 1])
    def test_float64_edge(self, row_bound):
        weight = np.array([[row_bound], [-(row_bound // 2)]], dtype=np.int64)
        executor = ExactExecutor(weight)
        last = (FLOAT64_EXACT - 1) // row_bound  # largest peak one product covers
        inside = np.array([[last, -last, 1]], dtype=np.int64)
        past = np.array([[last + 1, -last, 1]], dtype=np.int64)
        assert _products(executor, inside) == 1
        assert _products(executor, past) == 2
        for activation in (inside, past):
            assert np.array_equal(executor.execute(activation), _reference(weight, activation))

    @pytest.mark.parametrize(
        "peak_bits,products",
        [(8, 1), (32, 1), (33, 1), (34, 2), (48, 2), (63, 2), (64, 2)],
    )
    def test_digit_count_follows_the_peak(self, peak_bits, products):
        # row_bound 2**20 gives 33-bit digits; one weight per row makes
        # max|w| equal the row bound, so K blocks cannot help past it.
        weight = (2 ** 20) * np.array([[1, 0, 0, 0], [0, -1, 0, 0]], dtype=np.int64)
        executor = ExactExecutor(weight)
        assert executor.digit_bits == 33
        assert executor.max_weight == executor.row_bound
        peak = INT64_MIN if peak_bits == 64 else (1 << peak_bits) - 1
        bound = min(abs(peak), INT64_MAX)
        activation = np.random.default_rng(peak_bits).integers(
            -bound, bound, size=(4, 3), dtype=np.int64, endpoint=True
        )
        activation[2, 1] = peak
        assert _products(executor, activation) == products
        assert np.array_equal(executor.execute(activation), _reference(weight, activation))

    @pytest.mark.parametrize(
        "peak_bits,widths",
        [
            (33, [4]),  # one product
            (34, [2, 2]), (35, [1, 1, 1, 1]),  # K split
            (36, [4, 4]), (64, [4, 4]),  # digits
        ],
    )
    def test_k_blocks_cover_peaks_past_the_row_bound(self, peak_bits, widths):
        # row_bound 2**20 gives 33-bit digits; max|w| 2**18 lets K blocks
        # cover peaks up to 35 bits with one product's work.
        weight = (2 ** 18) * np.array([[1, -1, 1, -1], [-1, 1, 1, 0]], dtype=np.int64)
        executor = ExactExecutor(weight)
        assert executor.digit_bits == 33
        assert executor.max_weight == 2 ** 18
        peak = INT64_MIN if peak_bits == 64 else (1 << peak_bits) - 1
        bound = min(abs(peak), INT64_MAX)
        activation = np.random.default_rng(peak_bits).integers(
            -bound, bound, size=(4, 3), dtype=np.int64, endpoint=True
        )
        activation[2, 1] = peak
        assert _widths(executor, activation) == widths
        assert np.array_equal(executor.execute(activation), _reference(weight, activation))


class TestInputs:
    @pytest.mark.parametrize(
        "dtype",
        [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32],
    )
    def test_integer_activation_dtypes(self, dtype):
        # Wide enough weights that 32-bit activations take the digit split.
        weight = _signed(32, 4, 6, seed=11)
        info = np.iinfo(dtype)
        activation = np.random.default_rng(12).integers(
            info.min, info.max, size=(6, 3), dtype=dtype, endpoint=True
        )
        activation[0, 0] = info.max
        expected = _reference(weight, activation.astype(np.int64))
        assert np.array_equal(ExactExecutor(weight).execute(activation), expected)

    @pytest.mark.parametrize("layout", ["transposed", "strided", "fortran", "reversed"])
    def test_non_contiguous_activations(self, layout):
        weight = _signed(16, 5, 6, seed=13)
        executor = ExactExecutor(weight)
        rng = np.random.default_rng(14)
        for scale in (8, 62):
            base = rng.integers(-(1 << scale), 1 << scale, size=(12, 12), dtype=np.int64)
            activation = {
                "transposed": base.T[:6],
                "strided": base[::2, ::3],
                "fortran": np.asfortranarray(base[:6]),
                "reversed": base[5::-1, ::-1],
            }[layout]
            assert np.array_equal(executor.execute(activation), _reference(weight, activation))

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, "list"])
    def test_weight_dtypes(self, dtype):
        weight = _signed(8, 5, 7, seed=15)
        given_weight = weight.tolist() if dtype == "list" else weight.astype(dtype)
        executor = ExactExecutor(given_weight)
        assert executor.weight.dtype == np.float64
        assert np.array_equal(executor.weight, weight)
        assert executor.row_bound == int(np.abs(weight).sum(axis=1).max())
        activation = np.random.default_rng(16).integers(-128, 128, size=(7, 3))
        assert np.array_equal(executor.execute(activation), weight @ activation)

    def test_empty_reduction_dimension(self):
        executor = ExactExecutor(np.zeros((3, 0), dtype=np.int64))
        output = executor.execute(np.zeros((0, 2), dtype=np.int64))
        assert np.array_equal(output, np.zeros((3, 2), dtype=np.int64))

    def test_no_output_rows(self):
        executor = ExactExecutor(np.zeros((0, 4), dtype=np.int64))
        output = executor.execute(np.full((4, 2), INT64_MAX, dtype=np.int64))
        assert output.shape == (0, 2) and output.dtype == np.int64

    def test_weight_copy_is_read_only(self):
        weight = _signed(4, 3, 3, seed=17)
        executor = ExactExecutor(weight)
        with pytest.raises(ValueError):
            executor.weight[0, 0] = 1.0

    def test_concurrent_executes_agree(self):
        weight = _signed(16, 12, 10, seed=18)
        executor = ExactExecutor(weight)
        rng = np.random.default_rng(19)
        acts = [rng.integers(-(1 << s), 1 << s, size=(10, 4)) for s in (8, 40, 62, 8)]
        expected = [_reference(weight, act) for act in acts]
        mismatches = []

        def worker():
            for _ in range(25):
                for act, want in zip(acts, expected):
                    if not np.array_equal(executor.execute(act), want):
                        mismatches.append(act)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []


#: Activations no int64 matrix holds exactly: ``np.asarray(a, dtype=np.int64)``
#: would floor the first, and turn the other three into ``-2**63``.
_INEXACT = {
    "half": np.full((3, 1), 1.5),
    "nan": np.full((3, 1), np.nan),
    "inf": np.full((3, 1), np.inf),
    "uint64-2**63": np.full((3, 1), 2 ** 63, dtype=np.uint64),
}

_ENTRY_POINTS = (
    "execute", "multiply_planned", "multiply-fast", "multiply-scalar", "ModelPlan.run",
)


@pytest.fixture(scope="module")
def all_ones_entry_points():
    """Every library entry point that multiplies an activation, on one 2x3
    all-ones weight, as ``name -> (activation -> output)``."""
    weight = np.ones((2, 3), dtype=np.int64)
    engine = TransitiveGemmEngine(transrow_bits=4)
    gemm_plan = engine.plan(weight, 4)
    model = compile_workload(
        synthetic_gemm_workload(num_layers=1, n=2, k=3, m=1, weight_bits=4),
        weight_provider=lambda shape: np.ones((shape.n, shape.k), dtype=np.int64),
    )
    scalar = TransitiveGemmEngine(transrow_bits=4, fast=False)
    return {
        "execute": ExactExecutor(weight).execute,
        "multiply_planned": lambda a: engine.multiply_planned(gemm_plan, a).output,
        "multiply-fast": lambda a: engine.multiply(weight, a, 4).output,
        "multiply-scalar": lambda a: scalar.multiply(weight, a, 4).output,
        "ModelPlan.run": lambda a: model.run("layer0", a),
    }


class TestValueExactConversion:
    @pytest.mark.parametrize("entry", _ENTRY_POINTS)
    @pytest.mark.parametrize("value", list(_INEXACT))
    def test_inexact_activation_is_refused(self, all_ones_entry_points, entry, value):
        with pytest.raises(SimulationError):
            all_ones_entry_points[entry](_INEXACT[value])

    @pytest.mark.parametrize("entry", _ENTRY_POINTS)
    def test_integral_floats_are_served_exactly(self, all_ones_entry_points, entry):
        activation = np.array([[1.0, -4.0], [2.0, 0.0], [float(2 ** 52), 7.0]])
        expected = np.array([[3 + 2 ** 52, 3], [3 + 2 ** 52, 3]], dtype=np.int64)
        assert np.array_equal(all_ones_entry_points[entry](activation), expected)


class TestPlannedParity:
    @pytest.mark.parametrize("columns", [1, 3, 16])
    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_matches_scalar_oracle(self, bits, columns):
        weight = _signed(bits, 20, 19, seed=bits)
        activation = np.random.default_rng(bits + columns).integers(
            -128, 128, size=(19, columns)
        )
        engine = TransitiveGemmEngine(transrow_bits=8)
        plan = engine.plan(weight, bits)
        planned = engine.multiply_planned(plan, activation)
        oracle = TransitiveGemmEngine(transrow_bits=8, fast=False).multiply(
            weight, activation, bits
        )
        assert np.array_equal(planned.output, oracle.output)
        assert planned.op_counts == oracle.op_counts == plan.op_counts

    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_op_counts_ride_along_unchanged(self, bits):
        weight = _signed(bits, 18, 14, seed=20 + bits)
        activation = np.random.default_rng(bits).integers(-64, 64, size=(14, 5))
        engine = TransitiveGemmEngine(transrow_bits=4)
        plan = engine.plan(weight, bits)
        fast = TransitiveGemmEngine(transrow_bits=4).multiply(weight, activation, bits)
        planned = engine.multiply_planned(plan, activation)
        assert planned.op_counts == fast.op_counts == plan.op_counts
        assert np.array_equal(planned.output, fast.output)

    @pytest.mark.parametrize("regime", ["one-product", "k-split", "digit-split"])
    @pytest.mark.parametrize("scheme", sorted(SCHEME_REGISTRY))
    def test_quant_scheme_weights(self, scheme, regime):
        # Real quantizer outputs: outliers, power-of-two values, pruned bits.
        rng = np.random.default_rng(sum(map(ord, scheme)))
        quantized = SCHEME_REGISTRY[scheme](rng.normal(0.0, 0.02, size=(24, 16)))
        # Outlier-coding schemes (OliVe) emit values past the nominal range.
        bits = max(quantized.bits, int(np.abs(quantized.values).max()).bit_length() + 1)
        engine = TransitiveGemmEngine(transrow_bits=8)
        plan = engine.plan(quantized.values, bits)
        peak = {
            "one-product": (1 << 7) - 1,
            # The largest peak K blocks cover, past the row bound.
            "k-split": (FLOAT64_EXACT - 1) // plan.kernel.max_weight,
            "digit-split": (1 << 62) - 1,
        }[regime]
        activation = rng.integers(-peak, peak, size=(16, 5), dtype=np.int64, endpoint=True)
        activation[3, 2] = peak
        widths = _widths(plan.kernel, activation)
        if regime == "one-product":
            assert widths == [plan.k]
        elif regime == "k-split":
            assert plan.kernel.row_bound * peak >= FLOAT64_EXACT
            assert len(widths) >= 2 and sum(widths) == plan.k
        else:
            assert widths == [plan.k, plan.k]
        output = engine.multiply_planned(plan, activation).output
        assert np.array_equal(output, _reference(plan.weight, activation))

    @pytest.mark.parametrize("bits", [2, 4, 8])
    @pytest.mark.parametrize("shape", [(7, 5), (16, 16), (33, 17)])
    def test_executor_mirrors_the_plan_weight(self, shape, bits):
        weight = _signed(bits, *shape, seed=sum(shape) + bits)
        plan = TransitiveGemmEngine(transrow_bits=4).plan(weight, bits)
        kernel = plan.kernel
        assert isinstance(kernel, ExactExecutor)
        assert kernel.backend == "float64-blas"
        assert kernel.weight.shape == (plan.n, plan.k) == shape
        assert np.array_equal(kernel.weight, plan.weight)
        assert kernel.kernel_bytes == plan.n * plan.k * 8

    def test_plan_pins_the_weight(self):
        weight = _signed(4, 8, 6, seed=21)
        expected_weight = weight.copy()
        engine = TransitiveGemmEngine(transrow_bits=4)
        plan = engine.plan(weight, 4)
        weight[:] = 0
        activation = np.random.default_rng(22).integers(-64, 64, size=(6, 2))
        output = engine.multiply_planned(plan, activation).output
        assert np.array_equal(output, expected_weight @ activation)

    @pytest.mark.parametrize("shape", [(7, 2), (6,)], ids=["extra-row", "one-d"])
    def test_wrong_activation_shape_is_rejected(self, shape):
        engine = TransitiveGemmEngine(transrow_bits=4)
        plan = engine.plan(_signed(4, 5, 6, seed=23), 4)
        with pytest.raises(SimulationError):
            engine.multiply_planned(plan, np.zeros(shape, dtype=np.int64))

    def test_mixed_precision_layer(self):
        workload = synthetic_gemm_workload(num_layers=2, n=24, k=20, m=3, weight_bits=4)
        plan = compile_workload(workload, seed=7, quant_schemes={"layer1": "olive-8"})
        assert plan.compile_stats.per_layer_scheme == {"layer1": "olive-8"}
        act = np.random.default_rng(8).integers(-128, 128, size=(20, 3))
        oracle = TransitiveGemmEngine(fast=False)
        for name in ("layer0", "layer1"):
            layer = plan.layer(name)
            assert np.array_equal(plan.run(name, act), layer.weight @ act)
            scalar = oracle.multiply(layer.weight, act, layer.gemm_plan.weight_bits)
            assert np.array_equal(plan.run(name, act), scalar.output)


def _tiny_llama_block():
    config = LlamaConfig("tiny", hidden_size=32, intermediate_size=48,
                         num_attention_heads=1, num_key_value_heads=1,
                         num_layers=1)
    return llama_block_gemms(config.name, config=config, sequence_length=4, weight_bits=8)


class TestCompiledWorkloads:
    @pytest.mark.parametrize("workload", ["synthetic", "llama-block", "resnet-stack"])
    def test_every_layer_serves_exactly(self, workload):
        gemms = {
            "synthetic": lambda: synthetic_gemm_workload(num_layers=3, n=16, k=16, m=2),
            "llama-block": _tiny_llama_block,
            "resnet-stack": lambda: resnet_stack_gemms(weight_bits=4),
        }[workload]()
        plan = compile_workload(gemms, seed=25)
        assert plan.compile_stats.kernel_backends == ("float64-blas",)
        rng = np.random.default_rng(26)
        for name in plan.layer_names():
            layer = plan.layer(name)
            act = rng.integers(-128, 128, size=(layer.shape.k, 2), dtype=np.int64)
            assert np.array_equal(plan.run(name, act), layer.weight @ act)


def _run_stages(plan, x: np.ndarray):
    """Each stage's input and product widths on model input ``x``, and the
    exact (wrapped) model output."""
    inputs, widths = [], []
    stage_input = x
    for name in plan.graph.layers:
        layer = plan.layer(name)
        inputs.append(stage_input)
        widths.append(_widths(layer.gemm_plan.kernel, stage_input))
        stage_input = _reference(layer.weight, stage_input)
    return inputs, widths, stage_input


class TestChainedBlock:
    def test_last_stage_takes_the_k_split(self):
        # Like the prefill block's down_proj: the activations grow stage by
        # stage until only the last product exceeds the row bound, and K
        # blocks still run it with one product's work.
        plan = compile_workload(_tiny_llama_block(), seed=601, graph="chain")
        x = np.random.default_rng(9).integers(-128, 128, size=(32, 4))
        _, widths, expected = _run_stages(plan, x)
        ks = [plan.layer(name).shape.k for name in plan.graph.layers]
        assert widths[:-1] == [[k] for k in ks[:-1]]
        assert len(widths[-1]) >= 2 and sum(widths[-1]) == ks[-1]
        assert np.array_equal(plan.run_model(x), expected)

    def test_last_stage_takes_the_digit_split(self):
        # The chain is linear, so scaling the input by 8 scales every stage's
        # activations by 8: enough that max|w| * peak reaches 2**53 at
        # down_proj, where only the digit split stays exact.
        plan = compile_workload(_tiny_llama_block(), seed=601, graph="chain")
        x = 8 * np.random.default_rng(9).integers(-128, 128, size=(32, 4))
        inputs, widths, expected = _run_stages(plan, x)
        ks = [plan.layer(name).shape.k for name in plan.graph.layers]
        assert widths[:-1] == [[k] for k in ks[:-1]]
        kernel = plan.layer(plan.graph.layers[-1]).gemm_plan.kernel
        assert kernel.max_weight * int(np.abs(inputs[-1]).max()) >= FLOAT64_EXACT
        assert len(widths[-1]) >= 2 and set(widths[-1]) == {ks[-1]}
        assert np.array_equal(plan.run_model(x), expected)
