"""Micro-benchmarks of the core algorithmic kernels (not a paper figure).

These measure the Python-level cost of the building blocks the figure benches
lean on — scoreboarding a sub-tile, bit-slicing a weight tile, running the
functional transitive GEMM — so performance regressions in the library itself
are visible separately from the simulated results.
"""

import numpy as np

from repro.bitslice import binary_weight_matrix
from repro.core import TransitiveGemmEngine, scalar_multiply
from repro.scoreboard import run_scoreboard
from repro.transarray import TransArrayUnit


def test_scoreboard_8bit_subtile(benchmark):
    rng = np.random.default_rng(0)
    values = rng.integers(0, 256, size=256).tolist()
    result = benchmark(run_scoreboard, values, 8)
    assert result.total_transrows == 256


def test_bitslice_weight_tile(benchmark):
    rng = np.random.default_rng(1)
    weight = rng.integers(-128, 128, size=(256, 256), dtype=np.int64)
    binary = benchmark(binary_weight_matrix, weight, 8)
    assert binary.shape == (2048, 256)


def test_functional_transitive_gemm(benchmark):
    rng = np.random.default_rng(2)
    weight = rng.integers(-128, 128, size=(32, 64), dtype=np.int64)
    act = rng.integers(-128, 128, size=(64, 16), dtype=np.int64)
    engine = TransitiveGemmEngine(transrow_bits=8)
    report = benchmark(engine.multiply, weight, act, 8)
    assert (report.output == weight @ act).all()


def test_functional_transitive_gemm_scalar_oracle(benchmark):
    rng = np.random.default_rng(2)
    weight = rng.integers(-128, 128, size=(32, 64), dtype=np.int64)
    act = rng.integers(-128, 128, size=(64, 16), dtype=np.int64)
    report = benchmark(scalar_multiply, weight, act, 8, transrow_bits=8)
    assert (report.output == weight @ act).all()


def test_unit_subtile_execution(benchmark):
    rng = np.random.default_rng(3)
    weight = rng.integers(-128, 128, size=(32, 8), dtype=np.int64)
    act = rng.integers(-128, 128, size=(8, 32), dtype=np.int64)
    unit = TransArrayUnit()
    output = benchmark(unit.execute_subtile, weight, act, 8)
    assert (output == weight @ act).all()
