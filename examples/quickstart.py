#!/usr/bin/env python
"""Quickstart: multiplication-free GEMM through transitive sparsity.

Runs a small quantized GEMM through the functional TransitiveGemmEngine,
verifies it is bit-exact against numpy, and prints the operation counts that
make the Transitive Array fast: the density (fraction of bit-serial dense work
remaining) and the op-count speedups over dense and bit-sparsity execution.

Usage::

    python examples/quickstart.py

Docs index: ``docs/performance.md`` covers the vectorized fast path and the
static-scoreboard cache; ``docs/serving.md`` covers the request-batching
serving runtime (see ``examples/serving_demo.py``).
"""

import numpy as np

from repro import TransitiveGemmEngine
from repro.analysis import format_table
from repro.scoreboard import run_scoreboard


def main() -> None:
    rng = np.random.default_rng(0)
    weight = rng.integers(-128, 128, size=(64, 64), dtype=np.int64)   # INT8 weights
    activation = rng.integers(-128, 128, size=(64, 32), dtype=np.int64)  # INT8 inputs

    engine = TransitiveGemmEngine(transrow_bits=8)
    report = engine.multiply(weight, activation, weight_bits=8)

    assert (report.output == weight @ activation).all(), "transitive GEMM must be lossless"
    counts = report.op_counts

    print("Transitive GEMM is bit-exact against numpy.\n")
    print(format_table(
        ["metric", "value"],
        [
            ("TransRows processed", counts.total_transrows),
            ("dense (bit-serial) adds", counts.dense_ops),
            ("bit-sparsity adds", counts.bit_sparsity_ops),
            ("transitive-sparsity adds", counts.transitive_ops),
            ("density", f"{counts.density:.1%}"),
            ("speedup vs dense", f"{counts.speedup_over_dense():.2f}x"),
            ("speedup vs bit sparsity", f"{counts.speedup_over_bit_sparsity():.2f}x"),
        ],
    ))

    # Serving mode: the engine caches the weight's scoreboard, so a second
    # inference over new activations skips bit-slicing and scoreboarding
    # entirely.
    second = engine.multiply(
        weight, rng.integers(-128, 128, size=(64, 32), dtype=np.int64), weight_bits=8
    )
    assert second.op_counts == counts, "same weights, same operation counts"
    cache = engine.scoreboard_cache_info()
    print(f"\nStatic-scoreboard cache after a second inference: "
          f"{cache.hits} hit(s), {cache.misses} miss(es) "
          f"(repro.core.scalar_multiply is the scalar oracle)")

    # Peek at the scoreboard of one 8-bit sub-tile: the balanced forest that
    # makes the reuse parallelisable across 8 lanes.
    values = rng.integers(0, 256, size=256).tolist()
    result = run_scoreboard(values, width=8)
    print("\nOne sub-tile's balanced forest:")
    print(f"  executed nodes : {len(result.nodes)} "
          f"({len(result.relay_nodes)} relay-only)")
    print(f"  outliers       : {len(result.outliers)}")
    print(f"  lane workloads : {result.forest.lane_workloads}")
    print(f"  imbalance      : {result.forest.imbalance:.3f} (1.0 = perfectly balanced)")


if __name__ == "__main__":
    main()
