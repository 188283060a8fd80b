#!/usr/bin/env python
"""Wall-clock benchmark of the GEMM fast path and the planned executor.

Two measurements anchor the performance trajectory of the engine:

* ``speedup_1024``: the engine's batched path vs the scalar oracle
  (:func:`repro.core.scalar_multiply`; T=8, 4-bit weights) —
  the acceptance gate is a >= 10x speedup;
* ``llama_fc_4096``: the fast path and the compiled plan on a LLaMA-7B-style
  FC layer (8-bit weights): cold, warm static-scoreboard cache, and the
  planned path through the plan's exact float64-BLAS executor (the serving
  hot path).  The planned gate asserts the executor beats the fast lattice
  path on a warm cache.

Two scales share the harness (``--scale``):

* ``full`` (default) — the paper-sized shapes (1024x1024x16 scalar-vs-fast,
  4096x4096x16 FC layer); writes ``BENCH_perf_gemm.json``;
* ``smoke`` — the same scenario at CI size (256x256x16 and 512x512x16);
  writes ``BENCH_perf_gemm_smoke.json`` in seconds instead of minutes.

``--check`` additionally gates the fresh run: absolute floors (fast >= 10x
scalar, planned >= the scale's factor over the warm fast path) plus a
generous regression bound against the checked-in baseline JSON of the same
scale, and exits non-zero on any failure; it writes the git-ignored sibling
``BENCH_<name>.check.json`` and leaves the baseline as it is, which only a
plain run re-records.  Every result is checked bit-exact against NumPy at
every scale, and every written JSON records where it was measured (cores,
BLAS, numpy/scipy versions, git SHA).

Run as a script (``python benchmarks/bench_perf_gemm.py [--scale smoke]
[--check]``) or through pytest (``pytest benchmarks/bench_perf_gemm.py``,
full scale).
"""

import argparse
import json
import time
from pathlib import Path

import numpy as np

import sys

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from provenance import provenance, write_results  # noqa: E402
from repro.core import TransitiveGemmEngine, scalar_multiply  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Per-scale scenario parameters; both scales run the identical harness.
SCALES = {
    "full": {
        "suffix": "",
        "speedup_shape": (1024, 1024, 16),
        "llama_shape": (4096, 4096, 16),
        "planned_gate": 3.0,
    },
    "smoke": {
        "suffix": "_smoke",
        "speedup_shape": (256, 256, 16),
        "llama_shape": (512, 512, 16),
        "planned_gate": 2.0,
    },
}
#: Absolute floor: fast path vs the scalar oracle, every scale.
SPEEDUP_GATE = 10.0
#: Regression bound: a fresh speedup may not fall below this fraction of the
#: checked-in baseline's (generous — CI machines vary widely).
REGRESSION_FACTOR = 0.4


def output_path(scale: str) -> Path:
    return REPO_ROOT / f"BENCH_perf_gemm{SCALES[scale]['suffix']}.json"


def _time(func, repeats=1):
    """Best-of-``repeats`` wall-clock time and the (last) function result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - start)
    return best, result


def _random_gemm(rng, n, k, m, weight_bits):
    lo, hi = -(1 << (weight_bits - 1)), (1 << (weight_bits - 1)) - 1
    weight = rng.integers(lo, hi + 1, size=(n, k), dtype=np.int64)
    activation = rng.integers(-128, 128, size=(k, m), dtype=np.int64)
    return weight, activation


def bench_speedup(shape):
    """Fast vs scalar (T=8, S=4); asserts bit-exactness."""
    n, k, m = shape
    rng = np.random.default_rng(0)
    weight, activation = _random_gemm(rng, n, k, m, weight_bits=4)
    expected = weight @ activation

    fast = TransitiveGemmEngine(transrow_bits=8, max_distance=4)
    fast.multiply(weight, activation, 4)  # warm-up: lattice tables + cache fill
    fast_cached_s, report = _time(lambda: fast.multiply(weight, activation, 4),
                                  repeats=3)
    uncached = TransitiveGemmEngine(
        transrow_bits=8, max_distance=4, scoreboard_cache_entries=0
    )
    uncached.multiply(weight, activation, 4)  # warm-up without caching
    fast_s, fast_report = _time(lambda: uncached.multiply(weight, activation, 4),
                                repeats=3)

    scalar_s, scalar_report = _time(lambda: scalar_multiply(
        weight, activation, 4, transrow_bits=8, max_distance=4
    ))

    assert np.array_equal(report.output, expected)
    assert np.array_equal(fast_report.output, expected)
    assert np.array_equal(scalar_report.output, expected)
    assert fast_report.op_counts == scalar_report.op_counts
    return {
        "shape": list(shape),
        "transrow_bits": 8,
        "weight_bits": 4,
        "scalar_s": scalar_s,
        "fast_s": fast_s,
        "fast_cached_s": fast_cached_s,
        "speedup": scalar_s / fast_s,
        "speedup_cached": scalar_s / fast_cached_s,
        "density": report.op_counts.density,
    }


def bench_llama_fc(shape):
    """Fast path (cold and warm) and the planned executor on an FC layer (S=8)."""
    n, k, m = shape
    rng = np.random.default_rng(1)
    weight, activation = _random_gemm(rng, n, k, m, weight_bits=8)
    expected = weight @ activation

    engine = TransitiveGemmEngine(transrow_bits=8, max_distance=4)
    cold_s, report = _time(lambda: engine.multiply(weight, activation, 8))
    new_activation = rng.integers(-128, 128, size=(k, m), dtype=np.int64)
    warm_s, warm_report = _time(
        lambda: engine.multiply(weight, new_activation, 8), repeats=3
    )

    # The serving path: compile the plan once (scoreboard counts streamed
    # over row blocks + executor build), then time planned calls through the
    # executor.
    plan_start = time.perf_counter()
    plan = engine.plan(weight, 8)
    plan_compile_s = time.perf_counter() - plan_start
    planned_s, planned_report = _time(
        lambda: engine.multiply_planned(plan, activation), repeats=3
    )

    assert np.array_equal(report.output, expected)
    assert np.array_equal(warm_report.output, weight @ new_activation)
    assert np.array_equal(planned_report.output, expected)
    assert planned_report.op_counts == report.op_counts
    info = engine.scoreboard_cache_info()
    assert info.hits >= 1
    return {
        "shape": list(shape),
        "transrow_bits": 8,
        "weight_bits": 8,
        "fast_cold_s": cold_s,
        "fast_cached_s": warm_s,
        "plan_compile_s": plan_compile_s,
        "build_s": plan.kernel.build_s,
        "planned_s": planned_s,
        "planned_speedup_vs_fast": warm_s / planned_s,
        "kernel": {
            "backend": plan.kernel.backend,
            "kernel_bytes": plan.kernel.kernel_bytes,
            "row_bound": plan.kernel.row_bound,
        },
        "total_transrows": report.op_counts.total_transrows,
        "density": report.op_counts.density,
    }


def run(scale: str = "full", write: bool = True) -> dict:
    config = SCALES[scale]
    results = {
        "benchmark": "bench_perf_gemm",
        "scale": scale,
        "provenance": provenance(),
        "speedup_1024": bench_speedup(config["speedup_shape"]),
        "llama_fc_4096": bench_llama_fc(config["llama_shape"]),
    }
    if write:
        write_results(output_path(scale), results)
    return results


def check(scale: str, results: dict, baseline: dict) -> list:
    """Gate a fresh run: absolute floors + regression vs the baseline JSON."""
    failures = []
    speedup = results["speedup_1024"]["speedup"]
    if speedup < SPEEDUP_GATE:
        failures.append(
            f"fast-path speedup {speedup:.1f}x is below the "
            f"{SPEEDUP_GATE:.0f}x gate"
        )
    planned = results["llama_fc_4096"]["planned_speedup_vs_fast"]
    gate = SCALES[scale]["planned_gate"]
    if planned < gate:
        failures.append(
            f"planned-executor speedup {planned:.2f}x over the warm fast "
            f"path is below the {gate:.1f}x gate"
        )
    for metric, fresh_value in (
        ("speedup_1024.speedup", speedup),
        ("llama_fc_4096.planned_speedup_vs_fast", planned),
    ):
        section, key = metric.split(".")
        baseline_value = baseline.get(section, {}).get(key)
        if baseline_value is None:
            continue
        floor = REGRESSION_FACTOR * baseline_value
        if fresh_value < floor:
            failures.append(
                f"{metric} regressed: {fresh_value:.2f} vs baseline "
                f"{baseline_value:.2f} (floor {floor:.2f})"
            )
    return failures


def test_fast_path_speedup_over_scalar():
    """Tier-2 gate: >= 10x over scalar and a planned executor faster than
    the warm fast path at LLM tile size."""
    results = run(scale="full", write=False)
    # A gate writes the git-ignored .check.json; the baseline stays committed.
    write_results(output_path("full"), results, check=True)
    assert results["speedup_1024"]["speedup"] >= SPEEDUP_GATE
    assert (
        results["llama_fc_4096"]["planned_speedup_vs_fast"]
        >= SCALES["full"]["planned_gate"]
    )


def _print_results(scale, results):
    one = results["speedup_1024"]
    llama = results["llama_fc_4096"]
    kernel = llama["kernel"]
    print(f"[{scale}] {'x'.join(map(str, one['shape']))} (T=8, S=4): "
          f"scalar {one['scalar_s']:.3f}s, "
          f"fast {one['fast_s']:.3f}s ({one['speedup']:.1f}x), "
          f"cached {one['fast_cached_s']:.3f}s ({one['speedup_cached']:.1f}x)")
    print(f"[{scale}] {'x'.join(map(str, llama['shape']))} (T=8, S=8): "
          f"fast cold {llama['fast_cold_s']:.3f}s, "
          f"cached {llama['fast_cached_s']:.3f}s")
    print(f"[{scale}] planned: {llama['planned_s'] * 1e3:.2f} ms "
          f"({kernel['backend']}) vs warm fast path "
          f"{llama['fast_cached_s'] * 1e3:.2f} ms "
          f"-> {llama['planned_speedup_vs_fast']:.2f}x "
          f"(executor build {llama['build_s'] * 1e3:.1f} ms, "
          f"{kernel['kernel_bytes'] / 1024:.0f} KiB)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="full",
        help="paper-sized shapes (full) or CI-sized shapes (smoke)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="gate the fresh run against absolute floors and the checked-in "
             "baseline JSON; exit non-zero on failure",
    )
    args = parser.parse_args()
    baseline = {}
    if args.check and output_path(args.scale).exists():
        baseline = json.loads(output_path(args.scale).read_text())
    results = run(scale=args.scale, write=False)
    _print_results(args.scale, results)
    print(f"wrote {write_results(output_path(args.scale), results, args.check)}")
    if args.check:
        failures = check(args.scale, results, baseline)
        for failure in failures:
            print(f"GATE FAILED: {failure}")
        if failures:
            raise SystemExit(1)
        print(f"[{args.scale}] all perf gates passed")


if __name__ == "__main__":
    main()
