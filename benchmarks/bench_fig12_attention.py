#!/usr/bin/env python
"""Fig. 12: attention-layer speedups on LLaMA 1/2/3 over BitFusion-16bit.

Regenerates the attention-layer comparison of the designs that support
on-the-fly activation quantization — BitFusion-16bit (the reference),
ANT-8bit and the TransArray-8bit — plus the headline geomeans the paper
quotes (TA ~3.97x over BitFusion-16bit, ~1.54x over ANT-8bit).

Two scales share the harness (``--scale``), on the repo-wide two-tier
pattern (see ``bench_perf_gemm.py``):

* ``full`` (default) — three LLaMA models at sequence length 1024 with 4
  sampled GEMMs per layer; writes ``BENCH_fig12_attention.json``;
* ``smoke`` — one model (llama1-7b) at sequence length 256 with 2 samples
  per GEMM; writes ``BENCH_fig12_attention_smoke.json`` in seconds.

``--check`` gates the fresh run: the paper's headline bands (per scale) and
a drift bound against the checked-in baseline JSON of the same scale — the
simulators are deterministic, so any geomean moving more than a few percent
means a model change that must be re-baselined deliberately.  A ``--check``
run writes the git-ignored sibling ``BENCH_<name>.check.json`` and leaves
the baseline as it is; a plain run re-records the baseline.

Run as a script (``python benchmarks/bench_fig12_attention.py [--scale
smoke] [--check]``) or through pytest (``pytest
benchmarks/bench_fig12_attention.py``, full scale, writing the ``.check.json``
as ``--check`` does).
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from provenance import provenance, write_results  # noqa: E402
from repro.analysis import attention_comparison, format_table  # noqa: E402
from repro.analysis.comparison import geomean_speedup  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Per-scale scenario parameters plus the headline bands the paper quotes.
#: The smoke bands are wider: one model at a short sequence length shifts
#: the geomeans from the three-model full-scale figures.
SCALES = {
    "full": {
        "suffix": "",
        "models": ("llama1-7b", "llama2-7b", "llama3-8b"),
        "sequence_length": 1024,
        "samples_per_gemm": 4,
        "bands": {
            "ta_speedup": (2.5, 7.0),
            "ant_speedup": (1.0, 3.5),
            "ta_over_ant": (1.2, 2.6),
        },
    },
    "smoke": {
        "suffix": "_smoke",
        "models": ("llama1-7b",),
        "sequence_length": 256,
        "samples_per_gemm": 2,
        "bands": {
            "ta_speedup": (2.2, 7.5),
            "ant_speedup": (1.0, 3.8),
            "ta_over_ant": (1.1, 2.8),
        },
    },
}
#: Drift bound vs the checked-in baseline: the comparison is a deterministic
#: simulation, so geomeans moving more than this fraction in either direction
#: signal an (intentional or not) model change.
DRIFT_FACTOR = 0.05

#: The accelerators whose geomeans are recorded and drift-checked
#: (bitfusion-16bit is the reference, geomean 1.0 by construction).
ACCELERATORS = ("ant-8bit", "transarray-8bit")


def output_path(scale: str) -> Path:
    return REPO_ROOT / f"BENCH_fig12_attention{SCALES[scale]['suffix']}.json"


def run(scale: str = "full", write: bool = True) -> dict:
    config = SCALES[scale]
    start = time.perf_counter()
    rows = attention_comparison(
        models=config["models"],
        sequence_length=config["sequence_length"],
        samples_per_gemm=config["samples_per_gemm"],
    )
    wall_s = time.perf_counter() - start
    speedups = {name: geomean_speedup(rows, name) for name in ACCELERATORS}
    results = {
        "benchmark": "bench_fig12_attention",
        "scale": scale,
        "models": list(config["models"]),
        "sequence_length": config["sequence_length"],
        "samples_per_gemm": config["samples_per_gemm"],
        "reference": "bitfusion-16bit",
        "wall_s": wall_s,
        "provenance": provenance(),
        "rows": [
            {
                "workload": r.workload,
                "accelerator": r.accelerator,
                "cycles": r.cycles,
                "energy_nj": r.energy_nj,
                "speedup": r.speedup,
            }
            for r in sorted(rows, key=lambda r: (r.workload, r.accelerator))
        ],
        "geomean_speedup": speedups,
        "ta_over_ant": speedups["transarray-8bit"] / speedups["ant-8bit"],
    }
    if write:
        write_results(output_path(scale), results)
    return results


def check(scale: str, results: dict, baseline: dict) -> list:
    """Gate a fresh run: headline bands + drift vs the baseline JSON."""
    failures = []
    speedups = results["geomean_speedup"]
    headline = {
        "ta_speedup": speedups["transarray-8bit"],
        "ant_speedup": speedups["ant-8bit"],
        "ta_over_ant": results["ta_over_ant"],
    }
    for metric, value in headline.items():
        low, high = SCALES[scale]["bands"][metric]
        if not low <= value <= high:
            failures.append(
                f"{metric} geomean {value:.2f}x is outside the paper band "
                f"[{low:.1f}, {high:.1f}]"
            )
    if not speedups["transarray-8bit"] > speedups["ant-8bit"] > 1.0:
        failures.append(
            "speedup ordering broken: expected TA-8bit > ANT-8bit > "
            "BitFusion-16bit, got "
            f"TA={speedups['transarray-8bit']:.2f} "
            f"ANT={speedups['ant-8bit']:.2f}"
        )
    for name, value in results["geomean_speedup"].items():
        baseline_value = baseline.get("geomean_speedup", {}).get(name)
        if baseline_value is None:
            continue
        drift = abs(value - baseline_value) / baseline_value
        if drift > DRIFT_FACTOR:
            failures.append(
                f"geomean_speedup[{name}] drifted {drift:.1%} from the "
                f"baseline ({value:.3f} vs {baseline_value:.3f}); the "
                "simulators are deterministic — re-baseline deliberately"
            )
    return failures


def _print_results(scale: str, results: dict) -> None:
    table = [
        (r["workload"], r["accelerator"], r["cycles"], r["speedup"])
        for r in results["rows"]
    ]
    print(f"\n[{scale}] Fig 12: attention-layer speedup over BitFusion-16bit")
    print(format_table(["model", "accelerator", "cycles", "speedup"], table))
    speedups = results["geomean_speedup"]
    print(f"\nGeomean: TA-8bit={speedups['transarray-8bit']:.2f}x "
          f"ANT-8bit={speedups['ant-8bit']:.2f}x "
          f"TA/ANT={results['ta_over_ant']:.2f}x "
          "(paper: 3.97x, 2.58x, 1.54x)")


def test_fig12_attention_speedups(run_once):
    results = run_once(run, scale="full", write=False)
    # A gate writes the git-ignored .check.json; the baseline stays committed.
    write_results(output_path("full"), results, check=True)
    _print_results("full", results)

    speedups = results["geomean_speedup"]
    ta = speedups["transarray-8bit"]
    ant = speedups["ant-8bit"]
    # Paper: TA ~3.97x over BitFusion-16bit and ~1.54x over ANT-8bit.  The
    # analytic model lands in the same band but slightly favours TA because it
    # omits softmax/requantization overlap overheads.
    assert ta > ant > 1.0
    assert 1.2 <= ta / ant <= 2.6
    assert 2.5 <= ta <= 7.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="full",
        help="paper-sized scenario (full) or CI-sized scenario (smoke)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="gate the fresh run against the paper's headline bands and the "
             "checked-in baseline JSON; exit non-zero on failure",
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
        print(f"[{args.scale}] all Fig. 12 gates passed")


if __name__ == "__main__":
    main()
