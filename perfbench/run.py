#!/usr/bin/env python3
"""Chained LLaMA-block serving benchmark.

    python3 perfbench/run.py --workload prefill-closed --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

Run it from the root of a repository checkout; it imports the library from
the checkout's ``src`` directory.  Human-readable lines come first: the
provenance stamp, request counts, the latency tail and one
``<metric> <value> <unit>`` line per metric.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` they are the per-layer ones, taken from
a traced window between two untraced ones.  The full result and, with
``--trace 1``, the spans as JSON lines are written under ``perfbench/out/``.
The exit code is non-zero when an output is wrong or the server's request
accounting does not balance.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def parse_args(argv, workloads) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Chained LLaMA-block serving benchmark.")
    parser.add_argument("--workload", required=True, choices=[*workloads, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="hidden-64 blocks, for the benchmark's self-tests")
    return parser.parse_args(argv)


def print_result(result) -> None:
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    print("counts " + " ".join(f"{key}={value}" for key, value in result["counts"].items()))
    print("tail " + result["tail"])
    for leak in result["leaks"]:
        print("accounting leak: " + leak)
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))


def run_all(args: argparse.Namespace, workloads) -> int:
    """Every workload in its own interpreter; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        child = subprocess.run(command, capture_output=True, text=True)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        status = status or child.returncode
        try:
            last = json.loads(child.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            merged["correct"] = False
            status = status or 1
            continue
        merged["correct"] = merged["correct"] and last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library source under {SRC}; run it from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    args = parse_args(argv, bench.WORKLOADS)
    if args.workload == "all":
        return run_all(args, bench.WORKLOADS)
    tag = f"{args.workload}{'-tiny' if args.tiny else ''}-seed{args.seed}"
    result = bench.run(
        args.workload, seed=args.seed, seconds=args.seconds, tiny=args.tiny,
        trace_path=OUT / f"trace-{tag}.jsonl" if args.trace else None,
    )
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(json.dumps(result, indent=1) + "\n")
    print_result(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
