"""Self-tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py -q

The file name keeps these out of the library's test collection: they run
the benchmark end to end at a tiny size, which takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
from exact import ExactChain, check_outputs, digest  # noqa: E402
from spans import Tracer  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_benchmark_json_lists_every_workload_and_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = bench.PER_LAYER_UNITS if trace else bench.END_TO_END_UNITS
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    printed = {tuple(line.split()[::2]) for line in lines[:-1] if len(line.split()) == 3}
    assert {(name, unit) for name, unit in units.items()} <= printed


def test_checker_flags_a_corrupted_output():
    rng = np.random.default_rng(0)
    weights = [rng.integers(-8, 8, size=(6, 5)), rng.integers(-8, 8, size=(5, 6))]
    inputs = rng.integers(-128, 128, size=(4, 5, 2))
    outputs = [weights[1] @ (weights[0] @ x) for x in inputs]
    outputs[2][1, 0] += 1
    served = [(index, digest(output)) for index, output in enumerate(outputs)]
    chain = ExactChain(weights)
    assert check_outputs(chain, lambda index: inputs[index], served, block_columns=4) == {2}
    assert chain.splits == 0


def test_exact_chain_is_exact_past_float64_and_int64():
    weights = [np.full((2, 3), 7)] + [np.full((2, 2), 7)] * 3
    x = np.full((3, 1), 2 ** 50 + 1)
    expected = 14 ** 3 * 21 * (2 ** 50 + 1)
    assert expected > 2 ** 63
    chain = ExactChain(weights)
    out = chain(x)
    assert out.dtype == object and out.tolist() == [[expected], [expected]]
    assert chain.splits == 4
    # No int64 output can equal it, so a served (wrapped) output is flagged.
    low = expected % 2 ** 64
    wrapped = np.full((2, 1), low - 2 ** 64 if low >= 2 ** 63 else low, dtype=np.int64)
    served = [(0, digest(wrapped))]
    assert check_outputs(chain, lambda index: x, served) == {0}


def test_int64_digit_split_matches_python_ints():
    rng = np.random.default_rng(1)
    weight = rng.integers(-8, 8, size=(5, 7))
    x = rng.integers(-2 ** 49, 2 ** 49, size=(7, 3))
    chain = ExactChain([weight])
    out = chain(x)
    assert chain.splits == 1 and out.dtype == np.int64
    exact = weight.astype(object) @ x.astype(object)
    assert out.tolist() == exact.tolist()


def test_self_times_subtract_the_union_of_children_once(tmp_path):
    tracer = Tracer(enabled=True)
    window = tracer.add("window", 0.0, 10.0)
    first = tracer.add("request", 1.0, 6.0, window, request=0)
    tracer.add("Server.submit", 1.0, 2.0, first, request=0)
    tracer.add("request", 4.0, 8.0, window, request=1)
    self_times = tracer.self_times()
    assert self_times == pytest.approx(
        {"window": 10.0 - 7.0, "request": 4.0 + 4.0, "Server.submit": 1.0}
    )
    path = tmp_path / "trace.jsonl"
    tracer.write(path, {"workload": "test"})
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [line["parent"] for line in lines[:-1]] == [None, 0, 1, 0]
    assert lines[-1]["self_time_s"] == pytest.approx(self_times)


def test_self_times_of_nested_spans_sum_to_the_root():
    tracer = Tracer(enabled=True)
    with tracer.span("setup"):
        with tracer.span("compile_workload"):
            pass
        with tracer.span("Server.start"):
            pass
    root = tracer.spans[0]
    assert sum(tracer.self_times().values()) == pytest.approx(root[2] - root[1])


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "decode-open", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
