"""Serving-side executor plumbing: compile stats and reports."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import repro

from repro.core import ExactExecutor, TransitiveGemmEngine
from repro.serving import CompileStats, Server, compile_workload
from repro.workloads import synthetic_gemm_workload


def _workload(num_layers=2, n=24, k=20, m=8, weight_bits=4):
    return synthetic_gemm_workload(
        num_layers=num_layers, n=n, k=k, m=m, weight_bits=weight_bits,
        name="kernel-serving",
    )


class TestCompileStats:
    def test_compile_workload_records_stats(self):
        plan = compile_workload(_workload())
        stats = plan.compile_stats
        assert isinstance(stats, CompileStats)
        assert stats.num_layers == 2
        assert stats.compile_s > 0.0
        assert 0.0 <= stats.lowering_s <= stats.compile_s
        assert stats.kernel_bytes > 0
        assert stats.kernel_backends == ("float64-blas",)
        assert set(stats.per_layer_compile_s) == {"layer0", "layer1"}

    def test_every_layer_carries_an_executor(self):
        plan = compile_workload(_workload())
        for name in plan.layer_names():
            kernel = plan.layer(name).gemm_plan.kernel
            assert isinstance(kernel, ExactExecutor)
            assert kernel.backend in plan.compile_stats.kernel_backends
        assert plan.compile_stats.kernel_bytes == sum(
            plan.layer(name).gemm_plan.kernel.kernel_bytes
            for name in plan.layer_names()
        )

    def test_as_dict_round_trips_the_bench_schema(self):
        stats = compile_workload(_workload()).compile_stats.as_dict()
        assert set(stats) == {
            "num_layers", "compile_s", "lowering_s", "kernel_bytes",
            "kernel_backends", "per_layer_compile_s", "per_layer_bits",
            "per_layer_scheme",
        }
        assert isinstance(stats["kernel_backends"], list)


class TestServingReport:
    def test_report_embeds_compile_stats(self):
        plan = compile_workload(_workload(num_layers=1))
        rng = np.random.default_rng(0)
        with Server(plan, num_workers=1, max_batch=4) as server:
            futures = [
                server.submit(rng.integers(-8, 8, size=(20, 1), dtype=np.int64))
                for _ in range(8)
            ]
            for future in futures:
                future.result(timeout=10.0)
            report = server.report()
        assert report.compile_stats is plan.compile_stats
        summary = report.as_dict()
        assert summary["compile_stats"]["num_layers"] == 1
        rendered = report.render()
        assert "kernel backends" in rendered
        assert "offline compile" in rendered

    def test_report_carries_no_plan_cache_counters(self):
        plan = compile_workload(_workload(num_layers=1))
        act = np.ones((20, 1), dtype=np.int64)
        with Server(plan, num_workers=1, max_batch=4) as server:
            server.submit(act).result(timeout=10.0)
            report = server.report()
        removed = {"plan_hits", "plan_misses", "plan_hit_rate", "scoreboard_cache"}
        assert not removed & set(report.as_dict())
        assert not any(hasattr(report, name) for name in removed)
        rendered = report.render()
        assert "plan hit" not in rendered and "scoreboard cache" not in rendered

    def test_planned_and_oracle_serving_agree(self):
        plan = compile_workload(_workload(num_layers=1))
        rng = np.random.default_rng(1)
        act = rng.integers(-8, 8, size=(20, 3), dtype=np.int64)
        layer = plan.layer("layer0")
        planned = plan.run("layer0", act)
        oracle = TransitiveGemmEngine(fast=False)
        scalar = oracle.multiply(layer.weight, act, layer.gemm_plan.weight_bits)
        assert np.array_equal(planned, scalar.output)
        assert np.array_equal(planned, layer.weight @ act)


_NUMPY_ONLY_SCRIPT = """
import sys


class _NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError("scipy is not installed (simulated)")


sys.meta_path.insert(0, _NoScipy())

import numpy as np

from repro.serving import Server, compile_workload
from repro.workloads import synthetic_gemm_workload

plan = compile_workload(
    synthetic_gemm_workload(num_layers=2, n=16, k=16, m=2, weight_bits=4),
    seed=1, graph="chain",
)
act = np.arange(32, dtype=np.int64).reshape(16, 2)
with Server(plan, num_workers=1, max_batch=4) as server:
    out = server.submit(act).result(timeout=10.0)
assert np.array_equal(
    out, plan.layer("layer1").weight @ (plan.layer("layer0").weight @ act)
)
assert not any(name.split(".")[0] == "scipy" for name in sys.modules)
print("ok")
"""


class TestNumpyOnlyInstall:
    def test_compiles_and_serves_without_scipy(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", _NUMPY_ONLY_SCRIPT],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "ok"
