"""The redesigned serving API surface: exports, keyword-only constructors,
warning-free model-level submit, submit validation and the ModelGraph
contract."""

import importlib
import warnings

import numpy as np
import pytest

import repro.serving as serving
from repro.errors import ServingError
from repro.serving import (
    INPUT,
    ModelGraph,
    ModelRequest,
    Server,
    StageSpec,
    compile_workload,
)
from repro.workloads import synthetic_gemm_workload

#: Every package whose ``__all__`` is the public surface.
_PACKAGES = (
    "repro", "repro.core", "repro.transarray", "repro.scoreboard",
    "repro.energy", "repro.workloads", "repro.quant", "repro.bitslice",
    "repro.hasse", "repro.analysis", "repro.baselines", "repro.serving",
)


def _plan(num_layers=1, n=8, k=8, **kwargs):
    workload = synthetic_gemm_workload(
        num_layers=num_layers, n=n, k=k, m=1, weight_bits=4
    )
    return compile_workload(workload, seed=3, **kwargs)


class TestExports:
    def test_all_names_import(self):
        for package in _PACKAGES:
            module = importlib.import_module(package)
            names = module.__all__
            assert len(names) == len(set(names)), package
            for name in names:
                assert hasattr(module, name), f"{package}.{name}"

    def test_redesigned_surface_is_exported(self):
        for name in ("compile_workload", "Server", "ModelRequest",
                     "ModelGraph", "StageSpec", "INPUT", "StageStats"):
            assert name in serving.__all__


class TestKeywordOnlyConstructors:
    def test_server_rejects_positional_config(self):
        plan = _plan()
        with pytest.raises(TypeError):
            Server(plan, 2)

    def test_compile_workload_rejects_positional_config(self):
        workload = synthetic_gemm_workload(
            num_layers=1, n=8, k=8, m=1, weight_bits=4
        )
        with pytest.raises(TypeError):
            compile_workload(workload, None)


class TestDeprecationShims:
    def test_model_submit_does_not_warn(self):
        plan = _plan()
        activation = np.ones((8, 1), dtype=np.int64)
        with Server(plan, num_workers=1, max_batch=2) as server:
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                request = server.submit(activation)
                assert isinstance(request, ModelRequest)
                request.result(timeout=10.0)


class TestSubmitValidation:
    def test_model_name_is_validated(self):
        plan = _plan()
        activation = np.ones((8, 1), dtype=np.int64)
        with Server(plan, num_workers=1, max_batch=2) as server:
            request = server.submit(activation, model=plan.name)
            request.result(timeout=10.0)
            with pytest.raises(ServingError, match="serves model"):
                server.submit(activation, model="some-other-model")

    def test_stream_requires_streamable_graph(self):
        plan = _plan(n=6, k=8)  # 8 -> 6: output cannot feed the input
        activation = np.ones((8, 1), dtype=np.int64)
        with Server(plan, num_workers=1, max_batch=2) as server:
            with pytest.raises(ServingError, match="not streamable"):
                server.submit(activation, stream=2)

    def test_invalid_stream_and_priority_are_rejected_before_queueing(self):
        plan = _plan()
        activation = np.ones((8, 1), dtype=np.int64)
        server = Server(plan, num_workers=1, max_batch=2)
        with server:
            rejected = server.health().num_rejected
            for submit in (
                lambda: server.submit(activation, stream=0),
                lambda: server.submit(activation, priority=-1),
                lambda: server.submit_many([activation], stream=0),
            ):
                with pytest.raises(ServingError, match="must be >= "):
                    submit()
                assert len(server.queue) == 0
                assert server.health().num_rejected == rejected
        assert server.report().num_requests == 0


class TestModelGraphContract:
    def test_chain_wires_each_stage_to_the_previous(self):
        graph = ModelGraph.chain(["a", "b", "c"])
        assert graph.layers == ("a", "b", "c")
        assert graph.stages[0].source == INPUT
        assert graph.stages[1].source == "a"
        assert graph.stages[2].source == "b"
        assert len(graph) == 3
        assert "a -> b -> c" in graph.describe() or "a" in graph.describe()

    def test_bare_strings_wire_as_chain(self):
        assert ModelGraph(["x", "y"]) == ModelGraph.chain(["x", "y"])

    def test_validation_rejects_bad_graphs(self):
        with pytest.raises(ServingError):
            ModelGraph([])
        with pytest.raises(ServingError):
            ModelGraph(["a", "a"])  # duplicate stage
        with pytest.raises(ServingError):
            ModelGraph([StageSpec("a", source="b"), StageSpec("b")])
        with pytest.raises(ServingError):
            ModelGraph([StageSpec(INPUT)])

    def test_compile_rejects_unknown_graph_layers(self):
        workload = synthetic_gemm_workload(
            num_layers=2, n=8, k=8, m=1, weight_bits=4
        )
        with pytest.raises(ServingError):
            compile_workload(
                workload, seed=3, graph=ModelGraph.chain(["layer0", "nope"])
            )

    def test_compile_rejects_dimension_mismatch(self):
        workload = synthetic_gemm_workload(
            num_layers=2, n=6, k=8, m=1, weight_bits=4
        )  # 6-row outputs cannot feed an 8-row reduction
        with pytest.raises(ServingError):
            compile_workload(workload, seed=3, graph="chain")

    def test_compile_rejects_unknown_graph_string(self):
        workload = synthetic_gemm_workload(
            num_layers=1, n=8, k=8, m=1, weight_bits=4
        )
        with pytest.raises(ServingError):
            compile_workload(workload, seed=3, graph="ring")
