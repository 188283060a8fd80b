"""Whole-model serving: parity, faults, deadlines, streams, the claim.

A compiled multi-layer LLaMA block (five chained GEMM stages) served
end-to-end must be bit-identical to running ``engine.multiply_planned`` per
layer sequentially, including under a worker kill (the claim's requests are
requeued and still complete).  One worker claim runs a batch of model
requests through every stage; deadlines, cancellation, retries, exhausted
retries and crash requeue work at stage granularity inside it, and the
report carries per-stage breakdowns.
"""

import gc
import sys
import threading
import time
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    BackpressureError,
    DeadlineExceededError,
    InjectedFaultError,
    RequestCancelledError,
    ServingError,
    ShedError,
    WorkerCrashError,
)
from repro.serving import (
    FaultInjector,
    FaultPlan,
    ModelGraph,
    RetryPolicy,
    Server,
    compile_workload,
)
from repro.serving.request import DONE, FAILED
from repro.workloads import LlamaConfig, llama_block_gemms, resnet_stack_gemms

TINY = LlamaConfig("tiny-llama", hidden_size=32, intermediate_size=48,
                   num_attention_heads=4, num_key_value_heads=4, num_layers=2)


def _block_plan(**kwargs):
    workload = llama_block_gemms(TINY.name, config=TINY, weight_bits=4)
    return compile_workload(workload, seed=5, graph="chain", **kwargs)


def _sequential_reference(plan, activation):
    """Per-layer sequential execution via ``multiply_planned`` — the
    non-pipelined ground truth the server must match bit-for-bit."""
    for name in plan.graph.layers:
        activation = plan.engine.multiply_planned(
            plan.layer(name).gemm_plan, activation
        ).output
    return activation


def _activations(plan, count, seed=3, cols=1):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(-32, 32, size=(plan.input_dim, cols), dtype=np.int64)
        for _ in range(count)
    ]


class TestPipelineParity:
    def test_llama_block_threads_bit_identical_to_sequential(self):
        plan = _block_plan()
        assert plan.graph.layers == (
            "qkv_proj", "attn_score", "o_proj", "gate_proj", "down_proj"
        )
        activations = _activations(plan, 12, cols=2)
        with Server(plan, num_workers=2, max_batch=4,
                    max_pending=32) as server:
            requests = [server.submit(act) for act in activations]
            outputs = [r.result(timeout=30.0) for r in requests]
        for activation, output in zip(activations, outputs):
            assert np.array_equal(output, _sequential_reference(plan, activation))
        # run_model is the same sequential walk, so it must agree too.
        assert np.array_equal(outputs[0], plan.run_model(activations[0]))

    def test_resnet_stack_serves_end_to_end(self):
        workload = resnet_stack_gemms(weight_bits=4, batch=2)
        plan = compile_workload(workload, seed=8, graph="chain")
        assert plan.input_dim == 64 and plan.output_dim == 1000
        activation = _activations(plan, 1, seed=1, cols=2)[0]
        with Server(plan, num_workers=1, max_batch=2, max_pending=4) as server:
            output = server.submit(activation).result(timeout=30.0)
        assert np.array_equal(output, _sequential_reference(plan, activation))

    def test_submit_many_is_atomic_and_ordered(self):
        plan = _block_plan()
        activations = _activations(plan, 6, seed=21)
        with Server(plan, num_workers=2, max_batch=4,
                    max_pending=8) as server:
            requests = server.submit_many(activations=activations)
            outputs = [r.result(timeout=30.0) for r in requests]
            for activation, output in zip(activations, outputs):
                assert np.array_equal(
                    output, _sequential_reference(plan, activation)
                )
            # An over-bound batch is rejected whole, nothing admitted.
            with pytest.raises(BackpressureError):
                server.submit_many(activations=_activations(plan, 9, seed=2))
        assert server.report().num_rejected == 9


class TestPipelineStream:
    def test_stream_feeds_step_output_to_next_step(self):
        plan = _block_plan()
        assert plan.streamable
        activation = _activations(plan, 1)[0]
        with Server(plan, num_workers=2, max_batch=4, max_pending=8) as server:
            request = server.submit(activation, stream=4)
            steps = request.outputs(timeout=30.0)
        assert len(steps) == 4
        assert request.steps_completed == 4
        token = activation
        for produced in steps:
            token = _sequential_reference(plan, token)
            assert np.array_equal(produced, token)
        # result() is the last decode step.
        assert np.array_equal(request.result(timeout=1.0), steps[-1])


class TestPipelineFaults:
    def _crash_server(self, plan):
        faults = FaultInjector(
            plan=FaultPlan(worker_crashes_at=frozenset({1})), seed=7
        )
        return Server(
            plan, num_workers=2, max_batch=2, max_pending=16,
            faults=faults, max_worker_restarts=4,
        )

    def test_mid_pipeline_worker_kill_requeues_threads(self):
        plan = _block_plan()
        activations = _activations(plan, 6, seed=13)
        with self._crash_server(plan) as server:
            requests = [server.submit(act) for act in activations]
            outputs = [r.result(timeout=60.0) for r in requests]
            assert server.faults.stats().worker_crashes == 1
            # The crashed worker counts its restart before it requeues the
            # claim, so every result implies the count.
            assert server.health().num_worker_restarts == 1
        for activation, output in zip(activations, outputs):
            assert np.array_equal(output, _sequential_reference(plan, activation))
        report = server.report()
        assert report.num_worker_restarts >= 1
        assert report.num_model_requests == 6
        assert report.num_model_failed == 0


class TestPipelineDeadlinesAndCancel:
    def test_deadline_expires_mid_pipeline(self):
        plan = _block_plan()
        activation = _activations(plan, 1)[0]
        server = Server(plan, num_workers=1, max_batch=1, max_pending=4)
        ran = []
        with server:
            original = plan.run

            def slow_first_stage(layer, activation):
                ran.append(layer)
                output = original(layer, activation)
                if layer == "qkv_proj":
                    # Let the model deadline lapse before stage 1.
                    time.sleep(0.15)
                return output

            plan.run = slow_first_stage
            request = server.submit(activation, deadline_s=0.05)
            with pytest.raises(DeadlineExceededError):
                request.result(timeout=10.0)
        # Stage 0 completed; the request expired before stage 1 ran.
        assert ran == ["qkv_proj"]
        assert request.steps_completed == 0
        assert server.report().num_expired == 1

    def test_cancel_parks_model_request_at_stage_boundary(self):
        plan = _block_plan()
        acts = _activations(plan, 2, seed=31)
        server = Server(plan, num_workers=1, max_batch=1, max_pending=4)
        gate = threading.Event()
        with server:
            original = plan.run

            def gated(*args):
                assert gate.wait(10.0)
                return original(*args)

            plan.run = gated
            first = server.submit(acts[0])
            second = server.submit(acts[1])
            assert second.cancel() is True
            assert second.done() is True
            gate.set()
            assert np.array_equal(
                first.result(timeout=30.0),
                _sequential_reference(plan, acts[0]),
            )
            with pytest.raises(RequestCancelledError):
                second.result(timeout=1.0)
        assert server.report().num_cancelled >= 1


class TestPipelineReport:
    def test_per_stage_breakdown(self):
        plan = _block_plan()
        activations = _activations(plan, 10, seed=23)
        with Server(plan, num_workers=2, max_batch=4,
                    max_pending=16) as server:
            requests = [server.submit(act) for act in activations]
            for request in requests:
                request.result(timeout=30.0)
        report = server.report()
        assert report.pipeline_depth == 5
        assert report.num_model_requests == 10
        assert report.num_model_failed == 0
        assert report.model_latency_mean_s > 0.0
        assert report.model_latency_p95_s >= report.model_latency_p50_s
        assert [s.layer for s in report.stages] == list(plan.graph.layers)
        for stage in report.stages:
            assert stage.requests == 10
            assert stage.batches >= 1
            assert stage.compute_s > 0.0
            assert 0.0 <= stage.occupancy
        as_dict = report.as_dict()
        pipeline = as_dict["pipeline"]
        assert pipeline["depth"] == 5
        assert len(pipeline["stages"]) == 5
        assert pipeline["num_model_requests"] == 10
        rendered = report.render()
        assert "stage[0] qkv_proj" in rendered
        assert "pipeline depth" in rendered

    def test_model_latency_spans_all_stages(self):
        plan = _block_plan()
        activation = _activations(plan, 1)[0]
        with Server(plan, num_workers=1, max_batch=1, max_pending=4) as server:
            request = server.submit(activation)
            request.result(timeout=30.0)
        assert request.latency_s is not None
        assert request.latency_s > 0.0
        assert request.pipeline_depth == 5


class TestPipelineGraphRequirements:
    def test_multi_layer_plan_without_graph_rejects_model_submit(self):
        workload = llama_block_gemms(TINY.name, config=TINY, weight_bits=4)
        plan = compile_workload(workload, seed=5)  # no graph
        activation = np.ones((32, 1), dtype=np.int64)
        with Server(plan, num_workers=1, max_batch=2) as server:
            with pytest.raises(ServingError, match="graph"):
                server.submit(activation)

    def test_single_layer_plan_serves_implicit_graph(self):
        workload = llama_block_gemms(TINY.name, config=TINY, weight_bits=4)
        plan = compile_workload(workload, seed=5, layer_names=["qkv_proj"])
        activation = np.arange(32, dtype=np.int64).reshape(32, 1)
        with Server(plan, num_workers=1, max_batch=2) as server:
            output = server.submit(activation).result(timeout=10.0)
        assert np.array_equal(output, plan.layer("qkv_proj").weight @ activation)
        report = server.report()
        assert report.pipeline_depth == 1
        assert report.stages[0].layer == "qkv_proj"

    def test_explicit_graph_object_at_compile_time(self):
        workload = llama_block_gemms(TINY.name, config=TINY, weight_bits=4)
        graph = ModelGraph.chain(
            ["qkv_proj", "attn_score", "o_proj", "gate_proj", "down_proj"]
        )
        plan = compile_workload(workload, seed=5, graph=graph)
        assert plan.graph == graph
        assert plan.streamable


#: Retries without sleeps so fault paths stay fast.
FAST_RETRIES = RetryPolicy(max_attempts=3, backoff_base_s=0.0, backoff_max_s=0.0)
STAGES = ("qkv_proj", "attn_score", "o_proj", "gate_proj", "down_proj")


class _StageLog:
    """Wraps the served plan's ``run`` and records every stage pass.

    ``calls`` holds ``(layer, columns)`` per pass that reached the plan
    (attempts a fault-hook failure stopped first are not included);
    ``before``/``after`` run around a pass with its layer and 1-based call
    index; passes wait while ``hold`` is cleared.  :meth:`restore` unwraps
    the plan so references computed through it go unrecorded.
    """

    def __init__(self, server, before=None, after=None):
        self.calls = []
        self.before = before
        self.after = after
        self.hold = threading.Event()
        self.hold.set()
        self._plan = server.plan
        self._original = self._plan.run
        self._plan.run = self

    def __call__(self, layer, activation):
        assert self.hold.wait(10.0)
        self.calls.append((layer, activation.shape[1]))
        if self.before is not None:
            self.before(layer, len(self.calls))
        output = self._original(layer, activation)
        if self.after is not None:
            self.after(layer, len(self.calls))
        return output

    def restore(self):
        del self._plan.run


def _plug(server, log, activation):
    """Occupy the single worker with one request held before its first
    stage, so the requests submitted next share the following claim."""
    log.hold.clear()
    plug = server.submit(activation)
    deadline = time.perf_counter() + 5.0
    while len(server.queue) and time.perf_counter() < deadline:
        time.sleep(0.001)
    assert len(server.queue) == 0
    return plug


class TestWholeChainClaim:
    def test_deadline_between_stages_stops_only_that_request(self):
        plan = _block_plan()
        acts = _activations(plan, 3, seed=41)
        server = Server(plan, num_workers=1, max_batch=4, max_pending=8,
                        admission_control=False)

        def lapse(layer, index):
            if index == 8:  # o_proj of the second claim
                time.sleep(0.35)

        log = _StageLog(server, after=lapse)
        with server:
            plug = _plug(server, log, acts[0])
            doomed = server.submit(acts[1], deadline_s=0.3)
            survivor = server.submit(acts[2])
            log.hold.set()
            plug.result(timeout=30.0)
            with pytest.raises(DeadlineExceededError, match="gate_proj"):
                doomed.result(timeout=30.0)
            output = survivor.result(timeout=30.0)
        log.restore()
        assert np.array_equal(output, plan.run_model(acts[2]))
        # The expired request's columns left the claim before gate_proj.
        assert log.calls[5:] == [
            ("qkv_proj", 2), ("attn_score", 2), ("o_proj", 2),
            ("gate_proj", 1), ("down_proj", 1),
        ]
        assert doomed.steps_completed == 0
        report = server.report()
        assert report.num_expired == 1
        assert report.num_model_requests == 2
        assert [stage.requests for stage in report.stages] == [3, 3, 3, 2, 2]

    def test_cancel_between_stages(self):
        plan = _block_plan()
        acts = _activations(plan, 3, seed=43)
        server = Server(plan, num_workers=1, max_batch=4, max_pending=8)
        handles = {}
        cancels = []

        def cancel(layer, index):
            if index == 7:  # attn_score of the second claim
                cancels.append(handles["victim"].cancel())

        log = _StageLog(server, after=cancel)
        with server:
            plug = _plug(server, log, acts[0])
            handles["victim"] = server.submit(acts[1])
            other = server.submit(acts[2])
            log.hold.set()
            plug.result(timeout=30.0)
            with pytest.raises(RequestCancelledError):
                handles["victim"].result(timeout=30.0)
            output = other.result(timeout=30.0)
        log.restore()
        assert np.array_equal(output, plan.run_model(acts[2]))
        assert cancels == [True]
        assert log.calls[5:] == [
            ("qkv_proj", 2), ("attn_score", 2), ("o_proj", 1),
            ("gate_proj", 1), ("down_proj", 1),
        ]
        report = server.report()
        assert report.num_cancelled == 1
        assert handles["victim"].cancel() is False  # already settled

    def test_transient_fault_at_stage_k_retries_only_that_stage(self):
        plan = _block_plan()
        activation = _activations(plan, 1, seed=45)[0]
        faults = FaultInjector(plan=FaultPlan(engine_faults_at={3}))
        server = Server(plan, num_workers=1, max_batch=4,
                        retry_policy=FAST_RETRIES, faults=faults)
        log = _StageLog(server)
        with server:
            output = server.submit(activation).result(timeout=30.0)
        log.restore()
        assert np.array_equal(output, plan.run_model(activation))
        # o_proj's hook failed once and the stage ran again; no earlier
        # stage re-ran.
        assert [layer for layer, _ in log.calls] == list(STAGES)
        assert faults.stats().batch_hooks == 6
        report = server.report()
        assert report.num_retried == 1
        assert report.num_requests == 5

    def test_exhausted_retries_fail_the_claim_at_that_stage(self):
        plan = _block_plan()
        acts = _activations(plan, 2, seed=47, cols=2)
        # Every attempt at o_proj (hook calls 3-5) fails.
        faults = FaultInjector(plan=FaultPlan(engine_faults_at={3, 4, 5}))
        server = Server(plan, num_workers=1, max_batch=4, max_pending=8,
                        retry_policy=FAST_RETRIES, faults=faults)
        log = _StageLog(server)
        with server:
            handles = server.submit_many(acts)
            for handle in handles:
                with pytest.raises(InjectedFaultError):
                    handle.result(timeout=30.0)
                assert handle.steps_completed == 0
        # o_proj's hook failed all three attempts; no later stage ran.
        assert log.calls == [("qkv_proj", 4), ("attn_score", 4)]
        assert faults.stats().batch_hooks == 5
        assert server._totals.layer_states == {
            ("qkv_proj", DONE): 2, ("attn_score", DONE): 2, ("o_proj", FAILED): 2,
        }
        report = server.report()
        assert report.num_failed == 2
        assert report.num_model_failed == 2
        assert report.num_model_requests == 0
        assert report.num_retried == 4  # two retries for each request
        by_layer = {stage.layer: stage for stage in report.stages}
        assert by_layer["o_proj"].requests == 0
        assert by_layer["o_proj"].batches == 0
        assert by_layer["gate_proj"].batches == 0

    def test_failed_decode_step_fails_only_the_longer_stream(self):
        plan = _block_plan()
        acts = _activations(plan, 3, seed=59)
        # Hooks 1-5 are the plug, 6-10 the shared claim's first step; every
        # attempt at the second step's qkv_proj (hooks 11-13) fails.
        faults = FaultInjector(plan=FaultPlan(engine_faults_at={11, 12, 13}))
        server = Server(plan, num_workers=1, max_batch=4, max_pending=8,
                        retry_policy=FAST_RETRIES, faults=faults)
        log = _StageLog(server)
        with server:
            plug = _plug(server, log, acts[0])
            short = server.submit(acts[1], stream=1)
            longer = server.submit(acts[2], stream=2)
            log.hold.set()
            plug.result(timeout=30.0)
            output = short.result(timeout=30.0)
            with pytest.raises(InjectedFaultError):
                longer.outputs(timeout=30.0)
        log.restore()
        assert np.array_equal(output, plan.run_model(acts[1]))
        assert longer.state == FAILED
        assert longer.steps_completed == 1
        # Both shared the first step; the second step's qkv_proj hook failed
        # all three attempts, so no pass of it reached the plan.
        assert log.calls[5:] == [(layer, 2) for layer in STAGES]
        assert faults.stats().batch_hooks == 13
        report = server.report()
        admitted = 3
        assert report.num_model_requests == 2
        assert report.num_model_failed == 1
        assert report.num_model_requests + report.num_model_failed == admitted
        # Per stage: one record per executor pass each request rode, plus
        # the failed stage of the longer stream.
        assert report.num_requests == 3 * len(STAGES)
        assert report.num_failed == 1
        assert report.num_expired == report.num_cancelled == report.num_shed == 0
        assert report.num_retried == 2

    def test_worker_crash_mid_chain_requeues_from_stage_zero(self):
        plan = _block_plan()
        acts = _activations(plan, 2, seed=49)
        crashed = []

        def crash(layer, index):
            if layer == "gate_proj" and not crashed:
                crashed.append(index)
                raise WorkerCrashError("worker died mid-chain")

        server = Server(plan, num_workers=1, max_batch=4, max_pending=8,
                        max_worker_restarts=2)
        log = _StageLog(server, before=crash)
        with server:
            handles = server.submit_many(acts)
            outputs = [handle.result(timeout=30.0) for handle in handles]
            deadline = time.perf_counter() + 10.0
            while (server.health().num_worker_restarts < 1
                   and time.perf_counter() < deadline):
                time.sleep(0.005)
            assert server.health().num_worker_restarts == 1
        log.restore()
        for act, output in zip(acts, outputs):
            assert np.array_equal(output, plan.run_model(act))
        assert [layer for layer, _ in log.calls] == list(STAGES[:4]) + list(STAGES)
        report = server.report()
        # Stage records of the crashed claim were never written.
        assert report.num_requests == 2 * len(STAGES)
        assert [stage.requests for stage in report.stages] == [2] * len(STAGES)
        assert [stage.batches for stage in report.stages] == [1] * len(STAGES)
        assert report.num_model_requests == 2
        assert report.num_failed == 0

    def test_each_stage_executes_once_per_claim(self):
        plan = _block_plan()
        acts = _activations(plan, 6, seed=51)
        faults = FaultInjector()  # counts hook calls, injects nothing
        server = Server(plan, num_workers=1, max_batch=8, max_pending=8,
                        faults=faults)
        with server:
            handles = server.submit_many(acts)
            for act, handle in zip(acts, handles):
                assert np.array_equal(handle.result(timeout=30.0), plan.run_model(act))
        stats = faults.stats()
        assert stats.dispatch_hooks == 1
        assert stats.batch_hooks == len(STAGES)
        report = server.report()
        assert [stage.batches for stage in report.stages] == [1] * len(STAGES)
        assert report.mean_batch_size == 6.0

    def test_stream_three_equals_run_model_three_times(self):
        plan = _block_plan()
        acts = _activations(plan, 4, seed=53)
        server = Server(plan, num_workers=1, max_batch=4, max_pending=8)
        log = _StageLog(server)
        with server:
            plug = _plug(server, log, acts[0])
            # Three decode lengths share one claim and leave it step by step.
            handles = [
                server.submit(act, stream=steps)
                for act, steps in zip(acts[1:], (3, 1, 2))
            ]
            log.hold.set()
            plug.result(timeout=30.0)
            streams = [handle.outputs(timeout=30.0) for handle in handles]
        log.restore()
        for act, outputs, steps in zip(acts[1:], streams, (3, 1, 2)):
            token = act
            assert len(outputs) == steps
            for produced in outputs:
                token = plan.run_model(token)
                assert np.array_equal(produced, token)
        widths = [columns for _, columns in log.calls[5:]]
        assert widths == [3] * 5 + [2] * 5 + [1] * 5

    def test_finished_handle_pins_no_stage_output(self):
        plan = _block_plan()
        activation = _activations(plan, 1, seed=55)[0]
        stage_outputs = []
        server = Server(plan, num_workers=1, max_batch=4)
        original = plan.run

        def keep_refs(*args):
            output = original(*args)
            stage_outputs.append(weakref.ref(output))
            return output

        plan.run = keep_refs
        with server:
            handle = server.submit(activation)
            result = handle.result(timeout=30.0)
        del plan.run
        gc.collect()
        assert len(stage_outputs) == len(STAGES)
        # The handle keeps its own copy of the final output and nothing of
        # the stage outputs, intermediate or final.
        assert all(ref() is None for ref in stage_outputs)
        assert np.array_equal(result, plan.run_model(activation))

    def test_batch_compositions_match_run_model(self):
        plan = _block_plan()
        with Server(plan, num_workers=2, max_batch=16, max_pending=64) as server:

            @settings(max_examples=25, deadline=None)
            @given(
                widths=st.lists(st.integers(1, 5), min_size=1, max_size=16),
                seed=st.integers(0, 2**32 - 1),
            )
            def check(widths, seed):
                rng = np.random.default_rng(seed)
                acts = [
                    rng.integers(-128, 128, size=(plan.input_dim, width),
                                 dtype=np.int64)
                    for width in widths
                ]
                handles = server.submit_many(acts)
                for act, handle in zip(acts, handles):
                    assert np.array_equal(
                        handle.result(timeout=30.0), plan.run_model(act)
                    )

            check()

    def test_accounting_holds_under_thread_churn(self):
        # More workers than cores and a tiny switch interval: every admitted
        # request settles once and is counted once, whatever interleaving
        # the claims, the clients' cancels and the deadlines produce.
        plan = _block_plan()
        acts = _activations(plan, 120, seed=57)
        outcomes = Counter()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with Server(plan, num_workers=4, max_batch=4, max_pending=256) as server:
                admitted = []
                for index, act in enumerate(acts):
                    try:
                        handle = server.submit(
                            act, stream=1 + index % 3,
                            deadline_s=0.002 if index % 4 == 0 else None,
                        )
                    except ShedError:
                        outcomes["shed at admission"] += 1
                        continue
                    if index % 5 == 0:
                        handle.cancel()
                    admitted.append((act, handle))
                for act, handle in admitted:
                    try:
                        outputs = handle.outputs(timeout=60.0)
                    except (DeadlineExceededError, RequestCancelledError,
                            ShedError) as error:
                        outcomes[type(error).__name__] += 1
                        continue
                    token = act
                    for produced in outputs:
                        token = plan.run_model(token)
                        assert np.array_equal(produced, token)
                    outcomes["done"] += 1
        finally:
            sys.setswitchinterval(interval)
        report = server.report()
        assert report.num_model_requests == outcomes["done"]
        assert report.num_model_requests + report.num_model_failed == len(admitted)
        assert report.num_admission_shed == outcomes["shed at admission"]
        # A request stopped before its last stage leaves one terminal stage
        # record; one cancelled while its last stage ran leaves none.
        assert report.num_expired == outcomes["DeadlineExceededError"]
        assert report.num_shed == outcomes["ShedError"]
        assert report.num_cancelled <= outcomes["RequestCancelledError"]
        assert report.num_failed == 0
