"""Chaos suite: injected engine faults, worker crashes, exhausted retries.

The acceptance contract: with seeded injected faults, every non-injected
request still completes **bit-identically** to ``weight @ activation`` (via
retry), a stage that exhausts its retries fails every live member of its
claim with the fault, killed workers restart within the restart budget,
and every fault-tolerance event is accounted in ``ServingReport`` /
``Server.health()``.
"""

import threading
import time

import numpy as np
import pytest

from repro.errors import (
    InjectedFaultError,
    ServingError,
    SimulationError,
    TransientServingError,
    WorkerCrashError,
)
from repro.serving import (
    FaultInjector,
    FaultPlan,
    ModelRequest,
    RetryPolicy,
    Server,
    compile_workload,
)
from repro.serving.request import FAILED
from repro.workloads import synthetic_gemm_workload

#: Zero-sleep policy so retry-path tests stay fast.
FAST_RETRIES = RetryPolicy(max_attempts=3, backoff_base_s=0.0, backoff_max_s=0.0)


def _plan(**kwargs):
    workload = synthetic_gemm_workload(num_layers=2, n=12, k=10, m=4, weight_bits=4)
    return compile_workload(workload, seed=23, layer_names=["layer0"], **kwargs)


def _activations(count, k=10, seed=5):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(-32, 32, size=(k, int(rng.integers(1, 3))), dtype=np.int64)
        for _ in range(count)
    ]


def _preloaded_server(plan, requests, **kwargs):
    """Enqueue raw requests before the workers spin up (deterministic batching)."""
    server = Server(plan, **kwargs)
    for request in requests:
        server.queue.put_many([request])
    return server.start()


def _raw_request(request_id, activation, layer="layer0"):
    """A model request built without submit()'s validation."""
    return ModelRequest(
        request_id, model="raw", stages=(layer,), num_steps=1,
        activation=activation, submitted_at=time.perf_counter(),
    )


class TestFaultInjector:
    def test_plan_and_rate_validation(self):
        with pytest.raises(ServingError):
            FaultPlan(engine_faults_at=frozenset({0}))
        with pytest.raises(ServingError):
            FaultPlan(latency_at={1: -0.5})
        with pytest.raises(ServingError):
            FaultInjector(engine_fault_rate=1.5)
        with pytest.raises(ServingError):
            FaultInjector(latency_s=-1.0)

    def test_scripted_hooks_fire_on_exact_indices(self):
        injector = FaultInjector(
            plan=FaultPlan(
                engine_faults_at={2},
                worker_crashes_at={1},
                latency_at={1: 0.001},
            )
        )
        with pytest.raises(WorkerCrashError):
            injector.on_dispatch("w0")
        injector.on_dispatch("w0")  # index 2: clean
        injector.on_batch("layer0", 4)  # index 1: latency only
        with pytest.raises(InjectedFaultError):
            injector.on_batch("layer0", 4)  # index 2: engine fault
        stats = injector.stats()
        assert stats.dispatch_hooks == 2
        assert stats.batch_hooks == 2
        assert stats.worker_crashes == 1
        assert stats.engine_faults == 1
        assert stats.delays == 1

    def test_injected_fault_is_transient(self):
        assert isinstance(InjectedFaultError("x"), TransientServingError)
        assert RetryPolicy().should_retry(InjectedFaultError("x"), attempt=1)
        assert not RetryPolicy().should_retry(SimulationError("x"), attempt=1)


class TestRetryPath:
    def test_transient_fault_is_retried_to_success(self):
        plan = _plan()
        faults = FaultInjector(plan=FaultPlan(engine_faults_at={1}))
        activations = _activations(4)
        requests = [_raw_request(i, act) for i, act in enumerate(activations)]
        server = _preloaded_server(
            plan,
            requests,
            num_workers=1,
            max_batch=8,
            retry_policy=FAST_RETRIES,
            faults=faults,
        )
        try:
            weight = plan.layer("layer0").weight
            for request, activation in zip(requests, activations):
                assert np.array_equal(
                    request.result(timeout=10.0), weight @ activation
                )
        finally:
            server.close()
        report = server.report()
        assert report.num_requests == 4
        assert report.num_failed == 0
        assert report.num_retried >= 4  # the whole batch retried once
        assert faults.stats().engine_faults == 1

    def test_exhausted_retries_fail_every_member(self):
        plan = _plan()
        # More scripted faults than the policy has attempts: the stage never
        # succeeds for the first claim, so every member fails with the fault.
        faults = FaultInjector(plan=FaultPlan(engine_faults_at=frozenset(range(1, 9))))
        requests = [_raw_request(i, act) for i, act in enumerate(_activations(3))]
        server = _preloaded_server(
            plan,
            requests,
            num_workers=1,
            max_batch=8,
            retry_policy=RetryPolicy(
                max_attempts=2, backoff_base_s=0.0, backoff_max_s=0.0
            ),
            faults=faults,
        )
        try:
            for request in requests:
                with pytest.raises(InjectedFaultError):
                    request.result(timeout=10.0)
                assert request.state == FAILED
                assert request.retries == 1
        finally:
            server.close()
        report = server.report()
        assert report.num_requests == 0
        assert report.num_failed == 3
        assert report.num_retried == 3  # one retry, carried by each member
        assert faults.stats().engine_faults == 2  # both attempts, no third pass

    def test_degraded_disabled_fails_the_batch(self):
        # No degraded fallback exists: a lone request whose stage exhausts its
        # retries fails with the fault and is accounted as failed.
        plan = _plan()
        faults = FaultInjector(plan=FaultPlan(engine_faults_at=frozenset(range(1, 9))))
        requests = [_raw_request(0, np.ones((10, 1), dtype=np.int64))]
        server = _preloaded_server(
            plan,
            requests,
            num_workers=1,
            retry_policy=RetryPolicy(
                max_attempts=2, backoff_base_s=0.0, backoff_max_s=0.0
            ),
            faults=faults,
        )
        try:
            with pytest.raises(InjectedFaultError):
                requests[0].result(timeout=10.0)
        finally:
            server.close()
        assert requests[0].state == FAILED
        assert server.report().num_failed == 1

    def test_unretried_stage_fault_fails_every_member(self):
        plan = _plan()
        faults = FaultInjector(plan=FaultPlan(engine_faults_at=frozenset({1})))
        acts = _activations(3, seed=13)
        requests = [_raw_request(i, act) for i, act in enumerate(acts)]
        server = _preloaded_server(
            plan, requests, num_workers=1, max_batch=3,
            retry_policy=None, faults=faults,
        )
        try:
            # The error lands on every member of the claim; none is retried.
            for request in requests:
                with pytest.raises(InjectedFaultError):
                    request.result(timeout=10.0)
                assert request.state == FAILED
            # The worker survived the failed claim and keeps serving.
            act = _activations(1, seed=14)[0]
            assert np.array_equal(
                server.submit(act).result(timeout=10.0),
                plan.layer("layer0").weight @ act,
            )
            health = server.health()
            assert health.alive_workers == 1
            assert health.num_worker_restarts == 0
        finally:
            server.close()
        report = server.report()
        assert report.num_failed == 3
        assert report.num_retried == 0


class TestWorkerSupervision:
    def test_crashed_worker_is_restarted_and_work_recovered(self):
        plan = _plan()
        faults = FaultInjector(plan=FaultPlan(worker_crashes_at={1}))
        activations = _activations(4)
        requests = [_raw_request(i, act) for i, act in enumerate(activations)]
        server = _preloaded_server(
            plan,
            requests,
            num_workers=1,
            max_batch=8,
            retry_policy=FAST_RETRIES,
            faults=faults,
            max_worker_restarts=2,
        )
        try:
            weight = plan.layer("layer0").weight
            for request, activation in zip(requests, activations):
                assert np.array_equal(
                    request.result(timeout=10.0), weight @ activation
                )
            health = server.health()
            assert health.alive_workers == 1
            assert health.num_worker_restarts == 1
            assert health.healthy
            # The worker restarted in its own thread: no other thread serves.
            assert [
                thread.name for thread in threading.enumerate()
                if thread.name.startswith("serving-")
            ] == ["serving-worker-0"]
        finally:
            server.close()
        report = server.report()
        assert report.num_failed == 0
        assert report.num_worker_restarts == 1
        assert faults.stats().worker_crashes == 1

    def test_restart_budget_exhaustion_leaves_survivors_serving(self):
        plan = _plan()
        faults = FaultInjector(plan=FaultPlan(worker_crashes_at={1}))
        activations = _activations(6)
        requests = [_raw_request(i, act) for i, act in enumerate(activations)]
        server = _preloaded_server(
            plan,
            requests,
            num_workers=2,
            max_batch=2,
            retry_policy=FAST_RETRIES,
            faults=faults,
            max_worker_restarts=0,
        )
        try:
            weight = plan.layer("layer0").weight
            for request, activation in zip(requests, activations):
                assert np.array_equal(
                    request.result(timeout=10.0), weight @ activation
                )
            deadline = time.perf_counter() + 5.0
            while (
                server.health().alive_workers > 1
                and time.perf_counter() < deadline
            ):
                time.sleep(0.005)  # the crashed thread finishes unwinding
            health = server.health()
            assert health.alive_workers == 1
            assert health.num_worker_restarts == 0
        finally:
            server.close()
        assert server.report().num_failed == 0

    def test_last_worker_dying_for_good_fails_its_requests_at_close(self):
        # The only worker crashes on its first claim with no restart budget
        # left: it requeues the claim and exits, so close() finds every
        # request still queued and fails it.
        faults = FaultInjector(plan=FaultPlan(worker_crashes_at={1}))
        server = Server(_plan(), num_workers=1, max_batch=2,
                        admission_control=False, faults=faults,
                        max_worker_restarts=0)
        with server:
            handles = server.submit_many(_activations(3))
            deadline = time.perf_counter() + 10.0
            while (server.health().alive_workers
                   and time.perf_counter() < deadline):
                time.sleep(0.005)
            health = server.health()
            assert health.alive_workers == 0 and not health.healthy
            assert health.num_worker_restarts == 0
            assert len(server.queue) == 3
        for handle in handles:
            with pytest.raises(ServingError, match="server closed before"):
                handle.result(timeout=10.0)
            assert handle.state == FAILED
        report = server.report()
        assert report.num_failed == 3
        assert len(handles) == (
            report.num_requests + report.num_expired + report.num_cancelled
            + report.num_shed + report.num_failed
        )
        assert report.num_worker_restarts == 0
        assert server.health().alive_workers == 0
        assert faults.stats().worker_crashes == 1

    @pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_exit_in_a_worker_requeues_its_claim_and_stops_it(self):
        # SystemExit is not a crash: the worker requeues what it holds and
        # stops, using no restart.
        class ExitOnDispatch:
            def on_dispatch(self, worker):
                raise SystemExit

        server = Server(_plan(), num_workers=1, max_batch=2,
                        admission_control=False, faults=ExitOnDispatch())
        with server:
            handle = server.submit(_activations(1)[0])
            deadline = time.perf_counter() + 10.0
            while (server.health().alive_workers
                   and time.perf_counter() < deadline):
                time.sleep(0.005)
            assert server.health().alive_workers == 0
            assert server.health().num_worker_restarts == 0
            assert len(server.queue) == 1 and not handle.done()
        with pytest.raises(ServingError, match="server closed before"):
            handle.result(timeout=10.0)

    def test_health_before_start_and_after_close(self):
        server = Server(_plan(), num_workers=2)
        health = server.health()
        assert not health.started and not health.healthy
        assert health.alive_workers == 0
        assert health.queue_capacity == 128
        server.start()
        assert server.health().healthy
        server.close()
        health = server.health()
        assert health.closed and not health.healthy
        assert health.as_dict()["closed"] is True

    def test_empty_report_is_well_formed(self):
        server = Server(_plan(), num_workers=1)
        report = server.report()  # nothing served, not even started
        assert report.num_requests == 0
        assert report.num_failed == 0
        assert report.throughput_rps == 0.0
        assert report.latency_p99_s == 0.0
        assert report.render()
        assert report.as_dict()["num_requests"] == 0


class TestSeededChaos:
    def test_seeded_chaos_run_is_bit_identical_and_accounted(self):
        """ISSUE 6 acceptance: probabilistic seeded faults, 100% availability."""
        # Two chained layers, so faults land at either stage of a claim.
        workload = synthetic_gemm_workload(num_layers=2, n=10, k=10, m=4, weight_bits=4)
        plan = compile_workload(workload, seed=23, graph="chain")
        faults = FaultInjector(
            engine_fault_rate=0.25,
            latency_rate=0.2,
            latency_s=0.001,
            seed=1234,
        )
        server = Server(
            plan,
            num_workers=2,
            max_batch=4,
            max_pending=64,
            retry_policy=FAST_RETRIES,
            faults=faults,
            max_worker_restarts=4,
        )
        rng = np.random.default_rng(99)
        submitted = []
        with server:
            for index in range(48):
                activation = rng.integers(
                    -32, 32, size=(10, int(rng.integers(1, 3))), dtype=np.int64
                )
                submitted.append((server.submit(activation), activation))
            for request, activation in submitted:
                expected = plan.run_model(activation)
                assert np.array_equal(request.result(timeout=30.0), expected)
        report = server.report()
        assert report.num_model_requests == 48
        assert report.num_requests == 2 * 48  # one record per stage
        assert report.num_failed == 0  # availability: every request completed
        assert report.num_expired == 0 and report.num_cancelled == 0
        stats = faults.stats()
        # Every injected engine fault was absorbed by a retry.
        if stats.engine_faults:
            assert report.num_retried > 0
        assert report.as_dict()["num_retried"] == report.num_retried
