"""Deadline propagation, cancellation, and shutdown-latency semantics."""

import threading
import time

import numpy as np
import pytest

from repro.errors import (
    DeadlineExceededError,
    RequestCancelledError,
    ServingError,
)
from repro.serving import ModelRequest, RequestQueue, Server, compile_workload
from repro.serving.policy import RetryPolicy, deadline_at, remaining_s
from repro.serving.request import CANCELLED, EXPIRED
from repro.workloads import synthetic_gemm_workload


def _plan(**kwargs):
    workload = synthetic_gemm_workload(num_layers=2, n=12, k=10, m=4, weight_bits=4)
    return compile_workload(workload, seed=11, layer_names=["layer0"], **kwargs)


def _request(request_id, layer="layer0", k=10, cols=1, deadline_at_=None):
    activation = np.arange(k * cols, dtype=np.int64).reshape(k, cols)
    return ModelRequest(
        request_id,
        "synthetic",
        (layer,),
        1,
        activation,
        submitted_at=time.perf_counter(),
        deadline_at=deadline_at_,
    )


def _chain_plan():
    workload = synthetic_gemm_workload(num_layers=2, n=10, k=10, m=4, weight_bits=4)
    return compile_workload(workload, seed=11, graph="chain")


class _Gate:
    """Blocks the served plan's stage passes until released, recording the
    layer of each pass."""

    def __init__(self, server):
        self.event = threading.Event()
        self.entered = threading.Event()
        self.layers = []
        self._original = server.plan.run
        server.plan.run = self._gated

    def _gated(self, layer, activation):
        self.layers.append(layer)
        self.entered.set()
        assert self.event.wait(10.0)
        return self._original(layer, activation)

    def release(self):
        self.event.set()


class TestDeadlineArithmetic:
    def test_deadline_at_validates_budget(self):
        for bad in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ServingError):
                deadline_at(100.0, bad)
        assert deadline_at(100.0, 2.5) == 102.5
        assert deadline_at(100.0, None) is None

    def test_remaining_s(self):
        assert remaining_s(None, 5.0) == float("inf")
        assert remaining_s(10.0, 7.5) == 2.5
        assert remaining_s(10.0, 12.0) == -2.0

    def test_retry_policy_validation(self):
        with pytest.raises(ServingError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ServingError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(ServingError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ServingError):
            RetryPolicy(backoff_base_s=-0.1)


class TestQueueDeadlines:
    def test_next_batch_sheds_expired_members(self):
        queue = RequestQueue(max_pending=8)
        past = time.perf_counter() - 1.0
        live1 = _request(0)
        expired = _request(1, deadline_at_=past)
        live2 = _request(2)
        for request in (live1, expired, live2):
            queue.put_many([request])
        batch = queue.next_batch(max_batch=3)
        assert [r.request_id for r in batch] == [0, 2]
        assert expired.state == EXPIRED
        assert expired.started_at is None  # never dispatched
        with pytest.raises(DeadlineExceededError):
            expired.result(timeout=0.1)
        assert queue.expired == 1
        shed = queue.take_shed()
        assert shed == [expired]
        assert queue.take_shed() == []  # collected exactly once

    def test_expired_head_is_shed_before_dispatch(self):
        queue = RequestQueue(max_pending=8)
        expired = _request(0, deadline_at_=time.perf_counter() - 1.0)
        queue.put_many([expired])
        assert queue.next_batch(max_batch=2, timeout=0.01) is None
        assert expired.state == EXPIRED

    def test_cancelled_request_is_dropped_not_computed(self):
        queue = RequestQueue(max_pending=8)
        cancelled = _request(0)
        live = _request(1)
        queue.put_many([cancelled])
        queue.put_many([live])
        assert cancelled.cancel() is True
        assert cancelled.cancel() is False  # idempotent loser
        batch = queue.next_batch(max_batch=2)
        assert [r.request_id for r in batch] == [1]
        assert cancelled.state == CANCELLED
        with pytest.raises(RequestCancelledError):
            cancelled.result(timeout=0.1)
        assert queue.cancelled == 1
        assert queue.take_shed() == [cancelled]

    def test_close_wakes_blocked_next_batch_immediately(self):
        queue = RequestQueue(max_pending=4)
        results = {}

        def blocked_worker():
            start = time.perf_counter()
            results["batch"] = queue.next_batch(max_batch=2, timeout=None)
            results["elapsed"] = time.perf_counter() - start

        thread = threading.Thread(target=blocked_worker)
        thread.start()
        time.sleep(0.05)  # let the worker block on the condition
        start = time.perf_counter()
        queue.close()
        thread.join(timeout=2.0)
        assert not thread.is_alive()
        assert results["batch"] is None
        assert time.perf_counter() - start < 0.5  # notification, not polling


class TestServerDeadlines:
    def test_submit_rejects_invalid_deadline(self):
        with Server(_plan(), num_workers=1) as server:
            activation = np.ones((10, 1), dtype=np.int64)
            for bad in (0.0, -2.0, float("inf"), float("nan")):
                with pytest.raises(ServingError):
                    server.submit(activation, deadline_s=bad)

    def test_expired_request_fails_without_being_computed(self):
        plan = _plan()
        server = Server(plan, num_workers=1, max_batch=1)
        gate = _Gate(server)
        activation = np.ones((10, 1), dtype=np.int64)
        try:
            server.start()
            blocker = server.submit(activation)
            deadline = time.perf_counter() + 5.0
            while len(server.queue) and time.perf_counter() < deadline:
                time.sleep(0.001)  # the gated worker holds the first request
            doomed = server.submit(activation, deadline_s=0.01)
            time.sleep(0.05)  # let the deadline lapse while queued
            gate.release()
            with pytest.raises(DeadlineExceededError):
                doomed.result(timeout=10.0)
            assert np.array_equal(
                blocker.result(timeout=10.0),
                plan.layer("layer0").weight @ activation,
            )
        finally:
            gate.release()
            server.close()
        assert doomed.state == EXPIRED
        assert doomed.started_at is None  # never claimed by a worker
        report = server.report()
        assert report.num_requests == 1
        assert report.num_expired == 1
        assert report.num_failed == 0
        assert server.health().num_expired == 1

    def test_cancel_abandons_queued_work(self):
        plan = _plan()
        server = Server(plan, num_workers=1, max_batch=1)
        gate = _Gate(server)
        activation = np.ones((10, 1), dtype=np.int64)
        try:
            server.start()
            blocker = server.submit(activation)
            deadline = time.perf_counter() + 5.0
            while len(server.queue) and time.perf_counter() < deadline:
                time.sleep(0.001)
            victim = server.submit(activation)
            assert victim.cancel() is True
            with pytest.raises(RequestCancelledError):
                victim.result(timeout=1.0)
            gate.release()
            blocker.result(timeout=10.0)
        finally:
            gate.release()
            server.close()
        assert victim.state == CANCELLED
        report = server.report()
        assert report.num_cancelled == 1
        assert report.num_requests == 1
        # a finished request can no longer be cancelled
        assert blocker.cancel() is False

    def test_deadline_passing_during_a_stage_stops_before_the_next(self):
        # The boundary after stage 0 reads the clock when stage 0 finishes,
        # so a deadline that passed while it ran stops the request there.
        server = Server(_chain_plan(), num_workers=1)
        gate = _Gate(server)
        try:
            server.start()
            request = server.submit(np.ones((10, 1), dtype=np.int64), deadline_s=0.05)
            assert gate.entered.wait(5.0)
            time.sleep(0.1)  # the deadline passes inside stage 0
            gate.release()
            with pytest.raises(DeadlineExceededError, match="before stage 'layer1'"):
                request.result(timeout=10.0)
        finally:
            gate.release()
            server.close()
        assert request.state == EXPIRED
        assert gate.layers == ["layer0"]
        report = server.report()
        assert (report.num_requests, report.num_expired) == (1, 1)

    def test_cancel_during_a_stage_stops_at_the_next_boundary(self):
        server = Server(_chain_plan(), num_workers=1)
        gate = _Gate(server)
        try:
            server.start()
            request = server.submit(np.ones((10, 1), dtype=np.int64))
            assert gate.entered.wait(5.0)
            assert request.cancel() is True  # running: takes effect at a boundary
            gate.release()
            with pytest.raises(RequestCancelledError):
                request.result(timeout=10.0)
        finally:
            gate.release()
            server.close()
        assert request.state == CANCELLED
        assert gate.layers == ["layer0"]
        report = server.report()
        assert (report.num_requests, report.num_cancelled) == (1, 1)

    def test_close_abort_fails_queued_requests_promptly(self):
        plan = _plan()
        server = Server(plan, num_workers=1, max_batch=1)
        gate = _Gate(server)
        activation = np.ones((10, 1), dtype=np.int64)
        server.start()
        inflight = server.submit(activation)
        deadline = time.perf_counter() + 5.0
        while len(server.queue) and time.perf_counter() < deadline:
            time.sleep(0.001)
        queued = [server.submit(activation) for _ in range(2)]
        closer = threading.Thread(target=server.close, kwargs={"drain": False})
        closer.start()
        # Queued-but-undispatched requests fail while the in-flight batch is
        # still executing behind the gate: abort does not wait for the drain.
        for request in queued:
            with pytest.raises(ServingError):
                request.result(timeout=5.0)
        gate.release()
        closer.join(timeout=10.0)
        assert not closer.is_alive()
        assert np.array_equal(
            inflight.result(timeout=1.0), plan.layer("layer0").weight @ activation
        )
        report = server.report()
        assert report.num_requests == 1
        assert report.num_failed == 2

    def test_close_returns_quickly_with_idle_blocked_workers(self):
        server = Server(_plan(), num_workers=3)
        server.start()
        time.sleep(0.05)  # workers block on the queue condition
        start = time.perf_counter()
        server.close()
        assert time.perf_counter() - start < 1.0
