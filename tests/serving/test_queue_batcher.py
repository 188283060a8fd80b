"""RequestQueue admission control / batch order and the batched stage pass."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BackpressureError, ServingError
from repro.serving import ModelRequest, RequestQueue, Server, compile_workload
from repro.serving.request import DONE, PENDING
from repro.workloads import synthetic_gemm_workload


def _request(request_id, layer, k=6, cols=2, deadline_at=None, priority=0):
    activation = np.arange(k * cols, dtype=np.int64).reshape(k, cols)
    return ModelRequest(
        request_id, model="raw", stages=(layer,), num_steps=1,
        activation=activation, submitted_at=time.perf_counter(),
        deadline_at=deadline_at, priority=priority,
    )


#: One queued request: (priority lane, deadline slot or None, fate).  Few
#: lanes and deadline slots so ties between keys are common.
_SPEC = st.tuples(
    st.integers(0, 2),
    st.one_of(st.none(), st.integers(0, 3)),
    st.sampled_from(["live", "live", "cancel", "expire"]),
)


class TestRequestQueue:
    def test_backpressure_at_capacity(self):
        queue = RequestQueue(max_pending=2)
        queue.put(_request(0, "a"))
        queue.put(_request(1, "a"))
        with pytest.raises(BackpressureError):
            queue.put(_request(2, "a"))
        assert queue.rejected == 1
        assert len(queue) == 2

    def test_next_batch_times_out_and_close_wakes(self):
        queue = RequestQueue(max_pending=4)
        start = time.perf_counter()
        assert queue.next_batch(max_batch=2, timeout=0.01) is None
        assert time.perf_counter() - start < 1.0
        queue.close()
        assert queue.next_batch(max_batch=2, timeout=10.0) is None
        with pytest.raises(ServingError):
            queue.put(_request(9, "a"))

    @settings(max_examples=200, deadline=None)
    @given(specs=st.lists(_SPEC, max_size=24), max_batch=st.integers(1, 6))
    def test_batches_are_live_requests_in_lane_edf_sequence_order(
        self, specs, max_batch
    ):
        now = time.perf_counter()
        queue = RequestQueue(max_pending=64)
        requests = []
        for request_id, (priority, slot, fate) in enumerate(specs):
            deadline = None if slot is None else now + 100.0 + slot
            if fate == "expire":
                deadline = now - 1.0 - (slot or 0)
            request = _request(
                request_id, "a", deadline_at=deadline, priority=priority
            )
            queue.put(request)
            if fate == "cancel":
                assert request.cancel()
            requests.append((request, fate))
        live = sorted(
            (request for request, fate in requests if fate == "live"),
            key=lambda r: (
                r.priority,
                r.deadline_at if r.deadline_at is not None else float("inf"),
                r.queue_seq,
            ),
        )
        chunks = [live[i: i + max_batch] for i in range(0, len(live), max_batch)]
        if chunks:
            # Crash recovery puts a claimed batch back at its old position.
            first = queue.next_batch(max_batch, timeout=0)
            assert first == chunks[0]
            queue.requeue(reversed(first))
        batches = []
        while True:
            batch = queue.next_batch(max_batch, timeout=0)
            if batch is None:
                break
            batches.append(batch)
        assert batches == chunks
        # No settled request ever comes out.
        assert all(r.state == PENDING for batch in batches for r in batch)
        dead = {request for request, fate in requests if fate != "live"}
        assert set(queue.take_shed()) == dead
        assert queue.cancelled == sum(fate == "cancel" for _, fate in requests)
        assert queue.expired == sum(fate == "expire" for _, fate in requests)
        assert len(queue) == 0

    def test_invalid_parameters(self):
        with pytest.raises(ServingError):
            RequestQueue(max_pending=0)
        queue = RequestQueue(max_pending=1)
        with pytest.raises(ServingError):
            queue.next_batch(max_batch=0)


class TestClaimBatch:
    """One worker claim runs a batch's concatenated columns in one pass."""

    def test_batch_outputs_match_per_request_matmul(self):
        workload = synthetic_gemm_workload(num_layers=2, n=8, k=6, m=4, weight_bits=4)
        plan = compile_workload(workload, seed=3, layer_names=["layer0"])
        requests = [_request(i, "layer0", cols=i + 1) for i in range(3)]
        # A settled request drops its input: keep our own.
        inputs = [request.activation for request in requests]
        server = Server(plan, num_workers=1, max_batch=3)
        for request in requests:
            server.queue.put(request)  # before start: one claim takes all three
        with server.start():
            weight = plan.layer("layer0").weight
            for request, activation in zip(requests, inputs):
                assert np.array_equal(
                    request.result(timeout=10.0), weight @ activation
                )
        for request in requests:
            assert request.state == DONE
        report = server.report()
        assert report.num_batches == 1
        assert report.max_batch_size == 3
        assert report.total_columns == 6
