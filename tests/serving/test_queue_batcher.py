"""RequestQueue admission control / coalescing and the batched stage pass."""

import time

import numpy as np
import pytest

from repro.errors import BackpressureError, ServingError
from repro.serving import ModelRequest, RequestQueue, Server, compile_workload
from repro.serving.request import DONE, Request
from repro.workloads import synthetic_gemm_workload


def _request(request_id, layer, k=6, cols=2):
    activation = np.arange(k * cols, dtype=np.int64).reshape(k, cols)
    return Request(request_id, layer, activation, submitted_at=time.perf_counter())


class TestRequestQueue:
    def test_backpressure_at_capacity(self):
        queue = RequestQueue(max_pending=2)
        queue.put(_request(0, "a"))
        queue.put(_request(1, "a"))
        with pytest.raises(BackpressureError):
            queue.put(_request(2, "a"))
        assert queue.rejected == 1
        assert len(queue) == 2

    def test_next_batch_coalesces_same_layer_and_preserves_fifo(self):
        queue = RequestQueue(max_pending=16)
        for request_id, layer in enumerate(["a", "b", "a", "a", "b", "a"]):
            queue.put(_request(request_id, layer))
        batch = queue.next_batch(max_batch=3)
        # head is request 0 ("a"); the next two "a"s coalesce around the "b"s
        assert [request.request_id for request in batch] == [0, 2, 3]
        # the skipped "b"s (and the leftover "a") keep their relative order
        batch = queue.next_batch(max_batch=3)
        assert [request.request_id for request in batch] == [1, 4]
        batch = queue.next_batch(max_batch=3)
        assert [request.request_id for request in batch] == [5]

    def test_next_batch_times_out_and_close_wakes(self):
        queue = RequestQueue(max_pending=4)
        start = time.perf_counter()
        assert queue.next_batch(max_batch=2, timeout=0.01) is None
        assert time.perf_counter() - start < 1.0
        queue.close()
        assert queue.next_batch(max_batch=2, timeout=10.0) is None
        with pytest.raises(ServingError):
            queue.put(_request(9, "a"))

    def test_invalid_parameters(self):
        with pytest.raises(ServingError):
            RequestQueue(max_pending=0)
        queue = RequestQueue(max_pending=1)
        with pytest.raises(ServingError):
            queue.next_batch(max_batch=0)


class TestMicroBatcher:
    """The batcher's stage primitive as a worker claim drives it."""

    def test_batch_outputs_match_per_request_matmul(self):
        workload = synthetic_gemm_workload(num_layers=2, n=8, k=6, m=4, weight_bits=4)
        plan = compile_workload(workload, seed=3, layer_names=["layer0"])
        requests = [
            ModelRequest(
                i, model="raw", stages=("layer0",), num_steps=1,
                activation=_request(i, "layer0", cols=i + 1).activation,
                submitted_at=time.perf_counter(),
            )
            for i in range(3)
        ]
        server = Server(plan, num_workers=1, max_batch=3)
        for request in requests:
            server.queue.put(request)  # before start: one claim takes all three
        with server.start():
            weight = plan.layer("layer0").weight
            for request in requests:
                assert np.array_equal(
                    request.result(timeout=10.0), weight @ request.activation
                )
        for request in requests:
            assert request.state == DONE
            assert request.batch_size == 3
        report = server.report()
        assert report.num_batches == 1
        assert report.max_batch_size == 3
        assert report.total_columns == 6
