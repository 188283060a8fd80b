"""RequestQueue admission control / batch order and share, and the batched
stage pass."""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.executor import FULL_PASS_COLUMNS
from repro.errors import BackpressureError, ServingError, WorkerCrashError
from repro.serving import (
    FaultInjector,
    ModelRequest,
    RequestQueue,
    Server,
    compile_workload,
)
from repro.serving.request import DONE, PENDING
from repro.workloads import synthetic_gemm_workload


def _request(request_id, layer, k=6, cols=2, deadline_at=None, priority=0):
    activation = np.arange(k * cols, dtype=np.int64).reshape(k, cols)
    return ModelRequest(
        request_id, model="raw", stages=(layer,), num_steps=1,
        activation=activation, submitted_at=time.perf_counter(),
        deadline_at=deadline_at, priority=priority,
    )


def _await_takers(queue, count, timeout=10.0):
    """Spin until ``count`` threads are inside ``next_batch``.

    A taker is counted under the queue lock and releases that lock only to
    wait, so a ``put`` made after this returns finds every one of them
    waiting.
    """
    deadline = time.perf_counter() + timeout
    while queue._takers < count:
        assert time.perf_counter() < deadline, "takers never entered next_batch"


def _blocked_takers(queue, count, max_batch):
    """Start ``count`` threads blocked in ``next_batch``; each appends its
    batch to the returned list once it returns."""
    batches = []
    threads = [
        threading.Thread(
            target=lambda: batches.append(queue.next_batch(max_batch, timeout=10.0))
        )
        for _ in range(count)
    ]
    for thread in threads:
        thread.start()
    _await_takers(queue, count)
    return threads, batches


def _joined(threads, batches):
    for thread in threads:
        thread.join(10.0)
        assert not thread.is_alive()
    return sorted(batches, key=lambda batch: batch[0].request_id)


def _lane_key(request):
    """The queue's order: (priority lane, EDF key, admission sequence)."""
    deadline = request.deadline_at if request.deadline_at is not None else float("inf")
    return (request.priority, deadline, request.queue_seq)


#: One queued request: (priority lane, deadline slot or None, fate, wide).
#: Few lanes and deadline slots so ties between keys are common; a wide
#: request fills a pass.
_SPEC = st.tuples(
    st.integers(0, 2),
    st.one_of(st.none(), st.integers(0, 3)),
    st.sampled_from(["live", "live", "cancel", "expire"]),
    st.booleans(),
)


class TestRequestQueue:
    def test_backpressure_at_capacity(self):
        queue = RequestQueue(max_pending=2)
        queue.put_many([_request(0, "a")])
        queue.put_many([_request(1, "a")])
        with pytest.raises(BackpressureError):
            queue.put_many([_request(2, "a")])
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
            queue.put_many([_request(9, "a")])

    @settings(max_examples=200, deadline=None)
    @given(
        specs=st.lists(_SPEC, max_size=24),
        max_batch=st.integers(1, 6),
        others=st.integers(0, 2),
    )
    def test_batches_are_live_requests_in_lane_edf_sequence_order(
        self, specs, max_batch, others
    ):
        now = time.perf_counter()
        queue = RequestQueue(max_pending=64)
        # ``others`` takers count as waiting inside next_batch throughout.
        queue._takers = others
        takers = others + 1
        requests = []
        for request_id, (priority, slot, fate, wide) in enumerate(specs):
            deadline = None if slot is None else now + 100.0 + slot
            if fate == "expire":
                deadline = now - 1.0 - (slot or 0)
            request = _request(
                request_id, "a", cols=FULL_PASS_COLUMNS if wide else 2,
                deadline_at=deadline, priority=priority,
            )
            queue.put_many([request])
            if fate == "cancel":
                assert request.cancel()
            requests.append((request, fate))
        fates = {request: fate for request, fate in requests}
        live = sorted(
            (request for request, fate in requests if fate == "live"), key=_lane_key
        )
        # Model of the queue: every entry in order; a pop takes the next
        # ``max_batch`` live ones, shedding the dead ones it passes, and at
        # most ``ceil(queued / takers)`` when the first live one is wide.
        queued = sorted(fates, key=_lane_key)

        def expected_pop():
            share = -(-len(queued) // takers)
            count = max_batch
            batch = []
            while queued and len(batch) < count:
                request = queued.pop(0)
                if fates[request] != "live":
                    continue
                if not batch and request.columns >= FULL_PASS_COLUMNS:
                    count = min(max_batch, share)
                batch.append(request)
            return batch or None

        if live:
            # Crash recovery puts a claimed batch back at its old position.
            first = queue.next_batch(max_batch, timeout=0)
            assert first == expected_pop()
            queue.requeue(reversed(first))
            queued = sorted(queued + first, key=_lane_key)
        batches = []
        while True:
            share = -(-len(queue) // takers)
            batch = queue.next_batch(max_batch, timeout=0)
            assert batch == expected_pop()
            if batch is None:
                break
            assert len(batch) <= max_batch
            if batch[0].columns >= FULL_PASS_COLUMNS:
                assert len(batch) <= share
            batches.append(batch)
        assert [request for batch in batches for request in batch] == live
        assert queue._takers == others
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


class TestTakerShare:
    """A call whose first request fills a pass pops at most
    ``ceil(queued / takers)`` of the queue; narrower requests batch up to
    ``max_batch``."""

    def test_two_waiting_takers_split_a_pair(self):
        queue = RequestQueue(max_pending=8)
        threads, batches = _blocked_takers(queue, 2, max_batch=16)
        pair = [_request(0, "a", cols=64), _request(1, "a", cols=64)]
        queue.put_many(pair)
        assert _joined(threads, batches) == [[pair[0]], [pair[1]]]
        assert queue._takers == 0

    def test_lone_taker_takes_up_to_max_batch(self):
        queue = RequestQueue(max_pending=8)
        threads, batches = _blocked_takers(queue, 1, max_batch=8)
        requests = [_request(i, "a", cols=FULL_PASS_COLUMNS) for i in range(5)]
        queue.put_many(requests)
        assert _joined(threads, batches) == [requests]
        requests = [_request(i, "a", cols=FULL_PASS_COLUMNS) for i in range(5, 10)]
        queue.put_many(requests)
        assert queue.next_batch(3) == requests[:3]
        assert queue.next_batch(3) == requests[3:]

    def test_two_takers_split_thirty_two_evenly_in_order(self):
        queue = RequestQueue(max_pending=64)
        threads, batches = _blocked_takers(queue, 2, max_batch=64)
        requests = [_request(i, "a", cols=FULL_PASS_COLUMNS) for i in range(32)]
        queue.put_many(requests)
        assert _joined(threads, batches) == [requests[:16], requests[16:]]

    def test_dead_requests_are_shed_and_do_not_count(self):
        queue = RequestQueue(max_pending=8)
        threads, batches = _blocked_takers(queue, 2, max_batch=16)
        wide = FULL_PASS_COLUMNS
        expired = _request(0, "a", cols=wide, deadline_at=time.perf_counter() - 1.0)
        live = [_request(i, "a", cols=wide) for i in (1, 3, 4, 5)]
        cancelled = _request(2, "a", cols=wide)
        assert cancelled.cancel()
        # Queue order: expired (EDF first), live[0], cancelled, live[1:].
        queue.put_many([expired, live[0], cancelled] + live[1:])
        # Six queued, two takers: the first pop takes three live requests.
        assert _joined(threads, batches) == [live[:3], live[3:]]
        assert set(queue.take_shed()) == {expired, cancelled}
        assert (queue.expired, queue.cancelled) == (1, 1)
        assert len(queue) == 0

    def test_narrow_requests_batch_whoever_waits(self):
        queue = RequestQueue(max_pending=16)
        queue._takers = 1  # another taker waits throughout
        narrow = [_request(i, "a", cols=FULL_PASS_COLUMNS - 1) for i in range(6)]
        queue.put_many(narrow)
        assert queue.next_batch(16, timeout=0) == narrow
        # The first request decides: wide ones behind a narrow head ride
        # along up to max_batch, narrow ones behind a wide head do not.
        head = _request(6, "a", cols=1)
        wide = [_request(i, "a", cols=FULL_PASS_COLUMNS) for i in range(7, 10)]
        queue.put_many([head] + wide)
        assert queue.next_batch(16, timeout=0) == [head] + wide
        wide = [_request(i, "a", cols=FULL_PASS_COLUMNS) for i in range(10, 12)]
        narrow = [_request(i, "a", cols=1) for i in range(12, 14)]
        queue.put_many(wide + narrow)
        assert queue.next_batch(16, timeout=0) == wide
        assert queue.next_batch(16, timeout=0) == narrow


class _HeldCrash(FaultInjector):
    """Holds the dispatch of one claim, then crashes its worker."""

    def __init__(self, crash_at):
        super().__init__()
        self.crash_at = crash_at
        self.held = threading.Event()
        self.release = threading.Event()
        self.dispatches = 0
        self._dispatch_lock = threading.Lock()

    def on_dispatch(self, worker):
        with self._dispatch_lock:
            self.dispatches += 1
            index = self.dispatches
        if index == self.crash_at:
            self.held.set()
            assert self.release.wait(10.0)
            raise WorkerCrashError(f"injected crash of worker '{worker}'")


class _HeldPasses:
    """Blocks the served plan's passes until released; ``entered`` counts
    the passes that are blocked."""

    def __init__(self, server):
        self.release = threading.Event()
        self.entered = threading.Semaphore(0)
        self._original = server.plan.run
        server.plan.run = self._held

    def _held(self, layer, activation):
        self.entered.release()
        assert self.release.wait(10.0)
        return self._original(layer, activation)


class TestShareAcrossWorkers:
    """Prompts that arrive while workers wait are split between them."""

    @staticmethod
    def _plan():
        workload = synthetic_gemm_workload(num_layers=2, n=8, k=6, m=4, weight_bits=4)
        return compile_workload(workload, seed=3, layer_names=["layer0"])

    def test_two_prompts_reaching_two_waiting_workers_run_as_two_claims(self):
        plan = self._plan()
        rng = np.random.default_rng(7)
        prompts = [rng.integers(-8, 8, size=(6, 64), dtype=np.int64) for _ in range(2)]
        server = Server(plan, num_workers=2, max_batch=16)
        # Each pass is held until both claims have begun, so a fast worker
        # cannot come back for the second prompt before the other wakes.
        passes = _HeldPasses(server)
        with server:
            _await_takers(server.queue, 2)
            handles = server.submit_many(prompts)
            for _ in prompts:
                assert passes.entered.acquire(timeout=10.0)
            passes.release.set()
            weight = plan.layer("layer0").weight.astype(np.int64)
            for handle, prompt in zip(handles, prompts):
                assert np.array_equal(handle.result(timeout=10.0), weight @ prompt)
        report = server.report()
        assert report.num_batches == 2
        assert report.mean_batch_size == 1.0
        assert [(shard.batches, shard.requests) for shard in report.shards] == [
            (1, 1), (1, 1)
        ]

    def test_crashed_workers_requeued_claim_is_split_across_waiting_workers(self):
        # Two workers hold single-prompt claims, so the third claims the pair
        # alone; it crashes once both others wait again.  Its requeue lands
        # on two waiting workers (the crashed one requeues before it takes
        # again), so the pair runs as two claims.
        plan = self._plan()
        faults = _HeldCrash(crash_at=3)
        rng = np.random.default_rng(8)
        prompts = [rng.integers(-8, 8, size=(6, 64), dtype=np.int64) for _ in range(4)]
        server = Server(plan, num_workers=3, max_batch=16, faults=faults,
                        max_worker_restarts=1)
        passes = _HeldPasses(server)
        with server:
            _await_takers(server.queue, 3)
            first = server.submit_many(prompts[:1])
            assert passes.entered.acquire(timeout=10.0)
            second = server.submit_many(prompts[1:2])
            assert passes.entered.acquire(timeout=10.0)
            _await_takers(server.queue, 1)
            pair = server.submit_many(prompts[2:])
            assert faults.held.wait(10.0)
            passes.release.set()
            _await_takers(server.queue, 2)
            faults.release.set()
            weight = plan.layer("layer0").weight.astype(np.int64)
            for handle, prompt in zip(first + second + pair, prompts):
                assert np.array_equal(handle.result(timeout=10.0), weight @ prompt)
            assert server.health().num_worker_restarts == 1
        report = server.report()
        assert report.num_failed == 0
        # Four single-prompt claims: the pair never ran together.
        assert report.num_batches == 4
        assert report.max_batch_size == 1


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
            server.queue.put_many([request])  # before start: one claim takes all three
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
