"""Serving in fixed memory: the totals a report is built from.

The server folds each settled request into counters and log-bucketed
histograms instead of keeping per-request records, and a settled handle
keeps only its output.  These tests pin the histogram's 1 % bound, the
bounded growth of a long-running server, the handle's settle latch, exact
counts across every terminal outcome, and that a report polled mid-run is
one consistent snapshot.
"""

import gc
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    DeadlineExceededError,
    InjectedFaultError,
    RequestCancelledError,
    ServingError,
    ShedError,
)
from repro.serving import (
    AdmissionController,
    FaultInjector,
    FaultPlan,
    ModelRequest,
    Server,
    compile_workload,
)
from repro.serving.report import LatencyHistogram
from repro.serving.request import RUNNING
from repro.transarray import TransitiveArrayAccelerator
from repro.workloads import synthetic_gemm_workload

LAYER = "layer0"


def _plan(num_layers=1, seed=7, **kwargs):
    workload = synthetic_gemm_workload(num_layers=num_layers, n=8, k=8, m=4, weight_bits=4)
    return compile_workload(workload, seed=seed, **kwargs)


def _act(cols=1, seed=0):
    return np.random.default_rng(seed).integers(-8, 8, size=(8, cols), dtype=np.int64)


class _Gate:
    """Holds every stage pass of the served plan until released."""

    def __init__(self, server):
        self.event = threading.Event()
        self._run = server.plan.run
        server.plan.run = self._gated

    def _gated(self, *args):
        assert self.event.wait(10.0)
        return self._run(*args)


class TestLatencyHistogram:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=1e-7, max_value=1e4), min_size=1, max_size=300))
    def test_percentiles_within_one_percent_of_the_rank_sample(self, samples):
        histogram = LatencyHistogram()
        for sample in samples:
            histogram.add(sample)
        for q in (50.0, 95.0, 99.0):
            lower = np.percentile(samples, q, method="lower")
            higher = np.percentile(samples, q, method="higher")
            assert 0.99 * lower <= histogram.percentile(q) <= 1.01 * higher
        assert histogram.count == len(samples)
        assert histogram.mean == sum(samples) / len(samples)

    def test_empty_and_degenerate_samples(self):
        histogram = LatencyHistogram()
        assert histogram.percentile(50.0) == histogram.mean == 0.0
        for value in (0.0, 0.0):
            histogram.add(value)
        assert histogram.percentile(99.0) == 0.0  # clamped to the sample range
        same = LatencyHistogram()
        for _ in range(5):
            same.add(0.25)
        assert same.percentile(50.0) == same.percentile(99.0) == 0.25


    def test_weighted_add_equals_repeated_adds(self):
        weighted, repeated = LatencyHistogram(), LatencyHistogram()
        for value, count in ((0.002, 3), (0.5, 1), (0.01, 4)):
            weighted.add(value, count)
            for _ in range(count):
                repeated.add(value)
        assert weighted.counts == repeated.counts
        assert weighted.count == repeated.count == 8
        assert weighted.total == pytest.approx(repeated.total, rel=1e-15)
        for q in (50.0, 95.0, 99.0):
            assert weighted.percentile(q) == repeated.percentile(q)


class TestBoundedMemory:
    def test_server_memory_stops_growing_with_traffic(self):
        plan = _plan(num_layers=2, graph="chain")
        act = _act()

        def serve(count):
            for _ in range(count):
                server.submit(act).result(timeout=10.0)

        def retained():
            gc.collect()
            return tracemalloc.get_traced_memory()[0]

        tracemalloc.start()
        try:
            with Server(plan, num_workers=1, max_batch=4) as server:
                serve(200)
                before = retained()
                serve(2000)
                after = retained()
        finally:
            tracemalloc.stop()
        assert server.report().num_model_requests == 2200
        assert after - before < 64 * 1024

    def test_memory_stops_growing_across_request_widths(self):
        """Modeled cost is priced per layer, so serving a new request width
        leaves nothing behind."""
        plan = _plan(num_layers=2, graph="chain",
                     accelerator=TransitiveArrayAccelerator(samples_per_gemm=2))

        def serve(widths):
            for width in widths:
                server.submit(_act(cols=width)).result(timeout=10.0)

        def retained():
            gc.collect()
            return tracemalloc.get_traced_memory()[0]

        tracemalloc.start()
        try:
            with Server(plan, num_workers=1, max_batch=4) as server:
                serve([1, 2, 3, 4] * 50)
                before = retained()
                serve(range(5, 605))
                after = retained()
        finally:
            tracemalloc.stop()
        report = server.report()
        assert report.num_model_requests == 800
        assert report.attributed_cycles is not None
        assert after - before < 64 * 1024


class TestSettleLatch:
    def test_concurrent_waiters_get_the_same_output(self):
        server = Server(_plan(), num_workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with server:
                gate = _Gate(server)
                handle = server.submit(_act(cols=2))
                results = []
                waiters = [
                    threading.Thread(
                        target=lambda: results.append(handle.result(timeout=10.0))
                    )
                    for _ in range(8)
                ]
                for waiter in waiters:
                    waiter.start()
                gate.event.set()
                for waiter in waiters:
                    waiter.join(10.0)
                    assert not waiter.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 8
        assert all(result is results[0] for result in results)

    def test_result_times_out_on_a_pending_handle(self):
        server = Server(_plan(), num_workers=1)
        with server:
            gate = _Gate(server)
            handle = server.submit(_act())
            with pytest.raises(ServingError, match="did not complete"):
                handle.result(timeout=0.01)
            assert not handle.done()
            gate.event.set()
            handle.result(timeout=10.0)

    def test_done_flips_exactly_at_settle(self):
        request = ModelRequest(0, "raw", (LAYER,), 1, _act(cols=3), time.perf_counter())
        output = np.zeros((8, 3), dtype=np.int64)
        assert not request.done()
        assert request.try_claim(time.perf_counter())
        request._finish_step(output)
        assert not request.done()  # a step output alone does not settle it
        assert request._complete(time.perf_counter())
        assert request.done()
        assert request.result(timeout=0.0) is output
        # The settled handle dropped its input but still knows its width.
        assert request.activation is None
        assert request.columns == 3
        cancelled = ModelRequest(1, "raw", (LAYER,), 1, _act(), time.perf_counter())
        assert cancelled.cancel() and cancelled.done()
        with pytest.raises(RequestCancelledError):
            cancelled.result(timeout=0.0)


class TestAccountingAcrossOutcomes:
    def test_report_counts_equal_client_tallies(self):
        """Done, expired, cancelled, shed and failed: every count exact."""
        # The fourth stage pass fails and nothing retries it.
        faults = FaultInjector(plan=FaultPlan(engine_faults_at={4}))
        server = Server(_plan(), num_workers=1, max_batch=1, retry_policy=None,
                        admission_control=False, faults=faults)
        # A queue-only controller priced at 10 s per request sheds a 5 s
        # deadline at claim time, nowhere else.
        controller = AdmissionController(min_samples=1)
        controller.observe_batches([(LAYER, 1, 10.0)])
        server.queue.controller = controller
        with server:
            gate = _Gate(server)
            blocker = server.submit(_act())  # holds the worker: hook call 1
            deadline = time.perf_counter() + 10.0
            while blocker.state != RUNNING and time.perf_counter() < deadline:
                time.sleep(0.001)
            assert blocker.state == RUNNING
            expired = server.submit(_act(), deadline_s=0.01)
            shed = server.submit(_act(), deadline_s=5.0)
            done = [server.submit(_act(seed=s)) for s in (1, 2)]  # hook calls 2, 3
            cancelled = server.submit(_act())
            failed = server.submit(_act())  # hook call 4
            assert cancelled.cancel()
            time.sleep(0.05)  # past the 10 ms deadline
            gate.event.set()
            handles = [blocker, expired, shed, *done, cancelled, failed]
            tallies = dict.fromkeys(("done", "expired", "cancelled", "shed", "failed"), 0)
            for handle in handles:
                try:
                    handle.result(timeout=10.0)
                    tallies["done"] += 1
                except DeadlineExceededError:
                    tallies["expired"] += 1
                except RequestCancelledError:
                    tallies["cancelled"] += 1
                except ShedError:
                    tallies["shed"] += 1
                except InjectedFaultError:
                    tallies["failed"] += 1
        assert tallies == {"done": 3, "expired": 1, "cancelled": 1, "shed": 1, "failed": 1}
        assert [expired.state, shed.state, failed.state] == ["expired", "shed", "failed"]
        report = server.report()
        assert report.num_requests == report.num_model_requests == tallies["done"]
        assert report.num_expired == tallies["expired"]
        assert report.num_cancelled == tallies["cancelled"]
        assert report.num_shed == tallies["shed"]
        assert report.num_failed == tallies["failed"]
        assert report.num_model_failed == len(handles) - tallies["done"]
        assert len(handles) == (
            report.num_requests + report.num_expired + report.num_cancelled
            + report.num_shed + report.num_failed
        )
        health = server.health()
        assert (health.num_expired, health.num_cancelled, health.num_shed) == (1, 1, 1)
        # Only the three passes that succeeded ran a batch.
        assert report.num_batches == 3
        assert sum(shard.batches for shard in report.shards) == 3
        assert report.requests_per_layer == {LAYER: 3}


class TestModeledCost:
    """Each layer's passes and columns are priced once, by the plan they ran on."""

    LAYERS = ("layer0", "layer1")

    @staticmethod
    def _accelerated(seed=7):
        # Profiled at m=5 columns: a column's share of the cycles is fractional.
        workload = synthetic_gemm_workload(num_layers=2, n=8, k=8, m=5, weight_bits=4)
        return compile_workload(workload, seed=seed, graph="chain",
                                accelerator=TransitiveArrayAccelerator(samples_per_gemm=2, seed=1))

    @classmethod
    def _charges(cls, plan, columns):
        return [plan.accelerator.attribute_request(plan.layer(name).profile, columns)
                for name in cls.LAYERS]

    @classmethod
    def _ops(cls, plan, passes):
        first, second = (plan.layer(name).op_counts.repeated(passes) for name in cls.LAYERS)
        return first.merge(second)

    @staticmethod
    def _serve(server, widths):
        handles = server.submit_many([_act(cols=w, seed=i) for i, w in enumerate(widths)])
        for handle in handles:
            handle.result(timeout=10.0)

    def test_cost_is_priced_from_per_layer_totals(self):
        plan = self._accelerated()
        with Server(plan, num_workers=1, max_batch=4) as server:
            self._serve(server, (1, 2, 3, 5, 7, 2))
        report = server.report()
        assert report.requests_per_layer == {"layer0": 6, "layer1": 6}
        charges = self._charges(plan, 20)  # every column rides both layers
        # One ceil per layer over its 20 columns; one per request gave 676.
        assert report.attributed_cycles == sum(c.cycles for c in charges) == 672
        assert report.attributed_energy.total_nj == pytest.approx(
            sum(c.energy.total_nj for c in charges), rel=1e-12)
        assert [stage.batches for stage in report.stages] == [2, 2]
        assert report.op_counts == self._ops(plan, 2)

    def test_swap_prices_each_plan_by_its_own_profile(self):
        served, replacement = self._accelerated(seed=23), self._accelerated(seed=99)
        # The weights differ, so the plans price the same columns differently.
        old, new = (sum(c.energy.total_nj for c in self._charges(plan, 10))
                    for plan in (served, replacement))
        assert abs(old - new) > 1e-6 * old
        assert self._ops(served, 1) != self._ops(replacement, 1)
        server = Server(served, num_workers=1, max_batch=4)
        with server:
            self._serve(server, (3, 3, 3, 3))  # one pass per layer
            server.swap_plan(replacement)
            self._serve(server, (2, 2, 2, 2, 2))  # two passes per layer
        report = server.report()
        assert report.num_plan_swaps == 1
        assert [stage.batches for stage in report.stages] == [3, 3]
        charges = self._charges(served, 12) + self._charges(replacement, 10)
        assert report.attributed_cycles == sum(c.cycles for c in charges)
        assert report.attributed_energy.total_nj == pytest.approx(
            sum(c.energy.total_nj for c in charges), rel=1e-12)
        assert report.op_counts == self._ops(served, 1).merge(self._ops(replacement, 2))


class TestSnapshot:
    def test_mid_run_report_is_one_snapshot(self):
        """A report polled while a claim is being accounted agrees with itself."""
        server = Server(_plan(num_layers=2, graph="chain"), num_workers=1)
        entered, release = threading.Event(), threading.Event()
        account = server._account

        def held_account(*args, **kwargs):
            entered.set()
            assert release.wait(10.0)
            account(*args, **kwargs)

        server._account = held_account
        with server:
            handle = server.submit(_act())
            assert entered.wait(10.0)
            report = server.report()
            assert sum(shard.batches for shard in report.shards) == report.num_batches
            assert report.compute_s_total == sum(stage.compute_s for stage in report.stages)
            release.set()
            handle.result(timeout=10.0)
        report = server.report()
        assert report.num_batches == sum(shard.batches for shard in report.shards) == 2
