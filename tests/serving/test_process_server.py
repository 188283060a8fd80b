"""End-to-end tests of the process-sharded execution tier.

These spin up real worker processes (``spawn``), so they assert the whole
chain: plan pickling into the child, shared-memory activation/result
transport, bit-identical outputs vs. thread mode, per-shard reporting, and
PR 6's fault guarantees under process execution — a killed worker *process*
is detected, its in-flight batch requeued, and its shard restarted.
"""

import os

import numpy as np
import pytest

from repro.errors import BackpressureError, ServingError
from repro.serving import (
    FaultInjector,
    FaultPlan,
    ProcessWorkerPool,
    Server,
    compile_workload,
)
from repro.workloads import synthetic_gemm_workload


@pytest.fixture(scope="module")
def plan():
    """One layer, served as an implicit one-stage chain."""
    workload = synthetic_gemm_workload(
        num_layers=2, n=24, k=20, m=3, weight_bits=4
    )
    return compile_workload(workload, seed=3, layer_names=["layer0"])


@pytest.fixture(scope="module")
def chain_plan():
    """Two chained layers: every request runs through both stages."""
    workload = synthetic_gemm_workload(
        num_layers=2, n=20, k=20, m=3, weight_bits=4
    )
    return compile_workload(workload, seed=3, graph="chain")


def _activations(plan, count, columns=3, seed=0):
    rng = np.random.default_rng(seed)
    k = plan.layer(plan.layer_names()[0]).shape.k
    return [
        rng.integers(-64, 64, size=(k, columns), dtype=np.int64)
        for _ in range(count)
    ]


class TestProcessExecution:
    def test_process_mode_is_bit_identical_to_thread_mode(self, chain_plan):
        acts = _activations(chain_plan, 12)
        outputs = {}
        for mode in ("threads", "processes"):
            with Server(
                chain_plan, num_workers=2, max_batch=4, execution=mode
            ) as server:
                requests = [server.submit(act) for act in acts]
                outputs[mode] = [r.result(timeout=120.0) for r in requests]
        for act, threaded, sharded in zip(
            acts, outputs["threads"], outputs["processes"]
        ):
            assert np.array_equal(threaded, sharded)
            assert np.array_equal(threaded, chain_plan.run_model(act))

    def test_outputs_match_the_dense_reference(self, plan):
        acts = _activations(plan, 6, seed=1)
        with Server(
            plan, num_workers=1, max_batch=3, execution="processes"
        ) as server:
            requests = [server.submit(act) for act in acts]
            for request, act in zip(requests, acts):
                expected = plan.layer("layer0").weight @ act
                assert np.array_equal(request.result(timeout=120.0), expected)

    def test_oversized_batches_fall_back_to_pickle_transport(self, plan):
        # Slots sized for a single column cannot carry 3-column activations
        # plus outputs, so every batch must take the inline path — and still
        # serve bit-exactly.
        acts = _activations(plan, 4, columns=3, seed=2)
        with Server(
            plan, num_workers=1, max_batch=2, execution="processes",
            max_batch_columns=1,
        ) as server:
            requests = [server.submit(act) for act in acts]
            for request, act in zip(requests, acts):
                expected = plan.layer("layer0").weight @ act
                assert np.array_equal(request.result(timeout=120.0), expected)
        report = server.report()
        assert report.shm_fallbacks > 0

    def test_invalid_execution_mode_is_rejected(self, plan):
        with pytest.raises(ServingError, match="execution"):
            Server(plan, execution="fibers")

    def test_health_and_report_expose_the_process_tier(self, plan):
        acts = _activations(plan, 8, seed=3)
        with Server(
            plan, num_workers=2, max_batch=4, execution="processes"
        ) as server:
            requests = [server.submit(act) for act in acts]
            for request in requests:
                request.result(timeout=120.0)
            health = server.health()
            assert health.execution == "processes"
            assert health.alive_shards == 2
        report = server.report()
        assert report.execution == "processes"
        assert len(report.shards) == 2
        assert sum(shard.batches for shard in report.shards) == report.num_batches
        assert sum(shard.requests for shard in report.shards) == 8
        assert report.compute_s_total > 0.0
        assert report.dispatch_s_total > 0.0
        assert 0.0 < report.compute_fraction < 1.0
        assert report.queue_wait_s_total >= 0.0
        summary = report.as_dict()
        assert summary["execution"] == "processes"
        assert len(summary["shards"]) == 2
        assert {"utilization", "shm_fallbacks"} <= set(summary["shards"][0])

    def test_thread_mode_reports_per_worker_stats_too(self, plan):
        acts = _activations(plan, 8, seed=4)
        with Server(
            plan, num_workers=2, max_batch=4, execution="threads"
        ) as server:
            for act in acts:
                server.submit(act).result(timeout=60.0)
        report = server.report()
        assert report.execution == "threads"
        assert len(report.shards) == 2
        assert sum(shard.batches for shard in report.shards) == report.num_batches
        assert report.shm_fallbacks == 0


class TestProcessFaultTolerance:
    def test_injected_shard_crash_restarts_and_requeues(self, plan):
        faults = FaultInjector(plan=FaultPlan(worker_crashes_at=frozenset({2})))
        acts = _activations(plan, 8, seed=5)
        with Server(
            plan, num_workers=1, max_batch=2, execution="processes",
            faults=faults,
        ) as server:
            requests = [server.submit(act) for act in acts]
            for request, act in zip(requests, acts):
                expected = plan.layer("layer0").weight @ act
                assert np.array_equal(request.result(timeout=120.0), expected)
            assert server.health().num_worker_restarts == 1
        report = server.report()
        assert report.num_failed == 0
        assert sum(shard.restarts for shard in report.shards) == 1
        # The crashed batch went back through the queue, not the oracle.
        assert report.num_degraded == 0

    def test_externally_killed_shard_is_recovered(self, plan):
        # A real SIGKILL (not an injected exit): the parent must detect the
        # dead process mid-batch, requeue, and restart the shard.
        acts = _activations(plan, 6, seed=6)
        with Server(
            plan, num_workers=1, max_batch=2, execution="processes"
        ) as server:
            server._pool._shards[0].process.kill()
            requests = [server.submit(act) for act in acts]
            for request, act in zip(requests, acts):
                expected = plan.layer("layer0").weight @ act
                assert np.array_equal(request.result(timeout=120.0), expected)
        report = server.report()
        assert report.num_failed == 0

    def test_transient_engine_faults_retry_inside_the_shard(self, plan):
        faults = FaultInjector(plan=FaultPlan(engine_faults_at=frozenset({1})))
        acts = _activations(plan, 4, seed=7)
        with Server(
            plan, num_workers=1, max_batch=4, execution="processes",
            faults=faults,
        ) as server:
            requests = [server.submit(act) for act in acts]
            for request in requests:
                request.result(timeout=120.0)
        report = server.report()
        assert report.num_failed == 0
        assert report.num_retried > 0

    def test_crash_cleanup_leaves_no_shared_memory_segments(self, plan):
        faults = FaultInjector(plan=FaultPlan(worker_crashes_at=frozenset({1})))
        acts = _activations(plan, 4, seed=8)
        with Server(
            plan, num_workers=1, max_batch=2, execution="processes",
            faults=faults,
        ) as server:
            requests = [server.submit(act) for act in acts]
            for request in requests:
                request.result(timeout=120.0)
        own = [
            name for name in os.listdir("/dev/shm")
            if name.startswith(f"reproshm_{os.getpid()}_")
        ]
        assert own == []


class TestSubmitMany:
    def test_batch_admission_serves_bit_identically(self, plan):
        acts = _activations(plan, 10, seed=9)
        with Server(plan, num_workers=2, max_batch=4) as server:
            requests = server.submit_many(acts)
            assert [r.request_id for r in requests] == list(range(10))
            for request, act in zip(requests, acts):
                expected = plan.layer("layer0").weight @ act
                assert np.array_equal(request.result(timeout=60.0), expected)

    def test_admission_is_all_or_nothing(self, plan):
        acts = _activations(plan, 6, seed=10)
        server = Server(plan, num_workers=1, max_pending=4)
        # Not started: the queue must stay untouched while we probe admission.
        server._started = True
        with pytest.raises(BackpressureError):
            server.submit_many(acts)
        assert len(server.queue) == 0  # nothing partially admitted
        assert server.queue.rejected == 6  # every member counted
        admitted = server.submit_many(acts[:4])
        assert len(server.queue) == 4
        assert len(admitted) == 4

    def test_validation_failures_admit_nothing(self, plan):
        server = Server(plan, num_workers=1)
        server._started = True
        bad = [np.ones((3, 2), dtype=np.int64)]  # wrong k
        good = _activations(plan, 1, seed=11)
        with pytest.raises(ServingError):
            server.submit_many(good + bad)
        assert len(server.queue) == 0
        with pytest.raises(ServingError):
            server.submit_many([])

    def test_submit_many_under_process_mode(self, chain_plan):
        acts = _activations(chain_plan, 6, seed=12)
        with Server(
            chain_plan, num_workers=2, max_batch=3, execution="processes"
        ) as server:
            requests = server.submit_many(acts)
            for request, act in zip(requests, acts):
                expected = chain_plan.run_model(act)
                assert np.array_equal(request.result(timeout=120.0), expected)


class TestPoolDirectly:
    def test_pool_validates_configuration(self, plan):
        with pytest.raises(ServingError):
            ProcessWorkerPool(plan, num_shards=0)
        with pytest.raises(ServingError):
            ProcessWorkerPool(plan, num_shards=1, max_batch_columns=0)
        pool = ProcessWorkerPool(plan, num_shards=1)
        with pytest.raises(ServingError):
            pool.ensure_shard(3)
        pool.close()
        with pytest.raises(ServingError):
            pool.ensure_shard(0)

    def test_pool_close_is_idempotent_and_stops_shards(self, plan):
        with ProcessWorkerPool(plan, num_shards=1) as pool:
            assert pool.alive_shards() == 1
            result = pool.execute(
                0, "layer0", _activations(plan, 2, seed=13)
            )
            assert result.transport == "shm"
            assert len(result.outputs) == 2
        assert pool.alive_shards() == 0
        pool.close()  # second close: no-op
