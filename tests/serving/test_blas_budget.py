"""The process BLAS thread budget the serving layer owns.

While servers run, BLAS gets ``max(1, usable_cpus // active_workers)``
threads, summed over every started, unclosed server; the count found before
the first server started comes back when the last one closes, however it
closes.  Without an OpenBLAS the budget changes nothing.
"""

import sys
import threading
import time

import numpy as np
import pytest

import repro.serving.server as server_module
from repro.core.blas import BlasBudget, find_openblas, usable_cpus
from repro.errors import ServingError
from repro.serving import Server, compile_workload
from repro.workloads import synthetic_gemm_workload

ORIGINAL_THREADS = 7


class _FakeOpenBLAS:
    """Records every thread count set, like the ctypes control."""

    def __init__(self, threads=ORIGINAL_THREADS):
        self.threads = threads
        self.history = []

    def get(self):
        return self.threads

    def set(self, threads):
        self.threads = threads
        self.history.append(threads)


@pytest.fixture
def fake(monkeypatch):
    """A fake OpenBLAS on an 8-CPU budget installed as the servers' budget."""
    control = _FakeOpenBLAS()
    monkeypatch.setattr(
        server_module, "PROCESS_BUDGET", BlasBudget(find=lambda: control, cpus=lambda: 8)
    )
    return control


def _plan():
    workload = synthetic_gemm_workload(num_layers=1, n=12, k=10, m=4, weight_bits=4)
    return compile_workload(workload, seed=23)


def _act(seed=3):
    return np.random.default_rng(seed).integers(-32, 32, size=(10, 1), dtype=np.int64)


class TestBudget:
    @pytest.mark.parametrize("workers,threads", [(1, 8), (2, 4), (3, 2), (8, 1), (9, 1)])
    def test_threads_are_cpus_over_workers(self, workers, threads):
        control = _FakeOpenBLAS()
        budget = BlasBudget(find=lambda: control, cpus=lambda: 8)
        assert budget.threads is None
        assert budget.acquire(workers) == threads
        assert control.threads == budget.threads == threads
        budget.release(workers)
        assert control.threads == ORIGINAL_THREADS
        assert budget.threads is None

    def test_library_is_searched_once(self):
        searches = []
        budget = BlasBudget(find=lambda: searches.append(1), cpus=lambda: 2)
        for _ in range(3):
            budget.acquire(1)
            budget.release(1)
        assert searches == [1]

    def test_original_is_read_again_after_a_full_release(self):
        control = _FakeOpenBLAS()
        budget = BlasBudget(find=lambda: control, cpus=lambda: 4)
        budget.acquire(2)
        budget.release(2)
        control.threads = 3  # changed by someone else between servers
        budget.acquire(4)
        assert control.threads == 1
        budget.release(4)
        assert control.threads == 3

    def test_concurrent_registrations_keep_the_count(self):
        control = _FakeOpenBLAS()
        budget = BlasBudget(find=lambda: control, cpus=lambda: 8)
        errors = []

        def churn(workers):
            try:
                for _ in range(200):
                    budget.acquire(workers)
                    budget.release(workers)
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn, args=(1 + i % 3,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        # Every count applied came from a whole number of registered workers.
        assert set(control.history) <= {8 // n for n in range(1, 17)} | {1, ORIGINAL_THREADS}
        assert control.threads == ORIGINAL_THREADS
        assert budget.threads is None


class TestServers:
    def test_start_applies_the_budget_and_close_restores(self, fake):
        server = Server(_plan(), num_workers=3)
        assert server.health().blas_threads is None
        server.start()
        assert fake.threads == 2
        assert server.health().blas_threads == 2
        assert server.report().blas_threads == 2
        server.submit(_act()).result(timeout=10.0)
        server.close()
        assert fake.threads == ORIGINAL_THREADS
        # The closed server still shows what it ran with.
        assert server.health().blas_threads == 2
        report = server.report()
        assert report.blas_threads == 2
        assert report.as_dict()["blas_threads"] == 2
        assert server.health().as_dict()["blas_threads"] == 2
        assert "BLAS threads" in report.render()

    def test_overlapping_servers_share_the_budget(self, fake):
        first = Server(_plan(), num_workers=2).start()
        assert fake.threads == 4
        second = Server(_plan(), num_workers=2).start()
        assert fake.threads == 2
        assert first.health().blas_threads == second.health().blas_threads == 2
        for server in (first, second):
            server.submit(_act()).result(timeout=10.0)
        first.close()
        assert fake.threads == 4
        assert second.health().blas_threads == 4
        assert first.health().blas_threads == 2
        second.close()
        assert fake.threads == ORIGINAL_THREADS

    def test_double_close_releases_once(self, fake):
        first = Server(_plan(), num_workers=2).start()
        second = Server(_plan(), num_workers=2).start()
        first.close()
        first.close()
        assert fake.threads == 4
        second.close()
        assert fake.threads == ORIGINAL_THREADS

    def test_unstarted_server_leaves_the_budget_alone(self, fake):
        Server(_plan(), num_workers=2).close()
        assert fake.history == []

    def test_abort_close_restores(self, fake):
        server = Server(_plan(), num_workers=1, max_batch=1).start()
        handles = [server.submit(_act(seed)) for seed in range(6)]
        server.close(drain=False)
        for handle in handles:
            try:
                handle.result(timeout=10.0)
            except ServingError:
                pass
        assert fake.threads == ORIGINAL_THREADS

    def test_force_abort_restores(self, fake):
        server = Server(_plan(), num_workers=1, max_batch=1, max_pending=4)
        release = threading.Event()
        run = server.plan.run

        def wedged(*args):
            release.wait(10.0)
            return run(*args)

        server.plan.run = wedged
        try:
            server.start()
            handle = server.submit(_act())
            deadline = time.perf_counter() + 5.0
            while len(server.queue) and time.perf_counter() < deadline:
                time.sleep(0.001)
            server.close(timeout_s=0.2)
            assert server.report().num_force_aborted == 1
            with pytest.raises(ServingError, match="force-aborted"):
                handle.result(timeout=1.0)
            assert fake.threads == ORIGINAL_THREADS
        finally:
            release.set()

    def test_no_openblas_is_a_no_op(self, monkeypatch):
        searches = []
        monkeypatch.setattr(
            server_module,
            "PROCESS_BUDGET",
            BlasBudget(find=lambda: searches.append(1), cpus=lambda: 8),
        )
        with Server(_plan(), num_workers=2) as server:
            assert server.health().blas_threads is None
            output = server.submit(_act()).result(timeout=10.0)
        assert np.array_equal(output, server.plan.layer("layer0").weight @ _act())
        assert searches == [1]
        report = server.report()
        assert report.blas_threads is None
        assert report.as_dict()["blas_threads"] is None
        assert "not set (no OpenBLAS)" in report.render()


@pytest.mark.skipif(find_openblas() is None, reason="numpy does not use OpenBLAS")
def test_real_openblas_threads_follow_the_servers(monkeypatch):
    # A budget of its own, so servers other tests left running do not count.
    monkeypatch.setattr(server_module, "PROCESS_BUDGET", BlasBudget())
    control = find_openblas()
    before = control.get()
    with Server(_plan(), num_workers=2) as server:
        expected = max(1, usable_cpus() // 2)
        assert control.get() == expected
        assert server.health().blas_threads == expected
        server.submit(_act()).result(timeout=10.0)
    assert control.get() == before
