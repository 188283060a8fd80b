"""Overload resilience: QoS lanes, load shedding, swap, force-abort.

The acceptance criteria mirror ISSUE 10: under offered load beyond capacity
the server must keep serving interactive (priority-0) traffic at high goodput
by browning out bulk lanes and shedding deadline-doomed work; ``swap_plan`` must
install new weights with zero dropped requests; and the accounting must
conserve — every admitted request reaches exactly one terminal state and is
counted exactly once, under faults and overload.
"""

import random
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    BackpressureError,
    DeadlineExceededError,
    RequestCancelledError,
    ServingError,
    ShedError,
)
from repro.serving import (
    AdmissionController,
    ArrivalSchedule,
    FaultInjector,
    ModelGraph,
    ModelRequest,
    RequestQueue,
    Server,
    compile_workload,
)
from repro.serving.policy import RetryPolicy
from repro.serving.request import SHED
from repro.workloads import synthetic_gemm_workload

LAYER = "layer0"

#: Retries without sleeps so fault-heavy paths stay fast.
FAST_RETRIES = RetryPolicy(max_attempts=3, backoff_base_s=0.0, backoff_max_s=0.0)


def _plan(seed=23, num_layers=1, k=10, **kwargs):
    workload = synthetic_gemm_workload(
        num_layers=num_layers, n=12, k=k, m=4, weight_bits=4
    )
    return compile_workload(workload, seed=seed, **kwargs)


def _acts(count, k=10, cols=1, seed=3):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(-32, 32, size=(k, cols), dtype=np.int64)
        for _ in range(count)
    ]


def _request(request_id, stages=(LAYER,), deadline_at_=None, priority=0,
             k=10, num_steps=1):
    activation = np.arange(k, dtype=np.int64).reshape(k, 1)
    return ModelRequest(
        request_id,
        "synthetic",
        stages,
        num_steps,
        activation,
        submitted_at=time.perf_counter(),
        deadline_at=deadline_at_,
        priority=priority,
    )


class _Gate:
    """Blocks the served plan's stage passes until released."""

    def __init__(self, server):
        self.event = threading.Event()
        self._original = server.plan.run
        server.plan.run = self._gated

    def _gated(self, *args):
        assert self.event.wait(10.0)
        return self._original(*args)

    def release(self):
        self.event.set()


def _wait_queue_empty(server, timeout=5.0):
    deadline = time.perf_counter() + timeout
    while len(server.queue) and time.perf_counter() < deadline:
        time.sleep(0.001)
    assert len(server.queue) == 0


class TestPriorityLanes:
    def test_higher_priority_lane_served_first(self):
        queue = RequestQueue(max_pending=8)
        bulk = _request(1, priority=2)
        mid = _request(2, priority=1)
        interactive = _request(3, priority=0)
        for request in (bulk, mid, interactive):
            queue.put_many([request])
        assert [queue.next_batch(1)[0] for _ in range(3)] == [
            interactive, mid, bulk
        ]

    def test_edf_within_lane(self):
        queue = RequestQueue(max_pending=8)
        now = time.perf_counter()
        late = _request(1, deadline_at_=now + 100.0)
        early = _request(2, deadline_at_=now + 50.0)
        none = _request(3)  # no deadline sorts after any deadline
        queue.put_many([late])
        queue.put_many([none])
        queue.put_many([early])
        assert [queue.next_batch(1)[0] for _ in range(3)] == [early, late, none]

    def test_fifo_among_deadline_less_requests(self):
        queue = RequestQueue(max_pending=8)
        requests = [_request(index) for index in range(3)]
        for request in requests:
            queue.put_many([request])
        assert [queue.next_batch(1)[0] for _ in range(3)] == requests

    def test_bulk_rides_interactive_batch_not_vice_versa(self):
        queue = RequestQueue(max_pending=8)
        head = _request(1, priority=0)
        bulk = [_request(2, priority=1), _request(3, priority=1)]
        interactive = _request(4, priority=0)
        for request in (*bulk, head, interactive):
            queue.put_many([request])
        # Both interactive requests lead; bulk fills the room they leave and
        # the bulk request that does not fit keeps its lane position.
        assert queue.next_batch(3) == [head, interactive, bulk[0]]
        assert len(queue) == 1
        assert queue.next_batch(3) == [bulk[1]]

    def test_interactive_head_wins_even_against_full_bulk_lane(self):
        queue = RequestQueue(max_pending=8)
        bulk = [_request(index, priority=1) for index in range(3)]
        interactive = _request(9, priority=0)
        for request in bulk:
            queue.put_many([request])
        queue.put_many([interactive])
        # The batch is taken in priority order, not by admission order.
        assert queue.next_batch(2) == [interactive, bulk[0]]
        assert queue.next_batch(4) == bulk[1:]

    def test_requeue_restores_original_position(self):
        queue = RequestQueue(max_pending=8)
        first = _request(1)
        second = _request(2)
        queue.put_many([first])
        queue.put_many([second])
        assert queue.next_batch(1) == [first]
        queue.requeue([first])  # crash recovery keeps the admission sequence
        assert queue.next_batch(1) == [first]
        assert queue.next_batch(1) == [second]

    def test_doomed_request_shed_at_claim_time(self):
        class _AlwaysDoom:
            def claim_check(self, request, now):
                return ShedError("doomed", retry_after_s=0.01)

        queue = RequestQueue(max_pending=8)
        queue.controller = _AlwaysDoom()
        doomed = _request(1, deadline_at_=time.perf_counter() + 100.0)
        queue.put_many([doomed])
        assert queue.next_batch(1, timeout=0.01) is None
        assert doomed.state == SHED
        assert queue.shed_doomed == 1
        assert queue.take_shed() == [doomed]
        with pytest.raises(ShedError):
            doomed.result(timeout=0.1)

    def test_deadline_less_request_never_consults_controller(self):
        class _Exploding:
            def claim_check(self, request, now):  # pragma: no cover
                raise AssertionError("must not be consulted without a deadline")

        queue = RequestQueue(max_pending=8)
        queue.controller = _Exploding()
        request = _request(1)
        queue.put_many([request])
        assert queue.next_batch(1) == [request]


class TestAdmissionController:
    def test_brownout_watermark_schedule(self):
        controller = AdmissionController()
        assert controller.brownout_watermark(0) == 1.0
        assert controller.brownout_watermark(1) == pytest.approx(0.75)
        assert controller.brownout_watermark(2) == pytest.approx(0.50)
        assert controller.brownout_watermark(3) == pytest.approx(0.25)
        assert controller.brownout_watermark(10) == pytest.approx(0.25)  # floor

    def test_parameter_validation(self):
        for kwargs in (
            dict(alpha=0.0), dict(alpha=1.5), dict(min_samples=0),
            dict(headroom=0.0), dict(brownout_step=1.5),
            dict(brownout_floor=0.0),
        ):
            with pytest.raises(ServingError):
                AdmissionController(**kwargs)

    def test_bulk_sheds_at_watermark_interactive_does_not(self):
        controller = AdmissionController()
        now = time.perf_counter()
        # p1 watermark is 75%: depth 75/100 sheds, 74 does not.
        bulk = _request(1, priority=1)
        error = controller.admission_check(bulk, now, 75, 100)
        assert isinstance(error, ShedError)
        assert error.retry_after_s > 0.0
        assert controller.admission_check(bulk, now, 74, 100) is None
        # Priority 0 is only ever limited by the hard admission bound.
        assert controller.admission_check(_request(2), now, 100, 100) is None

    def test_ewma_estimates(self):
        controller = AdmissionController(min_samples=3)
        assert controller.estimate_s(LAYER) is None
        for _ in range(2):
            controller.observe_batches([(LAYER, 2, 0.2)])  # 0.1 s per request
        assert controller.estimate_s(LAYER) is None  # below min_samples
        controller.observe_batches([(LAYER, 2, 0.2)])
        assert controller.estimate_s(LAYER) == pytest.approx(0.1)
        assert controller.estimate_s("other") is None
        controller.observe_wait(1.0)
        assert controller.wait_ewma_s == pytest.approx(0.2)  # alpha = 0.2

    def test_doomed_at_admission_only_once_warm(self):
        cold = AdmissionController(min_samples=3)
        now = time.perf_counter()
        # A cold controller never dooms: behaves like no controller at all.
        tight = _request(1, deadline_at_=now + 0.001)
        assert cold.admission_check(tight, now, 0, 100) is None
        warm = AdmissionController(min_samples=1)
        warm.observe_batches([(LAYER, 1, 0.1)])
        doomed = _request(2, deadline_at_=now + 0.01)
        error = warm.admission_check(doomed, now, 0, 100)
        assert isinstance(error, ShedError)
        assert error.retry_after_s >= 0.1
        roomy = _request(3, deadline_at_=now + 1.0)
        assert warm.admission_check(roomy, now, 0, 100) is None

    def test_claim_check_uses_remaining_budget_only(self):
        controller = AdmissionController(min_samples=1)
        controller.observe_batches([(LAYER, 1, 0.1)])
        now = time.perf_counter()
        doomed = _request(1, deadline_at_=now + 0.01)
        assert isinstance(controller.claim_check(doomed, now), ShedError)
        roomy = _request(2, deadline_at_=now + 1.0)
        assert controller.claim_check(roomy, now) is None
        no_deadline = _request(3)
        assert controller.claim_check(no_deadline, now) is None

    def test_doomed_checks_price_the_whole_chain(self):
        controller = AdmissionController(min_samples=1)
        controller.observe_batches([("layer0", 1, 0.001)])
        now = time.perf_counter()
        # Stage 1 unobserved: no estimate, so no doomed shedding at all.
        cold = _request(1, stages=("layer0", "layer1"), deadline_at_=now + 0.02)
        assert controller.chain_estimate_s(cold) is None
        assert controller.admission_check(cold, now, 0, 100) is None
        controller.observe_batches([("layer1", 1, 0.1)])
        # ~1 ms + ~100 ms of chain cannot fit a 20 ms budget, although
        # stage 0 alone would.
        doomed = _request(2, stages=("layer0", "layer1"), deadline_at_=now + 0.02)
        assert controller.chain_estimate_s(doomed) == pytest.approx(0.101)
        assert isinstance(controller.admission_check(doomed, now, 0, 100), ShedError)
        assert isinstance(controller.claim_check(doomed, now), ShedError)
        # Decode steps multiply the chain.
        streamed = _request(3, stages=("layer0", "layer1"), num_steps=3)
        assert controller.chain_estimate_s(streamed) == pytest.approx(0.303)


_BATCHES = st.lists(st.tuples(
    st.sampled_from(["layer0", "layer1", "layer2"]),
    st.integers(-1, 5),
    st.floats(-0.1, 1.0, allow_nan=False),
), max_size=30)


class TestClaimObservation:
    """The server feeds the controller once per claim; the estimates must
    equal those of one update per executor pass."""

    @settings(max_examples=200, deadline=None)
    @given(_BATCHES, st.sampled_from([0.2, 0.5, 1.0]))
    def test_one_call_equals_the_per_pass_sequence(self, batches, alpha):
        per_pass = AdmissionController(alpha=alpha)
        for batch in batches:
            per_pass.observe_batches([batch])
        per_claim = AdmissionController(alpha=alpha)
        per_claim.observe_batches(batches)
        assert per_claim._compute_ewma_s == per_pass._compute_ewma_s
        assert per_claim._samples == per_pass._samples

    def test_server_observes_every_pass_once_per_claim(self):
        plan = _plan(num_layers=2, k=12, graph="chain")
        calls = []

        class Recording(AdmissionController):
            def observe_batches(self, batches):
                calls.append([(layer, size) for layer, size, _ in batches])
                super().observe_batches(batches)

        controller = Recording(min_samples=1)
        with Server(plan, num_workers=2, max_batch=3,
                    admission_control=controller) as server:
            handles = [server.submit(act, stream=2) for act in _acts(9, k=12)]
            for handle in handles:
                handle.result(timeout=10.0)
        report = server.report()
        # One call per claim, carrying its passes in order: two steps of
        # both stages, each pass over every request of the claim.
        assert len(calls) >= 3
        for call in calls:
            assert [layer for layer, _ in call] == ["layer0", "layer1"] * 2
            assert len({size for _, size in call}) == 1
        assert sum(call[0][1] for call in calls) == 9
        for stage in report.stages:
            assert controller._samples[stage.layer] == stage.batches


class TestRetryPolicySeeding:
    def test_same_seed_same_backoff_schedule(self):
        first = RetryPolicy(seed=7)
        second = RetryPolicy(seed=7)
        schedule = [first.backoff_s(attempt) for attempt in (1, 2, 1, 2, 1)]
        assert schedule == [second.backoff_s(a) for a in (1, 2, 1, 2, 1)]

    def test_different_seeds_diverge(self):
        first = RetryPolicy(seed=7)
        second = RetryPolicy(seed=8)
        assert [first.backoff_s(1) for _ in range(4)] != [
            second.backoff_s(1) for _ in range(4)
        ]

    def test_explicit_rng_overrides_the_policy_stream(self):
        policy = RetryPolicy(seed=7)
        assert policy.backoff_s(2, rng=random.Random(3)) == pytest.approx(
            RetryPolicy(seed=99).backoff_s(2, rng=random.Random(3))
        )

    def test_zero_jitter_is_exact_exponential(self):
        policy = RetryPolicy(
            backoff_base_s=0.01, backoff_multiplier=2.0,
            backoff_max_s=0.05, jitter=0.0,
        )
        assert [policy.backoff_s(a) for a in (1, 2, 3, 4)] == pytest.approx(
            [0.01, 0.02, 0.04, 0.05]
        )


class TestArrivalSchedule:
    def test_poisson_is_seeded_and_sorted(self):
        first = ArrivalSchedule.poisson(rate_rps=100.0, count=20, seed=4)
        again = ArrivalSchedule.poisson(rate_rps=100.0, count=20, seed=4)
        other = ArrivalSchedule.poisson(rate_rps=100.0, count=20, seed=5)
        assert first.offsets_s == again.offsets_s
        assert first.offsets_s != other.offsets_s
        assert first.offsets_s[0] == 0.0
        assert all(b >= a for a, b in zip(first, list(first)[1:]))

    def test_burst(self):
        schedule = ArrivalSchedule.burst(num_bursts=3, burst_size=2, gap_s=0.5)
        assert schedule.offsets_s == (0.0, 0.0, 0.5, 0.5, 1.0, 1.0)
        assert len(schedule) == 6

    def test_validation(self):
        with pytest.raises(ServingError):
            ArrivalSchedule((0.0, -1.0))
        with pytest.raises(ServingError):
            ArrivalSchedule((1.0, 0.5))
        with pytest.raises(ServingError):
            ArrivalSchedule.poisson(rate_rps=5.0, count=0)
        with pytest.raises(ServingError):
            ArrivalSchedule.burst(num_bursts=0, burst_size=1, gap_s=0.1)


class TestServerOverload:
    def test_brownout_sheds_bulk_admission_keeps_interactive(self):
        plan = _plan()
        server = Server(plan, num_workers=1, max_batch=1, max_pending=8)
        gate = _Gate(server)
        act = _acts(1)[0]
        try:
            server.start()
            plug = server.submit(act, priority=0)
            _wait_queue_empty(server)  # the gated worker holds the plug
            bulk = [server.submit(act, priority=1) for _ in range(6)]
            # Depth 6/8 is past the p1 watermark (75%): bulk sheds...
            with pytest.raises(ShedError) as shed_info:
                server.submit(act, priority=1)
            assert shed_info.value.retry_after_s > 0.0
            # ...while interactive traffic is still admitted.
            interactive = server.submit(act, priority=0)
            gate.release()
            expected = plan.layer(LAYER).weight @ act
            for handle in [plug, interactive] + bulk:
                assert np.array_equal(handle.result(timeout=30.0), expected)
        finally:
            gate.release()
            server.close()
        report = server.report()
        assert server.health().num_admission_shed == 1
        assert report.num_admission_shed == 1
        assert report.num_requests == 8
        assert report.num_shed == 0  # everything admitted completed

    def test_interactive_overtakes_queued_bulk(self):
        plan = _plan()
        server = Server(plan, num_workers=1, max_batch=1, max_pending=16)
        gate = _Gate(server)
        act = _acts(1)[0]
        try:
            server.start()
            plug = server.submit(act, priority=0)
            _wait_queue_empty(server)
            bulk = [server.submit(act, priority=2) for _ in range(4)]
            interactive = [server.submit(act, priority=0) for _ in range(2)]
            gate.release()
            for handle in [plug] + bulk + interactive:
                handle.result(timeout=30.0)
        finally:
            gate.release()
            server.close()
        # The single worker drained the p0 lane before touching bulk, even
        # though every bulk request was submitted first.
        assert max(h.finished_at for h in interactive) <= min(
            h.finished_at for h in bulk
        )
        report = server.report()
        assert report.goodput_rps > 0.0
        assert set(report.goodput_by_priority) == {0, 2}
        assert "goodput" in report.render()

    def test_claim_time_doom_sheds_through_the_server(self):
        plan = _plan()
        server = Server(plan, num_workers=1, max_batch=1, max_pending=8,
                        admission_control=False)
        # Attach a pre-warmed controller to the queue only, so the shed can
        # happen nowhere but at batch-claim time.
        controller = AdmissionController(min_samples=1)
        controller.observe_batches([(LAYER, 1, 10.0)])  # "10 s per request"
        server.queue.controller = controller
        act = _acts(1)[0]
        with server:
            handle = server.submit(act, deadline_s=0.5)
            with pytest.raises(ShedError) as shed_info:
                handle.result(timeout=10.0)
        assert shed_info.value.retry_after_s >= 10.0
        report = server.report()
        assert report.num_shed == 1
        assert report.num_admission_shed == 0
        assert server.health().num_shed == 1
        assert "requests shed (overload)" in report.render()

    def test_two_stage_doom_sheds_at_admission_and_claim(self):
        plan = _plan(num_layers=2, k=12, graph="chain")

        def primed():
            controller = AdmissionController(min_samples=1)
            controller.observe_batches([("layer0", 1, 0.001)])  # ~1 ms per request
            controller.observe_batches([("layer1", 1, 0.1)])  # ~100 ms per request
            return controller

        act = np.ones((12, 1), dtype=np.int64)
        # Stage 0 alone fits a 20 ms budget; the chain does not.
        with Server(plan, num_workers=1, admission_control=primed()) as server:
            with pytest.raises(ShedError, match="shed at admission"):
                server.submit(act, deadline_s=0.02)
            assert len(server.queue) == 0
        assert server.report().num_admission_shed == 1
        server = Server(plan, num_workers=1, admission_control=False)
        server.queue.controller = primed()
        with server:
            handle = server.submit(act, deadline_s=0.02)
            with pytest.raises(ShedError, match="shed at claim time"):
                handle.result(timeout=10.0)
        assert server.report().num_shed == 1


class TestAccountingConservation:
    def test_every_admitted_request_is_counted_exactly_once(self):
        plan = _plan()
        faults = FaultInjector(engine_fault_rate=0.15, seed=11)
        server = Server(
            plan, num_workers=2, max_batch=4, max_pending=12,
            retry_policy=FAST_RETRIES, faults=faults,
        )
        acts = _acts(36, seed=29)
        handles = []
        submit_sheds = 0
        submit_rejected = 0
        with server:
            for index, act in enumerate(acts):
                deadline_s = (
                    None if index % 3 == 0
                    else 5.0 if index % 3 == 1
                    else 0.003  # born nearly dead: expires or sheds
                )
                try:
                    handle = server.submit(
                        act, deadline_s=deadline_s, priority=index % 3
                    )
                except ShedError:
                    submit_sheds += 1
                    continue
                except BackpressureError:
                    submit_rejected += 1
                    continue
                if index % 7 == 3:
                    handle.cancel()  # may lose the race: result() decides
                handles.append(handle)
            outcomes = {"done": 0, "expired": 0, "shed": 0,
                        "cancelled": 0, "failed": 0}
            for handle in handles:
                try:
                    handle.result(timeout=60.0)
                    outcomes["done"] += 1
                except DeadlineExceededError:
                    outcomes["expired"] += 1
                except ShedError:
                    outcomes["shed"] += 1
                except RequestCancelledError:
                    outcomes["cancelled"] += 1
                except ServingError:
                    outcomes["failed"] += 1
        report = server.report()
        # Conservation: every admitted request reached exactly one terminal
        # state and the report counted it exactly once.
        accounted = (
            report.num_requests + report.num_failed + report.num_expired
            + report.num_cancelled + report.num_shed
        )
        assert accounted == len(handles)
        assert report.num_requests == outcomes["done"]
        assert report.num_expired == outcomes["expired"]
        assert report.num_shed == outcomes["shed"]
        assert report.num_cancelled == outcomes["cancelled"]
        assert report.num_failed == outcomes["failed"] == 0
        assert report.num_admission_shed == submit_sheds
        assert report.num_rejected == submit_rejected
        assert report.num_force_aborted == 0


class TestPlanSwap:
    def test_mid_traffic_swap_drops_nothing(self):
        served = _plan(seed=23)
        replacement = _plan(seed=23)  # same weights, distinct plan object
        expected = served.layer(LAYER).weight
        acts = _acts(16, seed=41)
        server = Server(served, num_workers=2, max_batch=4, max_pending=64)
        with server:
            before = [server.submit(act) for act in acts[:8]]
            server.swap_plan(replacement)
            after = [server.submit(act) for act in acts[8:]]
            for act, handle in zip(acts, before + after):
                assert np.array_equal(
                    handle.result(timeout=30.0), expected @ act
                )
        report = server.report()
        assert report.num_plan_swaps == 1
        assert server.health().num_plan_swaps == 1
        # Nothing admitted was dropped, failed or re-ordered into an error.
        assert report.num_requests == len(acts)
        assert report.num_failed == 0
        assert "plan swaps (zero-downtime)" in report.render()

    def test_swap_installs_new_weights(self):
        served = _plan(seed=23)
        replacement = _plan(seed=99)  # same shapes, different weights
        old_weight = served.layer(LAYER).weight
        new_weight = replacement.layer(LAYER).weight
        assert not np.array_equal(old_weight, new_weight)
        acts = _acts(10, seed=43)
        server = Server(served, num_workers=2, max_batch=4, max_pending=64)
        with server:
            before = [server.submit(act) for act in acts[:5]]
            server.swap_plan(replacement)
            after = [server.submit(act) for act in acts[5:]]
            # In-flight-at-swap requests legitimately land on either plan
            # (claimed-before-swap runs old, queued-past-swap runs new)...
            for act, handle in zip(acts[:5], before):
                output = handle.result(timeout=30.0)
                assert np.array_equal(output, old_weight @ act) or \
                    np.array_equal(output, new_weight @ act)
            # ...but everything submitted after the swap is new-plan, exactly.
            for act, handle in zip(acts[5:], after):
                assert np.array_equal(
                    handle.result(timeout=30.0), new_weight @ act
                )
        assert server.report().num_plan_swaps == 1

    def test_multi_stage_swap_never_mixes_plans(self):
        # Every output must be one plan's run_model: no request may run its
        # early stages on the old weights and its later ones on the new.
        workload = synthetic_gemm_workload(num_layers=4, n=10, k=10, m=4, weight_bits=4)
        served = compile_workload(workload, seed=23, graph="chain")
        replacement = compile_workload(workload, seed=99, graph="chain")
        acts = _acts(300, seed=61)
        server = Server(served, num_workers=2, max_batch=4, max_pending=512)
        with server:
            handles = server.submit_many(activations=acts)
            deadline = time.perf_counter() + 30.0
            while not handles[0].done() and time.perf_counter() < deadline:
                time.sleep(0.0005)
            server.swap_plan(replacement)
            outputs = [handle.result(timeout=60.0) for handle in handles]
        mixed = [
            index
            for index, (act, output) in enumerate(zip(acts, outputs))
            if not (np.array_equal(output, served.run_model(act))
                    or np.array_equal(output, replacement.run_model(act)))
        ]
        assert mixed == []
        assert server.report().num_plan_swaps == 1

    def test_swap_validation_never_disturbs_serving(self):
        plan = _plan()
        server = Server(plan, num_workers=1, max_batch=2, max_pending=8)
        with server:
            with pytest.raises(ServingError, match="layer set"):
                server.swap_plan(_plan(num_layers=2))
            with pytest.raises(ServingError, match="k=8"):
                server.swap_plan(_plan(k=8))
            with pytest.raises(ServingError, match="graph"):
                server.swap_plan(
                    _plan(graph=ModelGraph.chain([LAYER]))
                )
            act = _acts(1)[0]
            assert np.array_equal(
                server.submit(act).result(timeout=10.0),
                plan.layer(LAYER).weight @ act,
            )
        assert server.report().num_plan_swaps == 0

    def test_swap_requires_a_running_server(self):
        plan = _plan()
        server = Server(plan, num_workers=1)
        with pytest.raises(ServingError, match="not started"):
            server.swap_plan(_plan())
        server.start()
        server.close()
        with pytest.raises(ServingError, match="closed"):
            server.swap_plan(_plan())


class TestForceAbortClose:
    def test_close_timeout_force_aborts_wedged_work(self):
        plan = _plan()
        server = Server(plan, num_workers=1, max_batch=1, max_pending=4)
        gate = _Gate(server)
        act = _acts(1)[0]
        try:
            server.start()
            wedged = server.submit(act)
            _wait_queue_empty(server)  # claimed, now stuck in the gate
            queued = server.submit(act)
            started = time.perf_counter()
            server.close(drain=True, timeout_s=0.3)
            assert time.perf_counter() - started < 5.0
            with pytest.raises(ServingError, match="force-aborted"):
                wedged.result(timeout=1.0)
            with pytest.raises(ServingError):
                queued.result(timeout=1.0)
            report = server.report()
            assert report.num_force_aborted == 2
            assert report.num_failed == 2
            assert "force-aborted at close" in report.render()
        finally:
            gate.release()

    def test_close_timeout_validation(self):
        server = Server(_plan(), num_workers=1)
        with pytest.raises(ServingError, match="timeout_s"):
            server.close(timeout_s=-1.0)
        server.start()
        server.close(timeout_s=5.0)  # a drained close never force-aborts
        assert server.report().num_force_aborted == 0
