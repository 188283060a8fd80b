"""Thread-pool serving runtime over a compiled :class:`ModelPlan`.

The server owns the bounded :class:`~repro.serving.queue.RequestQueue`, a pool
of worker threads draining it, and the accounting that becomes
the :class:`~repro.serving.report.ServingReport`.  Clients
:meth:`Server.submit` activations and receive future-style
:class:`~repro.serving.request.ModelRequest` handles; admission control
rejects work beyond ``max_pending`` with
:class:`~repro.errors.BackpressureError`.

Every queued item is a model request, and a worker serves it in **one
claim**: it pops up to ``max_batch`` model requests, concatenates their
columns once, and runs every stage of the plan's
:class:`~repro.serving.graph.ModelGraph` back to back against one snapshot
of the plan — for every decode step of ``stream=`` — before splitting the
output once and settling the requests.  The Transitive Array streams each
GEMM into the next layer the same way, with no round trip through the host
queue between layers.  A single-layer plan without a graph serves as an
implicit one-stage chain.

The claim keeps the fault-tolerance layer at stage granularity:

* **deadlines & cancellation** — ``submit(..., deadline_s=...)`` attaches a
  deadline for the whole chain; expired requests are shed from the queue
  with :class:`~repro.errors.DeadlineExceededError` and never computed, and
  the claim checks deadlines and ``ModelRequest.cancel()`` between stages,
  computing no further stage for a request that stopped;
* **retries** — a stage that fails transiently is retried under the
  :class:`~repro.serving.policy.RetryPolicy` without re-running the stages
  before it; when retries are exhausted (or the failure is not transient)
  every live request of the claim fails with that error and the worker
  goes on serving;
* **worker restarts & health** — a worker whose loop an exception escaped
  requeues its claimed requests from stage 0 and restarts its loop in its
  own thread, up to a restart budget, and :meth:`Server.health` exposes
  live liveness/counter state for monitoring;
* **fault injection** — an optional
  :class:`~repro.serving.faults.FaultInjector` hooks each claim's dispatch
  and each stage's executor pass, powering the chaos test suite.

And on top of the fault-tolerance layer sits the **overload-resilience**
layer:

* **QoS priority lanes** — ``submit(..., priority=...)`` assigns each request
  a priority class; the queue serves lower classes first (EDF within a
  class), so interactive traffic overtakes bulk instead of FIFO-starving;
* **adaptive load shedding** — an
  :class:`~repro.serving.policy.AdmissionController` (default on) sheds
  deadline-doomed work at admission and at claim time and browns out
  low-priority lanes as the queue fills, raising
  :class:`~repro.errors.ShedError` with a retry-after hint;
* **zero-downtime plan swap** — :meth:`Server.swap_plan` waits for in-flight
  claims to finish and installs a shape-compatible new plan (weight update)
  without dropping or reordering a single admitted request; a model request
  runs every stage on one plan, never on a mix of two.

Each stage of a claim is one call of the plan's
:meth:`~repro.serving.plan.ModelPlan.run` on the worker thread, after the
fault injector's per-batch hook: the executor is a float64 BLAS call that
releases the GIL, so worker threads compute in parallel.

Usage::

    plan = compile_workload(
        llama_block_gemms("llama1-7b"), graph="chain"
    )
    with Server(plan, num_workers=2, max_batch=16) as server:
        handles = [
            server.submit(activation=act, deadline_s=5.0) for act in activations
        ]
        outputs = [handle.result(timeout=60.0) for handle in handles]
    print(server.report().render())
"""

from __future__ import annotations

import copy
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..core.blas import PROCESS_BUDGET
from ..exact import as_exact_int64
from ..errors import (
    DeadlineExceededError,
    ServingError,
    SimulationError,
    WorkerCrashError,
)
from .faults import FaultInjector
from .graph import ModelGraph
from .plan import ModelPlan
from .policy import (
    DEFAULT_RETRY_POLICY,
    AdmissionController,
    RetryPolicy,
    deadline_at,
)
from .queue import RequestQueue
from .report import ServingReport, ServingTotals, ShardStats, build_report
from .request import CANCELLED, DONE, EXPIRED, FAILED, SHED, ModelRequest

#: A claim's columns: one matrix, or one per request before the first
#: stage stacks them.
_Columns = Union[np.ndarray, List[np.ndarray]]


@dataclass
class _WorkerSlot:
    """One worker thread of the pool and the claim it holds."""

    index: int
    thread: Optional[threading.Thread] = None
    inflight: Optional[List[ModelRequest]] = None
    # Utilization counters, updated under the server lock with its totals.
    batches: int = 0
    requests: int = 0
    compute_s: float = 0.0
    dispatch_s: float = 0.0

    @property
    def name(self) -> str:
        return f"serving-worker-{self.index}"

    @property
    def alive(self) -> bool:
        return self.thread is not None and self.thread.is_alive()


class _Claim:
    """One worker claim: a batch of model requests run through every stage.

    It holds the live requests in column order, one entry per executor pass
    (the requests it served) and, per request, the stage that stopped it.
    Only the requests the claim itself settles reach the server's totals,
    once, when the claim ends — a request requeued after a crash is counted
    by the claim that settles it.
    """

    def __init__(self, server: "Server", requests: List[ModelRequest]) -> None:
        self.server = server
        # One plan for every stage: swap_plan waits for running claims.
        self.plan = server.plan
        self.live = list(requests)
        #: Per executor pass: layer, queued/started/finished instants,
        #: retries, compute seconds and the requests whose columns it carried.
        self.passes: List[Tuple[str, Optional[float], float, float, int,
                                float, Tuple[ModelRequest, ...]]] = []
        #: Per request settled early: layer, state, queued/started/finished
        #: instants and retries of the stage that stopped it.
        self.stops: Dict[ModelRequest, Tuple[str, str, Optional[float],
                                             Optional[float], float, int]] = {}
        self.settled: List[ModelRequest] = []
        self.compute_s = 0.0

    def run(self) -> None:
        """Every decode step, every stage, until no request is live."""
        layers = self.server._pipeline_graph().layers
        # The first stage pass stacks the inputs, inside its failure handling.
        columns: Optional[_Columns] = [request.activation for request in self.live]
        queued_at: Optional[float] = None
        step = 0
        while self.live:
            for layer in layers:
                columns = self._stop_at_boundary(columns, layer, queued_at)
                if not self.live:
                    return
                columns = self._run_stage(layer, columns, queued_at)
                if columns is None:
                    return
                queued_at = time.perf_counter()
            columns = self._finish_step(columns, step)
            step += 1

    def account(self, totals: ServingTotals) -> None:
        """Add each request the claim settled to ``totals``: its executor
        passes, then the stage that stopped it."""
        for request in self.settled:
            for layer, queued_at, started_at, finished_at, retries, _, members in self.passes:
                if request in members:
                    totals.add_stage(
                        request, layer, DONE, queued_at, started_at, finished_at,
                        retries, self.plan.attribute(layer, request.columns),
                    )
            stop = self.stops.get(request)
            if stop is not None:
                totals.add_stage(request, *stop)
            totals.add_model(request)

    # -------------------------------------------------------------- columns
    def _keep(self, columns: _Columns, keep: List[bool]) -> _Columns:
        """Drop the columns of requests that left the claim."""
        if all(keep):
            return columns
        if isinstance(columns, list):
            columns = [part for part, kept in zip(columns, keep) if kept]
        else:
            columns = columns[:, np.concatenate([
                np.arange(offset, offset + request.columns)
                for request, offset, kept in zip(self.live, self._offsets(), keep)
                if kept
            ] or [np.arange(0)])]
        self.live = [r for r, kept in zip(self.live, keep) if kept]
        return columns

    def _offsets(self) -> List[int]:
        offsets, offset = [], 0
        for request in self.live:
            offsets.append(offset)
            offset += request.columns
        return offsets

    # ------------------------------------------------------------ settling
    def _stop(self, request: ModelRequest, state: str, error: BaseException,
              layer: str, queued_at: Optional[float], started_at: Optional[float],
              retries: int = 0) -> None:
        """Settle ``request`` early at ``layer`` (if nobody settled it yet)."""
        now = time.perf_counter()
        if request._settle(state, error, now):
            self.settled.append(request)
            self.stops[request] = (layer, state, queued_at, started_at, now, retries)

    def _stop_at_boundary(self, columns: _Columns, layer: str,
                          queued_at: Optional[float]) -> _Columns:
        """Before ``layer``: drop requests cancelled, expired or settled elsewhere."""
        now = time.perf_counter()
        keep = []
        for request in self.live:
            if request._cancel_pending():
                self._stop(request, CANCELLED, request._cancel_error(),
                           layer, queued_at, None)
            elif request.expired(now):
                overrun = now - request.deadline_at
                self._stop(request, EXPIRED, DeadlineExceededError(
                    f"model request {request.request_id} ('{request.model}') "
                    f"missed its deadline by {overrun * 1e3:.1f} ms before "
                    f"stage '{layer}'"
                ), layer, queued_at, None)
            keep.append(not request.done())
        return self._keep(columns, keep)

    def _finish_step(self, output: np.ndarray, step: int) -> np.ndarray:
        """Hand each request its step output; settle the ones that are done.

        Returns the next step's input over the requests still live.
        """
        now = time.perf_counter()
        keep = []
        for request, offset in zip(self.live, self._offsets()):
            if request.done():
                keep.append(False)
                continue
            # A copy: a view would pin the whole batch output on the handle.
            request._finish_step(output[:, offset: offset + request.columns].copy())
            more = step + 1 < request.num_steps
            if not more and request._complete(now):
                self.settled.append(request)
            keep.append(more)
        return self._keep(output, keep)

    # --------------------------------------------------------------- stages
    def _run_stage(self, layer: str, activation: _Columns,
                   queued_at: Optional[float]) -> Optional[np.ndarray]:
        """One stage for every live request, under the retry policy.

        ``activation`` holds every live column, or one matrix per request
        for the first stage, which stacks them.  Returns ``None`` when the
        stage failed for good and settled every live request.
        """
        server = self.server
        started_at = time.perf_counter()
        attempt = retries = 0
        while True:
            attempt += 1
            try:
                if isinstance(activation, list):
                    activation = np.concatenate(activation, axis=1)
                # Timed from before the fault hook, so injected latency
                # counts as compute.
                pass_started = time.perf_counter()
                if server.faults is not None:
                    server.faults.on_batch(layer, len(self.live))
                output = self.plan.run(layer, activation)
                compute_s = time.perf_counter() - pass_started
                break
            except WorkerCrashError:
                # Not a stage failure: the worker crash path requeues the
                # claim from stage 0 and restarts the worker.
                raise
            except Exception as error:  # noqa: BLE001 - resilience boundary
                policy = server.retry_policy
                if policy is None or not policy.should_retry(error, attempt):
                    self._stage_failed(layer, error, queued_at, started_at, retries)
                    return None
                retries += 1
                for request in self.live:
                    request.retries += 1
                with server._lock:
                    server._retry_events += len(self.live)
                delay = policy.backoff_s(attempt)
                if delay > 0.0:
                    time.sleep(delay)
        if server.admission is not None:
            server.admission.observe_batch(layer, len(self.live), compute_s)
        finished_at = time.perf_counter()
        self.compute_s += compute_s
        self.passes.append((layer, queued_at, started_at, finished_at, retries,
                            compute_s, tuple(self.live)))
        return output

    def _stage_failed(self, layer: str, error: BaseException,
                      queued_at: Optional[float], started_at: float,
                      retries: int) -> None:
        """A stage that exhausted its retries: every live request fails
        with ``error`` and the claim ends."""
        for request in self.live:
            self._stop(request, FAILED, error, layer, queued_at, started_at, retries)
        self.live = []


@dataclass(frozen=True)
class ServerHealth:
    """Point-in-time liveness and fault-tolerance counters of a server.

    Safe to poll from monitoring code at any moment of the server lifecycle
    (including before :meth:`Server.start` and after :meth:`Server.close`).
    """

    started: bool
    closed: bool
    num_workers: int
    alive_workers: int
    queue_depth: int
    queue_capacity: int
    num_rejected: int
    num_expired: int
    num_cancelled: int
    num_retried: int
    num_worker_restarts: int
    #: Requests shed post-admission (doomed at claim time).
    num_shed: int = 0
    #: Requests shed at admission time (brownout / doomed-at-submit).
    num_admission_shed: int = 0
    #: Zero-downtime plan swaps completed so far.
    num_plan_swaps: int = 0
    #: OpenBLAS threads in force for the server's BLAS calls (live while it
    #: runs, the last value once closed); ``None`` when none were applied.
    blas_threads: Optional[int] = None

    @property
    def healthy(self) -> bool:
        """Accepting work with at least one live worker."""
        return self.started and not self.closed and self.alive_workers > 0

    def as_dict(self) -> Dict[str, object]:
        """JSON-serialisable snapshot for monitoring endpoints."""
        return {
            "healthy": self.healthy,
            "started": self.started,
            "closed": self.closed,
            "num_workers": self.num_workers,
            "alive_workers": self.alive_workers,
            "queue_depth": self.queue_depth,
            "queue_capacity": self.queue_capacity,
            "num_rejected": self.num_rejected,
            "num_expired": self.num_expired,
            "num_cancelled": self.num_cancelled,
            "num_retried": self.num_retried,
            "num_worker_restarts": self.num_worker_restarts,
            "num_shed": self.num_shed,
            "num_admission_shed": self.num_admission_shed,
            "num_plan_swaps": self.num_plan_swaps,
            "blas_threads": self.blas_threads,
        }


class Server:
    """Request-batching, whole-chain inference server over one plan.

    Parameters (all keyword-only past ``plan``)
    ----------
    plan:
        The :class:`~repro.serving.plan.ModelPlan` to serve.  With a
        :class:`~repro.serving.graph.ModelGraph` attached (compiled via
        ``graph=...``), :meth:`submit` runs requests through every stage;
        without one, a one-layer plan serves as an implicit one-stage chain.
    num_workers:
        Worker threads draining the queue (each runs whole claims).
    max_batch:
        Maximum model requests claimed together; their columns run through
        each stage in one executor pass.
    max_pending:
        Admission-control bound on queued requests; submissions beyond it
        raise :class:`~repro.errors.BackpressureError`.
    retry_policy:
        Backoff policy for transient stage failures; ``None`` disables
        retries entirely.  A stage that exhausts its retries, or fails with
        an error that is not transient, fails every live request of its
        claim with that error.
    admission_control:
        Adaptive load shedding: ``True`` (default) installs a default
        :class:`~repro.serving.policy.AdmissionController`, ``False`` turns
        shedding off, or pass a configured controller instance.
    faults:
        Optional :class:`~repro.serving.faults.FaultInjector` for chaos
        testing; the default injects nothing.
    max_worker_restarts:
        Budget of worker restarts over the server's lifetime; defaults to
        ``2 * num_workers``.
    """

    def __init__(
        self,
        plan: ModelPlan,
        *,
        num_workers: int = 2,
        max_batch: int = 8,
        max_pending: int = 128,
        retry_policy: Optional[RetryPolicy] = DEFAULT_RETRY_POLICY,
        admission_control: Union[AdmissionController, bool, None] = True,
        faults: Optional[FaultInjector] = None,
        max_worker_restarts: Optional[int] = None,
    ) -> None:
        if num_workers < 1:
            raise ServingError(f"num_workers must be positive, got {num_workers}")
        if max_batch < 1:
            raise ServingError(f"max_batch must be positive, got {max_batch}")
        if max_worker_restarts is not None and max_worker_restarts < 0:
            raise ServingError(
                f"max_worker_restarts must be >= 0, got {max_worker_restarts}"
            )
        self.plan = plan
        self.num_workers = num_workers
        self.max_batch = max_batch
        self.retry_policy = retry_policy
        self.faults = faults
        self.max_worker_restarts = (
            max_worker_restarts if max_worker_restarts is not None else 2 * num_workers
        )
        if admission_control is True:
            self.admission: Optional[AdmissionController] = AdmissionController()
        elif admission_control is False or admission_control is None:
            self.admission = None
        else:
            self.admission = admission_control
        self.queue = RequestQueue(max_pending)
        self.queue.controller = self.admission
        self._slots: List[_WorkerSlot] = []
        self._restarts_used = 0
        self._lock = threading.Lock()
        self._started = False
        self._closed = False
        self._next_id = 0
        #: Everything report() and health() count, in fixed memory.
        self._totals = ServingTotals()
        self._implicit_graph: Optional[ModelGraph] = None
        self._retry_events = 0
        self._admission_sheds = 0
        self._force_aborted = 0
        self._plan_swaps = 0
        # Plan-swap barrier: workers register running claims as in-flight; a
        # swap drains to inflight == 0 while holding new dispatches out.
        self._swap_cv = threading.Condition()
        self._swap_active = False
        self._inflight_batches = 0
        # Workers registered with the process BLAS budget (0 when not
        # registered) and the last thread count it applied for them.
        self._blas_workers = 0
        self._blas_threads: Optional[int] = None

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "Server":
        """Spin up the worker pool (idempotent until close)."""
        with self._lock:
            if self._closed:
                raise ServingError("server has been closed")
            if self._started:
                return self
            self._started = True
            # Size BLAS against the workers before any of them can call it.
            self._blas_threads = PROCESS_BUDGET.acquire(self.num_workers)
            self._blas_workers = self.num_workers
            # Spawn under the lock so a concurrent close() always sees the
            # full worker list when it snapshots for joining.
            for index in range(self.num_workers):
                slot = _WorkerSlot(index=index)
                slot.thread = threading.Thread(
                    target=self._worker_entry, args=(slot,), name=slot.name,
                    daemon=True,
                )
                slot.thread.start()
                self._slots.append(slot)
        return self

    def close(self, drain: bool = True, timeout_s: Optional[float] = None) -> None:
        """Stop admitting requests and shut the pool down.

        With ``drain=True`` (default) queued requests are still executed
        before the workers exit.  With ``drain=False`` the server aborts:
        still-queued requests are failed promptly with
        :class:`~repro.errors.ServingError` and only the claims already in
        flight finish.  ``timeout_s`` bounds the shutdown either way: if
        workers are still running when it elapses, the server force-aborts:
        still-queued *and* still-in-flight requests are failed (never
        requeued) and counted as ``num_force_aborted`` in the report.
        """
        if timeout_s is not None and timeout_s < 0.0:
            raise ServingError(f"timeout_s must be >= 0, got {timeout_s}")
        with self._lock:
            if self._closed:
                return
            self._closed = True
        try:
            self._shut_down(drain, timeout_s)
        finally:
            # After the workers' last BLAS call, or after a failed shutdown.
            self._release_blas()

    def _release_blas(self) -> None:
        """Return this server's workers to the process BLAS budget."""
        with self._lock:
            workers, self._blas_workers = self._blas_workers, 0
        if workers:
            self._blas_threads = PROCESS_BUDGET.threads
            PROCESS_BUDGET.release(workers)

    def _shut_down(self, drain: bool, timeout_s: Optional[float]) -> None:
        """The body of :meth:`close`, run once by the first caller."""
        self.queue.close()
        aborted: List[ModelRequest] = []
        if not drain:
            now = time.perf_counter()
            aborted = self.queue.drain_pending()
            for request in aborted:
                request.fail(
                    ServingError(
                        f"server closed (drain=False) before request "
                        f"{request.request_id} ('{request.layer}') was executed"
                    ),
                    now,
                )
        # Join each worker once (a crashed worker restarts in its own
        # thread, so no thread is ever replaced), until the deadline fires.
        deadline = time.perf_counter() + timeout_s if timeout_s is not None else None
        for slot in self._slots:
            slot.thread.join(
                None if deadline is None
                else max(deadline - time.perf_counter(), 0.0)
            )
        timed_out = any(slot.alive for slot in self._slots)
        forced: List[ModelRequest] = []
        if timed_out:
            # Give workers that are finishing a claim a moment to settle it,
            # then kill whatever is still held in flight.  Force-abort never
            # requeues: the requests fail with ServingError and are counted.
            grace_until = time.perf_counter() + 0.5
            while any(slot.alive for slot in self._slots):
                if time.perf_counter() >= grace_until:
                    break
                time.sleep(0.005)
            now = time.perf_counter()
            for slot in self._slots:
                inflight, slot.inflight = slot.inflight, None
                for request in inflight or []:
                    if request.fail(
                        ServingError(
                            f"server close(timeout_s={timeout_s}) force-"
                            f"aborted in-flight request {request.request_id} "
                            f"('{request.layer}')"
                        ),
                        now,
                    ):
                        forced.append(request)
        # Account for everything that never reached a worker: requests shed
        # by the queue plus any leftovers a crashed worker requeued after the
        # restart budget ran out.
        leftovers = self.queue.drain_pending()
        now = time.perf_counter()
        for request in leftovers:
            request.fail(
                ServingError(
                    f"server closed before request {request.request_id} "
                    f"('{request.layer}') was executed"
                ),
                now,
            )
        if timed_out:
            with self._lock:
                self._force_aborted += len(forced) + len(leftovers)
        stragglers = aborted + forced + leftovers + self.queue.take_shed()
        if stragglers:
            self._account(stragglers)

    def __enter__(self) -> "Server":
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # ------------------------------------------------------------- plan swap
    def swap_plan(self, new_plan: ModelPlan) -> None:
        """Hot-swap the served plan with zero downtime (weight update).

        The server keeps admitting and queueing requests throughout; only
        *dispatch* pauses while in-flight claims drain to a plan-quiescent
        point, then ``new_plan`` is installed and dispatch resumes.
        No admitted request is dropped or reordered; a claim runs every stage
        of its requests on the plan it started with, so each output is
        exactly one plan's ``run_model``: requests claimed before the swap
        complete against the old plan, everything after runs on the new one.

        ``new_plan`` must be shape-compatible with the served plan (same
        layer names, per-layer dimensions and model graph) so queued
        activations stay valid; anything else raises
        :class:`~repro.errors.ServingError` without disturbing serving.
        Call it from a control thread, never from a worker.
        """
        with self._lock:
            if not self._started:
                raise ServingError("server is not started; call start() first")
            if self._closed:
                raise ServingError("server has been closed")
        self._validate_swap(new_plan)
        with self._swap_cv:
            while self._swap_active:  # serialise concurrent swaps
                self._swap_cv.wait()
            self._swap_active = True
            while self._inflight_batches:
                self._swap_cv.wait()
        try:
            self.plan = new_plan
            with self._lock:
                self._plan_swaps += 1
        finally:
            with self._swap_cv:
                self._swap_active = False
                self._swap_cv.notify_all()

    def _validate_swap(self, new_plan: ModelPlan) -> None:
        """Reject a swap that would invalidate queued work (shape drift)."""
        old_names = list(self.plan.layer_names())
        new_names = list(new_plan.layer_names())
        if old_names != new_names:
            raise ServingError(
                f"swap_plan needs the same layer set: serving {old_names}, "
                f"got {new_names}"
            )
        for name in old_names:
            old_shape = self.plan.layer(name).shape
            new_shape = new_plan.layer(name).shape
            if (old_shape.k, old_shape.n) != (new_shape.k, new_shape.n):
                raise ServingError(
                    f"swap_plan changes layer '{name}' from "
                    f"k={old_shape.k}, n={old_shape.n} to "
                    f"k={new_shape.k}, n={new_shape.n}; queued activations "
                    f"would no longer be servable"
                )
        if self.plan.graph != new_plan.graph:
            raise ServingError(
                "swap_plan needs an identical model graph; recompile the new "
                "plan with the same graph= as the served plan"
            )

    # -------------------------------------------------------------- clients
    def submit(
        self,
        activation: np.ndarray,
        deadline_s: Optional[float] = None,
        *,
        model: Optional[str] = None,
        stream: int = 1,
        priority: int = 0,
    ) -> ModelRequest:
        """Admit one request against the compiled model.

        ``submit(activation)`` runs the activation through every stage of
        the plan's :class:`~repro.serving.graph.ModelGraph` and returns a
        :class:`~repro.serving.request.ModelRequest` handle.
        ``deadline_s`` bounds the whole chain, ``model=`` optionally names
        the plan being targeted (validated), ``stream=N`` runs ``N``
        autoregressive decode steps (step ``t``'s output feeds step
        ``t + 1``; a streamable graph is required), and ``priority=`` picks
        the QoS class (0 = interactive, the default; larger = bulk traffic
        that interactive work overtakes and the admission controller browns
        out first).  The activation's shape and dtype are validated up
        front.  Raises :class:`~repro.errors.BackpressureError`
        when the queue is full and :class:`~repro.errors.ShedError` when the
        admission controller judges the request doomed or browns out its
        priority class.
        """
        return self._admit([activation], deadline_s, model, stream, priority)[0]

    def submit_many(
        self,
        activations: List[np.ndarray],
        deadline_s: Optional[float] = None,
        *,
        model: Optional[str] = None,
        stream: int = 1,
        priority: int = 0,
    ) -> List[ModelRequest]:
        """Admit a batch of requests atomically (all-or-nothing admission).

        One model request per activation, enqueued through a single
        :meth:`~repro.serving.queue.RequestQueue.put_many` call — if the
        batch does not fit under ``max_pending``, nothing is admitted and
        :class:`~repro.errors.BackpressureError` is raised with every member
        counted as rejected.  Returns the handles in submission order.
        """
        activations = list(activations)
        if not activations:
            raise ServingError("submit_many needs at least one activation")
        return self._admit(activations, deadline_s, model, stream, priority)

    def _admit(
        self,
        activations: List[np.ndarray],
        deadline_s: Optional[float],
        model: Optional[str],
        stream: int,
        priority: int,
    ) -> List[ModelRequest]:
        """Validate, shed-check and enqueue model requests as one unit."""
        graph = self._resolve_submit(model, stream, priority)
        with self._lock:
            self._check_accepting()
            first_id = self._next_id
            self._next_id += len(activations)
        submitted_at = time.perf_counter()
        requests = [
            self._make_request(
                first_id + offset, graph, activation, submitted_at,
                deadline_s, stream, priority,
            )
            for offset, activation in enumerate(activations)
        ]
        self._admission_shed_check(requests)
        self.queue.put_many(requests)  # may raise BackpressureError
        return requests

    def _admission_shed_check(self, requests: List[ModelRequest]) -> None:
        """Consult the admission controller before enqueueing new work.

        The requests share one chain, deadline and priority, so the first
        one decides for all; a shed raises the controller's
        :class:`~repro.errors.ShedError`, counted once per request (a
        ``submit_many`` batch sheds as a unit).
        """
        if self.admission is None:
            return
        error = self.admission.admission_check(
            requests[0], time.perf_counter(),
            len(self.queue), self.queue.max_pending,
        )
        if error is not None:
            with self._lock:
                self._admission_sheds += len(requests)
            raise error

    def _pipeline_graph(self) -> ModelGraph:
        """The graph model requests flow through, building the implicit
        single-layer chain when the plan has exactly one layer and no graph."""
        if self.plan.graph is not None:
            return self.plan.graph
        if self._implicit_graph is None:
            names = self.plan.layer_names()
            if len(names) != 1:
                raise ServingError(
                    f"model plan '{self.plan.name}' has {len(names)} layers "
                    f"but no model graph; recompile with graph='chain' (or "
                    f"an explicit ModelGraph) to serve whole-model requests"
                )
            self._implicit_graph = ModelGraph.chain(names)
        return self._implicit_graph

    def _resolve_submit(
        self, model: Optional[str], stream: int, priority: int
    ) -> ModelGraph:
        """Validate model-level submit parameters against the plan; return
        the graph the requests flow through."""
        if stream < 1:
            raise ServingError(f"stream must be >= 1 decode steps, got {stream}")
        if priority < 0:
            raise ServingError(f"priority must be >= 0, got {priority}")
        if model is not None and model != self.plan.name:
            raise ServingError(
                f"this server serves model '{self.plan.name}', not '{model}'"
            )
        graph = self._pipeline_graph()
        if stream > 1:
            first = self.plan.layer(graph.layers[0]).shape
            last = self.plan.layer(graph.layers[-1]).shape
            if last.n != first.k:
                raise ServingError(
                    f"model '{self.plan.name}' is not streamable: the final "
                    f"stage ('{last.name}') produces {last.n}-row outputs but "
                    f"the first stage ('{first.name}') consumes {first.k}-row "
                    f"inputs, so step outputs cannot feed the next step"
                )
        return graph

    def _check_accepting(self) -> None:
        """Reject submissions outside the started-and-open window (locked)."""
        if not self._started:
            raise ServingError("server is not started; call start() first")
        if self._closed:
            raise ServingError("server has been closed")

    def _make_request(
        self,
        request_id: int,
        graph: ModelGraph,
        activation: np.ndarray,
        submitted_at: float,
        deadline_s: Optional[float],
        steps: int,
        priority: int,
    ) -> ModelRequest:
        """Validate one activation and wrap it into a queue-ready request."""
        layer = graph.layers[0]
        k = self.plan.layer(layer).shape.k
        activation = np.asarray(activation)
        if activation.ndim != 2:
            raise ServingError(
                f"activation for layer '{layer}' must be 2-D, got {activation.ndim}-D"
            )
        if activation.shape[0] != k or activation.shape[1] < 1:
            raise ServingError(
                f"activation for layer '{layer}' must be ({k}, m>=1), "
                f"got {activation.shape}"
            )
        try:
            activation = as_exact_int64(activation)
        except SimulationError as error:
            raise ServingError(f"activation for layer '{layer}': {error}") from error
        return ModelRequest(
            request_id=request_id,
            model=self.plan.name,
            stages=graph.layers,
            num_steps=steps,
            activation=activation,
            submitted_at=submitted_at,
            deadline_at=deadline_at(submitted_at, deadline_s),
            priority=priority,
        )

    # -------------------------------------------------------------- workers
    def _worker_entry(self, slot: _WorkerSlot) -> None:
        """Serve until the queue closes and drains.

        When an exception escapes the loop (a worker crash), the restart is
        counted first, then the claim's unsettled requests are requeued from
        stage 0, and the loop restarts in this thread — while the server is
        open and the restart budget lasts; otherwise the worker exits.  An
        interrupt or exit requeues the claim too, then stops the worker.
        """
        while True:
            try:
                self._worker_loop(slot)
                return
            except BaseException as error:  # worker crash path
                crashed = isinstance(error, Exception)
                with self._lock:
                    restart = (crashed and not self._closed
                               and self._restarts_used < self.max_worker_restarts)
                    if restart:
                        self._restarts_used += 1
                inflight, slot.inflight = slot.inflight, None
                revived = [r for r in inflight or [] if r.reset_for_retry()]
                if revived:
                    self.queue.requeue(revived)
                if not crashed:
                    raise
                if not restart:
                    return

    def _worker_loop(self, slot: _WorkerSlot) -> None:
        while True:
            # Block on the queue's condition variable: close() notifies, so
            # shutdown latency is notification-bound, not poll-bound.
            batch = self.queue.next_batch(self.max_batch, timeout=None)
            self._collect_shed()
            if batch is None:
                return
            slot.inflight = batch
            # Plan-swap barrier: register the claim as in-flight so
            # swap_plan() can drain to a plan-quiescent point; a draining
            # swap holds new dispatches here.  The popped batch stays in
            # ``slot.inflight`` meanwhile, so a crash still requeues it,
            # and the finally-decrement keeps the barrier crash-safe.
            with self._swap_cv:
                while self._swap_active:
                    self._swap_cv.wait()
                self._inflight_batches += 1
            try:
                if self.faults is not None:
                    self.faults.on_dispatch(slot.name)  # may raise: worker death
                self._process_batch(slot, batch)
            finally:
                with self._swap_cv:
                    self._inflight_batches -= 1
                    self._swap_cv.notify_all()
            slot.inflight = None

    def _process_batch(self, slot: _WorkerSlot, batch: List[ModelRequest]) -> None:
        """One claim: run the batch through every stage, then account once."""
        claim_time = time.perf_counter()
        # Members that do not claim (expired at claim, cancelled after the
        # pop) settled without a stage; nobody else accounts for them.
        claimed: List[ModelRequest] = []
        unclaimed: List[ModelRequest] = []
        for request in batch:
            ok = request.try_claim(claim_time)
            (claimed if ok else unclaimed).append(request)
        claim = _Claim(self, claimed)
        if claimed and self.admission is not None:
            for request in claimed:
                self.admission.observe_wait(claim_time - request.submitted_at)
        try:
            if claimed:
                claim.run()
        except BaseException:
            # A crash: the requests still live are requeued from stage 0 by
            # the crash path and counted by the claim that settles them.
            self._account(unclaimed, claim)
            raise
        # A claim that ran no request costs its worker nothing.
        self._account(unclaimed, claim, slot if claimed else None,
                      time.perf_counter() - claim_time)

    def _collect_shed(self) -> None:
        shed = self.queue.take_shed()
        if shed:
            self._account(shed)

    # ------------------------------------------------------------ accounting
    def _account(
        self,
        unstaged: List[ModelRequest],
        claim: Optional[_Claim] = None,
        slot: Optional[_WorkerSlot] = None,
        busy_s: float = 0.0,
    ) -> None:
        """Fold settled requests into the totals, once, in one locked update.

        ``unstaged`` requests settled without reaching a stage and count at
        their first one; a claim's settled requests count the stages they
        ran.  With ``slot``, the claim finished: its executor passes and
        ``busy_s`` of worker time count too.
        """
        with self._lock:
            totals = self._totals
            for request in unstaged:
                totals.add_stage(
                    request, request.layer, request.state, None,
                    request.started_at, request.finished_at, request.retries,
                )
                totals.add_model(request)
            if claim is None:
                return
            claim.account(totals)
            if slot is None:
                return
            for layer, _, _, _, _, compute_s, members in claim.passes:
                totals.add_pass(layer, len(members), compute_s,
                                claim.plan.layer(layer).op_counts)
                slot.requests += len(members)
            slot.batches += len(claim.passes)
            slot.compute_s += claim.compute_s
            slot.dispatch_s += max(busy_s - claim.compute_s, 0.0)

    # ------------------------------------------------------------ monitoring
    def health(self) -> ServerHealth:
        """Live liveness and fault-tolerance counters (safe to poll anytime)."""
        with self._lock:
            alive_workers = sum(1 for slot in self._slots if slot.alive)
            restarts = self._restarts_used
            started = self._started
            closed = self._closed
            states = self._totals.states
            expired = states.get(EXPIRED, 0)
            cancelled = states.get(CANCELLED, 0)
            shed = states.get(SHED, 0)
            retried = self._retry_events
            admission_shed = self._admission_sheds
            plan_swaps = self._plan_swaps
        return ServerHealth(
            started=started,
            closed=closed,
            num_workers=self.num_workers,
            alive_workers=alive_workers,
            queue_depth=len(self.queue),
            queue_capacity=self.queue.max_pending,
            num_rejected=self.queue.rejected,
            num_expired=expired,
            num_cancelled=cancelled,
            num_retried=retried,
            num_worker_restarts=restarts,
            num_shed=shed,
            num_admission_shed=admission_shed,
            num_plan_swaps=plan_swaps,
            blas_threads=self._blas_threads_now(),
        )

    def _blas_threads_now(self) -> Optional[int]:
        """BLAS threads in force for this server: the budget's live value
        while registered, else the last value applied for it."""
        with self._lock:
            registered = self._blas_workers > 0
        return PROCESS_BUDGET.threads if registered else self._blas_threads

    # ------------------------------------------------------------ reporting
    def report(self) -> ServingReport:
        """Build the serving report from every request settled so far.

        Well-formed even before any request finishes (all-zero throughput and
        percentiles), so health/monitoring code can poll it safely.  Takes
        one snapshot of the totals and worker counters, so the counts it
        reports always agree with each other.
        """
        with self._lock:
            restarts = self._restarts_used
            totals = copy.deepcopy(self._totals)
            shards = [
                ShardStats(
                    shard=slot.index,
                    batches=slot.batches,
                    requests=slot.requests,
                    compute_s=slot.compute_s,
                    dispatch_s=slot.dispatch_s,
                )
                for slot in self._slots
            ]
            admission_sheds = self._admission_sheds
            plan_swaps = self._plan_swaps
            force_aborted = self._force_aborted
        graph = self.plan.graph or self._implicit_graph
        return build_report(
            self.plan.name,
            totals,
            graph.layers if graph is not None else (),
            num_rejected=self.queue.rejected,
            num_worker_restarts=restarts,
            compile_stats=getattr(self.plan, "compile_stats", None),
            shards=shards,
            num_admission_shed=admission_sheds,
            num_plan_swaps=plan_swaps,
            num_force_aborted=force_aborted,
            blas_threads=self._blas_threads_now(),
        )
