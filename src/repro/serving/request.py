"""The model request: one handle from ``Server.submit()`` to settle.

A :class:`ModelRequest` is the client's future-style handle for one
activation routed through *every* stage of a compiled model's
:class:`~repro.serving.graph.ModelGraph` (optionally for several
autoregressive decode steps).  It is also the unit the server queues: a
worker claims a batch of model requests, runs their concatenated columns
through every stage back to back, and settles each request once its chain
finishes or stops early.  The submitting thread gets the handle back at once
and blocks on :meth:`ModelRequest.result` only when it needs the output.

Requests are also where the fault-tolerance state machine lives.  Alongside
the ``pending → running → done|failed`` path there are three terminal states
that end a request *without computing it*: ``expired`` (its deadline
elapsed — the queue sheds it before dispatch, or the claim stops it at the
next stage boundary), ``cancelled`` (the client abandoned it via
:meth:`ModelRequest.cancel`) and ``shed`` (the overload-control layer decided
not to spend compute on it — see :meth:`ModelRequest.shed`).  All transitions
go through one per-request lock, so a client cancelling races safely against
a worker claiming: exactly one side wins.  A settled handle keeps only what
its client can still read: each decode step's final output (or the error)
and a few scalars.  It drops its input when it settles and never holds an
intermediate stage output, so a server's memory does not grow with the
handles its clients keep.
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional, Tuple

import numpy as np

from ..errors import DeadlineExceededError, RequestCancelledError, ServingError

#: Request lifecycle states.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
EXPIRED = "expired"
CANCELLED = "cancelled"
SHED = "shed"

#: States a request never leaves.
SETTLED = frozenset({DONE, FAILED, EXPIRED, CANCELLED, SHED})


class ModelRequest:
    """One whole-model request (future-style client handle).

    ``layer`` is the model's first stage, the layer the request enters at.
    """

    def __init__(
        self,
        request_id: int,
        model: str,
        stages: Tuple[str, ...],
        num_steps: int,
        activation: np.ndarray,
        submitted_at: float,
        deadline_at: Optional[float] = None,
        priority: int = 0,
    ) -> None:
        self.request_id = request_id
        self.model = model
        self.stages = stages
        self.num_steps = num_steps
        #: The input, until the request settles.
        self.activation: Optional[np.ndarray] = activation
        #: Activation columns carried by the request.
        self.columns = int(activation.shape[1])
        self.submitted_at = submitted_at
        self.deadline_at = deadline_at
        #: QoS class: 0 is the most urgent lane, larger values are bulk.
        self.priority = priority
        #: Queue bookkeeping: monotonic sequence assigned at first admission,
        #: reused on requeue so recovered work keeps its original EDF/FIFO
        #: position within its lane.
        self.queue_seq: Optional[int] = None
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.retries: int = 0
        self.state = PENDING
        self._output: Optional[np.ndarray] = None
        self._error: Optional[BaseException] = None
        self._step_outputs: List[np.ndarray] = []
        self._cancel_requested = False
        self._state_lock = threading.Lock()
        # Held from construction until the request settles; a waiter takes
        # it and hands it straight back, so every waiter wakes in turn.
        self._settled = threading.Lock()
        self._settled.acquire()

    # ------------------------------------------------------------ client API
    @property
    def layer(self) -> str:
        """The first stage, where the request enters the model."""
        return self.stages[0]

    def done(self) -> bool:
        """Whether the request has reached a terminal state."""
        return self.state in SETTLED

    def expired(self, now: Optional[float] = None) -> bool:
        """Whether the request's deadline has elapsed (``False`` without one)."""
        if self.deadline_at is None:
            return False
        if now is None:
            now = time.perf_counter()
        return now >= self.deadline_at

    def cancel(self) -> bool:
        """Abandon the rest of the pipeline.

        Returns ``True`` if the cancellation takes effect: a queued request
        is cancelled at once, a running one at its next stage boundary (or
        instead of completing).  ``False`` once the request has settled.
        """
        with self._state_lock:
            if self.state in SETTLED:
                return False
            if self.state == RUNNING:
                self._cancel_requested = True
                return True
            self._settle_locked(CANCELLED, self._cancel_error(), time.perf_counter())
            return True

    def result(self, timeout: Optional[float] = None) -> np.ndarray:
        """Block until the last decode step's output is available; return it.

        Raises the worker-side error if the request failed (including
        :class:`~repro.errors.DeadlineExceededError` /
        :class:`~repro.errors.RequestCancelledError` for shed requests), and
        :class:`~repro.errors.ServingError` if ``timeout`` elapses first.
        """
        if self.state not in SETTLED:
            if not self._settled.acquire(
                timeout=-1 if timeout is None else max(timeout, 0.0)
            ):
                raise ServingError(
                    f"request {self.request_id} ('{self.layer}') did not "
                    f"complete within {timeout}s"
                )
            self._settled.release()
        if self._error is not None:
            raise self._error
        assert self._output is not None
        return self._output

    def outputs(self, timeout: Optional[float] = None) -> List[np.ndarray]:
        """Block for completion and return every decode step's final output.

        For ``stream=1`` submissions this is a one-element list; the error
        contract of :meth:`result` (the last step's output) applies.
        """
        self.result(timeout)
        with self._state_lock:
            return list(self._step_outputs)

    @property
    def latency_s(self) -> float:
        """Submit-to-finish wall-clock latency."""
        if self.finished_at is None:
            raise ServingError(f"request {self.request_id} has not finished")
        return self.finished_at - self.submitted_at

    # ------------------------------------------------------------ server API
    def try_claim(self, started_at: float) -> bool:
        """Atomically transition ``pending → running`` for execution.

        Returns ``False`` without claiming when the request was cancelled,
        already terminal, or its deadline has elapsed — in the expired case
        the request is failed here (deadline enforcement's last line of
        defence; the queue normally sheds expired requests earlier).
        """
        with self._state_lock:
            if self.state != PENDING:
                return False
            if self.expired(started_at):
                self._expire_locked(started_at)
                return False
            self.started_at = started_at
            self.state = RUNNING
            return True

    def expire(self, now: float) -> bool:
        """Fail a pending request whose deadline elapsed before dispatch."""
        with self._state_lock:
            if self.state != PENDING:
                return False
            self._expire_locked(now)
        return True

    def _expire_locked(self, now: float) -> None:
        overrun = now - self.deadline_at if self.deadline_at is not None else 0.0
        self._settle_locked(
            EXPIRED,
            DeadlineExceededError(
                f"request {self.request_id} ('{self.layer}') missed its "
                f"deadline by {overrun * 1e3:.1f} ms before dispatch"
            ),
            now,
        )

    def shed(self, error: BaseException, now: Optional[float] = None) -> bool:
        """Terminate the request without computing it (overload shedding).

        Used by the admission controller for a queued request judged doomed
        to miss its deadline at claim time.  The waiting client re-raises
        ``error`` — conventionally a
        :class:`~repro.errors.ShedError` carrying a retry-after hint.
        """
        return self._settle(
            SHED, error, now if now is not None else time.perf_counter()
        )

    def reset_for_retry(self) -> bool:
        """Return a crashed claim's request to ``pending`` for stage 0.

        Used by crash recovery: a worker that died mid-claim leaves its
        requests ``running``; resetting them lets the survivors requeue and
        re-claim the work from the first stage.
        """
        with self._state_lock:
            if self.state in SETTLED:
                return False
            self.state = PENDING
            self.started_at = None
            self._step_outputs = []
            return True

    def fail(self, error: BaseException, finished_at: float) -> bool:
        """Record a worker-side failure and wake the waiting client.

        Returns ``True`` if this call performed the terminal transition,
        ``False`` if the request had already settled (so e.g. a force-abort
        sweep can tell which requests it actually killed).
        """
        return self._settle(FAILED, error, finished_at)

    def _finish_step(self, output: np.ndarray) -> None:
        with self._state_lock:
            self._step_outputs.append(output)

    def _complete(self, finished_at: float) -> bool:
        """Terminal transition once the last step finished; a cancel the
        client asked for meanwhile wins.  Returns whether this call settled
        the request."""
        with self._state_lock:
            if self.state in SETTLED:
                return False
            if self._cancel_requested:
                self._settle_locked(CANCELLED, self._cancel_error(), finished_at)
            else:
                self._output = self._step_outputs[-1]
                self._settle_locked(DONE, None, finished_at)
            return True

    def _cancel_error(self) -> RequestCancelledError:
        return RequestCancelledError(
            f"model request {self.request_id} ('{self.model}') was "
            f"cancelled by the client"
        )

    def _settle(
        self, state: str, error: Optional[BaseException], now: float
    ) -> bool:
        """Terminal transition from any live state; ``False`` if already
        settled (exactly one caller wins)."""
        with self._state_lock:
            if self.state in SETTLED:
                return False
            self._settle_locked(state, error, now)
            return True

    def _settle_locked(
        self, state: str, error: Optional[BaseException], now: float
    ) -> None:
        self._error = error
        self.finished_at = now
        # After the outcome: done() and result() read the state unlocked.
        self.state = state
        self.activation = None
        self._settled.release()
