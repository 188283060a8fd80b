"""Request objects exchanged between clients, the queue and the workers.

A request carries one activation matrix bound for one compiled layer; the
server queues its subclass
:class:`~repro.serving.model_request.ModelRequest`, whose layer is the
model's first stage.  The submitting thread gets the request back
immediately (future-style) and blocks on :meth:`Request.result` only when it
needs the output; the worker that executes it fulfils or fails the request
and stamps the timestamps the latency accounting is built from.

Requests are also where the fault-tolerance state machine lives.  Alongside
the original ``pending → running → done|failed`` path there are three
terminal states that end a request *without computing it*: ``expired`` (its
deadline elapsed before dispatch — the queue sheds it, or the worker skips it
at claim time), ``cancelled`` (the client abandoned it via
:meth:`Request.cancel`) and ``shed`` (the overload-control layer decided not
to spend compute on it — see :meth:`Request.shed`).  All transitions go
through one per-request lock, so
a client cancelling races safely against a worker claiming: exactly one side
wins, and work claimed by a worker is never also cancelled.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

import numpy as np

from ..errors import DeadlineExceededError, RequestCancelledError, ServingError
from ..transarray.accelerator import RequestAttribution

#: Request lifecycle states.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
EXPIRED = "expired"
CANCELLED = "cancelled"
SHED = "shed"


class Request:
    """One in-flight activation request against a compiled layer."""

    def __init__(
        self,
        request_id: int,
        layer: str,
        activation: np.ndarray,
        submitted_at: float,
        deadline_at: Optional[float] = None,
        priority: int = 0,
    ) -> None:
        if priority < 0:
            raise ServingError(f"priority must be >= 0, got {priority}")
        self.request_id = request_id
        self.layer = layer
        self.activation = activation
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
        self.batch_size: int = 0
        self.retries: int = 0
        self.attribution: Optional[RequestAttribution] = None
        self.state = PENDING
        self._output: Optional[np.ndarray] = None
        self._error: Optional[BaseException] = None
        self._done = threading.Event()
        self._state_lock = threading.Lock()

    # ------------------------------------------------------------ client API
    @property
    def columns(self) -> int:
        """Activation columns carried by the request."""
        return int(self.activation.shape[1])

    def done(self) -> bool:
        """Whether the request has reached a terminal state."""
        return self._done.is_set()

    def expired(self, now: Optional[float] = None) -> bool:
        """Whether the request's deadline has elapsed (``False`` without one)."""
        if self.deadline_at is None:
            return False
        if now is None:
            now = time.perf_counter()
        return now >= self.deadline_at

    def cancel(self) -> bool:
        """Abandon a still-queued request so it is never computed.

        Returns ``True`` if this call won the race and cancelled the request;
        ``False`` if a worker already claimed it (or it already finished) —
        in that case the request proceeds normally and :meth:`result` stays
        authoritative.
        """
        with self._state_lock:
            if self.state != PENDING:
                return False
            self._settle_locked(
                CANCELLED,
                RequestCancelledError(
                    f"request {self.request_id} ('{self.layer}') was "
                    f"cancelled by the client before execution"
                ),
                time.perf_counter(),
            )
        return True

    def result(self, timeout: Optional[float] = None) -> np.ndarray:
        """Block until the output is available and return it.

        Raises the worker-side error if the request failed (including
        :class:`~repro.errors.DeadlineExceededError` /
        :class:`~repro.errors.RequestCancelledError` for shed requests), and
        :class:`~repro.errors.ServingError` if ``timeout`` elapses first.
        """
        if not self._done.wait(timeout):
            raise ServingError(
                f"request {self.request_id} ('{self.layer}') did not complete "
                f"within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._output is not None
        return self._output

    @property
    def latency_s(self) -> float:
        """Submit-to-finish wall-clock latency."""
        if self.finished_at is None:
            raise ServingError(f"request {self.request_id} has not finished")
        return self.finished_at - self.submitted_at

    @property
    def queue_delay_s(self) -> float:
        """Time spent queued before a worker picked the request up."""
        if self.started_at is None:
            raise ServingError(f"request {self.request_id} has not started")
        return self.started_at - self.submitted_at

    # ------------------------------------------------------------ worker API
    def try_claim(self, started_at: float, batch_size: int) -> bool:
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
            self.batch_size = batch_size
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
        """Return a claimed-but-unexecuted request to ``pending``.

        Used by crash recovery: a worker that died between claiming and
        completing a batch leaves its requests ``running``; resetting them
        lets the survivors requeue and re-claim the work.
        """
        with self._state_lock:
            if self._done.is_set():
                return False
            self.state = PENDING
            self.started_at = None
            self.batch_size = 0
            return True

    def fulfil(self, output: np.ndarray, finished_at: float) -> None:
        """Deliver the output and wake the waiting client."""
        with self._state_lock:
            if self._done.is_set():
                return
            self._output = output
            self._settle_locked(DONE, None, finished_at)

    def fail(self, error: BaseException, finished_at: float) -> bool:
        """Record a worker-side failure and wake the waiting client.

        Returns ``True`` if this call performed the terminal transition,
        ``False`` if the request had already settled (so e.g. a force-abort
        sweep can tell which requests it actually killed).
        """
        return self._settle(FAILED, error, finished_at)

    def _settle(
        self, state: str, error: Optional[BaseException], now: float
    ) -> bool:
        """Terminal transition from any live state; ``False`` if already
        settled (exactly one caller wins)."""
        with self._state_lock:
            if self._done.is_set():
                return False
            self._settle_locked(state, error, now)
            return True

    def _settle_locked(
        self, state: str, error: Optional[BaseException], now: float
    ) -> None:
        self.state = state
        self._error = error
        self.finished_at = now
        self._done.set()
