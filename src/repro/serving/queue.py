"""Bounded request queue with QoS priority lanes and EDF batch formation.

Admission control is the queue's job: :meth:`RequestQueue.put_many` never
blocks — when the queue is full it raises
:class:`~repro.errors.BackpressureError` so the client sheds load instead of
piling unbounded latency onto every request behind it.

Queued work is organised into **priority lanes**: one lane per QoS class
(``ModelRequest.priority``; 0 is the most urgent, larger values are bulk).
*Within* a lane requests are ordered earliest-deadline-first (EDF); requests
without a deadline keep strict FIFO order among themselves (submission
sequence breaks deadline ties, so a lane with no deadlines degenerates to the
classic FIFO queue).  Workers drain the queue through
:meth:`RequestQueue.next_batch`, which has one batch rule: the next live
requests in (priority lane, EDF key, admission sequence) order, at most
``max_batch`` of them and, when the first of them fills a pass
(:data:`~repro.core.executor.FULL_PASS_COLUMNS` columns or more), at most
the caller's *share* of the queue, ``ceil(queued / takers)``.  The takers
are the threads inside :meth:`next_batch`, waiting or woken but not yet
returned, so prompts that arrive while two workers wait are split between
them instead of one worker claiming them all while the other idles.
Narrower requests batch up to ``max_batch`` whoever waits: their passes
get cheaper per column the more columns they carry.  Interactive traffic
overtakes bulk traffic instead of FIFO-starving behind it, and bulk work
fills whatever room an interactive batch leaves.  Every request enters at
the model's first stage, so any of them batch together.

Deadline enforcement happens at dispatch: while scanning for a batch,
:meth:`next_batch` *sheds* every already-expired request it encounters —
failing it with :class:`~repro.errors.DeadlineExceededError` so the waiting
client unblocks immediately — and silently drops requests the client already
cancelled.  When an :class:`~repro.serving.policy.AdmissionController` is
attached, the same scan also sheds requests that are *doomed* — still live
but with less deadline budget left than the controller's compute estimate
for their whole chain — with :class:`~repro.errors.ShedError`, so the engine
never burns compute on work that cannot meet its deadline.  Shed requests are
parked on an internal list the server collects through :meth:`take_shed` for
accounting; none of them ever reaches the engine.  :meth:`close` wakes every
blocked :meth:`next_batch` waiter under the condition variable, so worker
shutdown is notification-driven rather than poll-driven.
"""

from __future__ import annotations

import threading
import time
from bisect import insort
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.executor import FULL_PASS_COLUMNS
from ..errors import BackpressureError, ServingError
from .request import ModelRequest

#: Lane entry: (deadline key, admission sequence, request).  ``inf`` stands
#: for "no deadline", so EDF ordering degrades to FIFO (by sequence) when no
#: request in the lane carries one.
_Entry = Tuple[float, int, ModelRequest]


class RequestQueue:
    """Thread-safe bounded queue of pending :class:`ModelRequest` objects."""

    def __init__(self, max_pending: int) -> None:
        if max_pending < 1:
            raise ServingError(f"max_pending must be positive, got {max_pending}")
        self.max_pending = max_pending
        self._lanes: Dict[int, List[_Entry]] = {}
        self._size = 0
        self._seq = 0
        self._condition = threading.Condition()
        self._closed = False
        #: Threads inside :meth:`next_batch`, waiting or woken.
        self._takers = 0
        self._shed: List[ModelRequest] = []
        #: Optional :class:`~repro.serving.policy.AdmissionController`; when
        #: set, the dispatch scan sheds deadline-doomed requests through it.
        self.controller = None
        self.rejected = 0
        self.expired = 0
        self.cancelled = 0
        #: Requests shed as deadline-doomed at batch-claim time.
        self.shed_doomed = 0

    # ------------------------------------------------------------- internals
    def _insert(self, request: ModelRequest) -> None:
        """Place a request into its lane at its EDF position (lock held)."""
        if request.queue_seq is None:
            self._seq += 1
            request.queue_seq = self._seq
        key = request.deadline_at if request.deadline_at is not None else float("inf")
        lane = self._lanes.setdefault(request.priority, [])
        insort(lane, (key, request.queue_seq, request))
        self._size += 1

    # -------------------------------------------------------------- client
    def put_many(self, requests: List[ModelRequest]) -> None:
        """Admit a batch of requests atomically, taking the lock once.

        All-or-nothing admission: either the whole batch fits under
        ``max_pending`` and every request is enqueued, or nothing is admitted
        and :class:`BackpressureError` is raised with every member counted as
        rejected.  A client submitting a prompt's worth of activations either
        gets the full batch queued or can shed/retry it as one unit — it
        never has to track which half made it in.
        """
        with self._condition:
            if self._closed:
                raise ServingError("request queue is closed")
            if not requests:
                return
            if self._size + len(requests) > self.max_pending:
                self.rejected += len(requests)
                raise BackpressureError(
                    f"request queue cannot admit a batch of {len(requests)} "
                    f"({self._size}/{self.max_pending} pending); "
                    f"retry after the backlog drains"
                )
            for request in requests:
                self._insert(request)
            self._condition.notify(len(requests))

    def requeue(self, requests: Iterable[ModelRequest]) -> None:
        """Return admitted-but-unexecuted requests to their queue positions.

        Crash recovery: a dead worker's in-flight batch goes back in at its
        original EDF/FIFO position (each request keeps its first admission
        sequence) so survivors re-serve it in its original order.  The
        requests were already admitted once, so this bypasses the admission
        bound and works even on a closed (draining) queue.
        """
        with self._condition:
            for request in requests:
                self._insert(request)
            self._condition.notify_all()

    # -------------------------------------------------------------- worker
    def next_batch(
        self, max_batch: int, timeout: Optional[float] = None
    ) -> Optional[List[ModelRequest]]:
        """Pop the next batch of up to ``max_batch`` requests, waiting up to
        ``timeout`` for the first.

        Returns ``None`` when the wait times out or the queue is closed and
        drained.  The batch is the next live requests in (priority lane, EDF
        key, admission sequence) order, at most ``max_batch`` of them; when
        the first has ``FULL_PASS_COLUMNS`` columns or more, also at most
        ``ceil(queued / takers)``, where the takers are the threads inside
        this method, this one included.  Expired, cancelled and
        deadline-doomed requests encountered on the way are shed (see module
        docstring), never returned, and do not count toward the batch.
        """
        if max_batch < 1:
            raise ServingError(f"max_batch must be positive, got {max_batch}")
        with self._condition:
            self._takers += 1
            try:
                while True:
                    batch = self._pop_live(max_batch) if self._size else None
                    if batch:
                        return batch
                    if self._closed:
                        return None
                    if not self._condition.wait(timeout):
                        return None
            finally:
                self._takers -= 1

    def _pop_live(self, max_batch: int) -> List[ModelRequest]:
        """Pop the next live requests in priority order, shedding the dead
        ones on the way (lock held): at most ``max_batch``, and at most the
        caller's share of the queue when the first fills a pass."""
        now = time.perf_counter()
        share = -(-self._size // self._takers)
        count = max_batch
        batch: List[ModelRequest] = []
        for priority in sorted(p for p, lane in self._lanes.items() if lane):
            lane = self._lanes[priority]
            while lane and len(batch) < count:
                request = lane.pop(0)[2]
                self._size -= 1
                if self._shed_if_dead(request, now):
                    continue
                if not batch and request.columns >= FULL_PASS_COLUMNS:
                    count = min(max_batch, share)
                batch.append(request)
        return batch

    def _shed_if_dead(self, request: ModelRequest, now: float) -> bool:
        """Shed a cancelled/expired/doomed request; holds the condition lock."""
        if request.done():
            # Cancelled (or otherwise finished) while queued: the client was
            # already woken, so only account for it and drop it.
            self.cancelled += 1
            self._shed.append(request)
            return True
        if request.expired(now) and request.expire(now):
            self.expired += 1
            self._shed.append(request)
            return True
        if self.controller is not None and request.deadline_at is not None:
            error = self.controller.claim_check(request, now)
            if error is not None and request.shed(error, now):
                self.shed_doomed += 1
                self._shed.append(request)
                return True
        return False

    def take_shed(self) -> List[ModelRequest]:
        """Hand the accumulated shed requests to the caller (and forget them)."""
        if not self._shed:  # unlocked: a shed added meanwhile waits for the next call
            return []
        with self._condition:
            shed = self._shed
            self._shed = []
            return shed

    def drain_pending(self) -> List[ModelRequest]:
        """Remove and return every queued request (abortive shutdown)."""
        with self._condition:
            drained: List[ModelRequest] = []
            for priority in sorted(self._lanes):
                drained.extend(entry[2] for entry in self._lanes[priority])
                self._lanes[priority] = []
            self._size = 0
            return drained

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Refuse new requests and wake every waiting worker immediately."""
        with self._condition:
            self._closed = True
            self._condition.notify_all()

    def __len__(self) -> int:
        with self._condition:
            return self._size
