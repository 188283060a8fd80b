"""Deadline arithmetic, retry policy and admission control.

The purely-functional / small-state pieces of the fault-tolerance and
overload-resilience layers live here so they can be unit-tested (and reasoned
about) without a running server:

* :func:`deadline_at` / :func:`remaining_s` — per-request deadlines are stored
  as absolute ``time.perf_counter()`` instants, computed once at submission;
* :class:`RetryPolicy` — capped exponential backoff with jitter, applied by
  the server around each stage of a claim, retrying only
  :class:`~repro.errors.TransientServingError` failures (anything else would
  deterministically fail again, so it fails the claim at once);
* :class:`AdmissionController` — EWMA queue-wait and per-layer compute
  estimates driving adaptive load shedding: deadline-doomed requests are shed
  at admission and at batch-claim time, and low-priority lanes brown out
  progressively as the queue fills, each shed carrying a retry-after hint in
  its :class:`~repro.errors.ShedError`.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from math import isfinite
from typing import Dict, Optional, Sequence, Tuple

from ..errors import ServingError, ShedError, TransientServingError


def deadline_at(submitted_at: float, deadline_s: Optional[float]) -> Optional[float]:
    """Absolute deadline instant for a request submitted at ``submitted_at``.

    ``None`` means no deadline.  A non-positive or non-finite budget is a
    client error: it could never be met, so reject it at submission instead
    of charging the queue with work that is born dead.
    """
    if deadline_s is None:
        return None
    deadline_s = float(deadline_s)
    if not isfinite(deadline_s) or deadline_s <= 0.0:
        raise ServingError(
            f"deadline_s must be a positive finite number of seconds, "
            f"got {deadline_s!r}"
        )
    return submitted_at + deadline_s


def remaining_s(deadline: Optional[float], now: float) -> float:
    """Seconds left until ``deadline`` (``inf`` when there is none)."""
    if deadline is None:
        return float("inf")
    return deadline - now


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with jitter for transient stage failures.

    Parameters
    ----------
    max_attempts:
        Total execution attempts per stage of a claim, including the first.
    backoff_base_s:
        Sleep before the first retry; attempt ``n`` waits
        ``backoff_base_s * backoff_multiplier**(n-1)``, capped.
    backoff_multiplier:
        Exponential growth factor between consecutive retries.
    backoff_max_s:
        Upper bound on any single backoff sleep.
    jitter:
        Fractional jitter ``j``: each sleep is scaled by a uniform factor in
        ``[1-j, 1+j]`` so synchronized workers do not retry in lockstep.
    seed:
        Seed of the policy's private jitter stream.  Each policy instance
        draws from its own ``random.Random(seed)``, so a chaos run seeded
        end-to-end (:class:`~repro.serving.faults.FaultInjector` seed plus
        this one) reproduces its exact backoff schedule.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.002
    backoff_multiplier: float = 2.0
    backoff_max_s: float = 0.05
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ServingError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base_s < 0.0 or self.backoff_max_s < 0.0:
            raise ServingError("backoff durations must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ServingError(
                f"backoff_multiplier must be >= 1, got {self.backoff_multiplier}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ServingError(f"jitter must be in [0, 1], got {self.jitter}")
        # Not a dataclass field: the jitter stream is per-instance mutable
        # state, excluded from equality/hashing/repr on purpose.
        object.__setattr__(self, "_rng", random.Random(self.seed))

    @staticmethod
    def is_transient(error: BaseException) -> bool:
        """Whether ``error`` is worth retrying at all."""
        return isinstance(error, TransientServingError)

    def should_retry(self, error: BaseException, attempt: int) -> bool:
        """Whether to re-execute after ``attempt`` attempts failed with ``error``."""
        return attempt < self.max_attempts and self.is_transient(error)

    def backoff_s(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Sleep before retry number ``attempt`` (1-based, jittered).

        The jitter factor is drawn from ``rng`` when given, otherwise from
        the policy's own seeded stream.
        """
        if attempt < 1:
            raise ServingError(f"attempt must be >= 1, got {attempt}")
        delay = min(
            self.backoff_base_s * self.backoff_multiplier ** (attempt - 1),
            self.backoff_max_s,
        )
        if self.jitter:
            draw = rng if rng is not None else self._rng
            delay *= 1.0 + self.jitter * (2.0 * draw.random() - 1.0)
        return max(delay, 0.0)


#: Policy the server applies when the caller does not pass one.
DEFAULT_RETRY_POLICY = RetryPolicy()


class AdmissionController:
    """Adaptive load shedding from EWMA queue-wait and compute estimates.

    The controller watches what the server actually measures — per-layer
    engine-pass seconds per request (:meth:`observe_batches`, once per
    claim) and queue wait (:meth:`observe_wait`) — and turns the estimates
    into two shedding decisions, both *conservative by construction*: a
    request whose chain has a layer with fewer than ``min_samples``
    observations is never shed as doomed, so a cold server behaves exactly
    like one without a controller.

    * **doomed shedding** — a request whose remaining deadline budget is
      smaller than the expected cost of serving it cannot succeed; admitting
      (or claiming) it only wastes compute that deadline-meeting requests
      needed.  The compute is the whole chain's: every stage, every decode
      step.  At admission the expected cost is queue wait + compute; at
      claim time the wait is already paid, so only compute counts.
    * **priority brownout** — as the queue fills past per-class watermarks,
      lower-priority lanes are shed first: class ``p >= 1`` sheds when the
      queue is ``max(brownout_floor, 1 - brownout_step * p)`` full, while
      class 0 is only ever limited by the hard admission bound.  Load
      degrades the bulk lanes progressively instead of cliffing everyone
      into :class:`~repro.errors.BackpressureError` at once.

    Parameters
    ----------
    alpha:
        EWMA smoothing factor in ``(0, 1]``; higher tracks faster.
    min_samples:
        Per-layer observations required before doomed shedding engages.
    headroom:
        Safety factor on the compute estimate (``> 1`` sheds earlier).
    brownout_step / brownout_floor:
        Per-priority-class watermark schedule described above.
    """

    def __init__(
        self,
        *,
        alpha: float = 0.2,
        min_samples: int = 3,
        headroom: float = 1.0,
        brownout_step: float = 0.25,
        brownout_floor: float = 0.25,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ServingError(f"alpha must be in (0, 1], got {alpha}")
        if min_samples < 1:
            raise ServingError(f"min_samples must be >= 1, got {min_samples}")
        if headroom <= 0.0:
            raise ServingError(f"headroom must be positive, got {headroom}")
        if not 0.0 <= brownout_step <= 1.0:
            raise ServingError(f"brownout_step must be in [0, 1], got {brownout_step}")
        if not 0.0 < brownout_floor <= 1.0:
            raise ServingError(
                f"brownout_floor must be in (0, 1], got {brownout_floor}"
            )
        self.alpha = alpha
        self.min_samples = min_samples
        self.headroom = headroom
        self.brownout_step = brownout_step
        self.brownout_floor = brownout_floor
        self._lock = threading.Lock()
        self._compute_ewma_s: Dict[str, float] = {}
        self._samples: Dict[str, int] = {}
        self._wait_ewma_s = 0.0
        self._wait_samples = 0

    # ---------------------------------------------------------- observation
    def observe_batches(self, batches: Sequence[Tuple[str, int, float]]) -> None:
        """Feed executed ``(layer, batch_size, compute_s)`` batches into the
        per-request compute EWMA in order, under one lock."""
        with self._lock:
            for layer, batch_size, compute_s in batches:
                if batch_size < 1 or compute_s < 0.0:
                    continue
                per_request = compute_s / batch_size
                previous = self._compute_ewma_s.get(layer)
                self._compute_ewma_s[layer] = (
                    per_request
                    if previous is None
                    else previous + self.alpha * (per_request - previous)
                )
                self._samples[layer] = self._samples.get(layer, 0) + 1

    def observe_wait(self, wait_s: float) -> None:
        """Feed one dispatched request's queue wait into the EWMA."""
        if wait_s < 0.0:
            wait_s = 0.0
        with self._lock:
            self._wait_ewma_s += self.alpha * (wait_s - self._wait_ewma_s)
            self._wait_samples += 1

    def estimate_s(self, layer: str) -> Optional[float]:
        """Per-request compute estimate, or ``None`` below ``min_samples``."""
        with self._lock:
            if self._samples.get(layer, 0) < self.min_samples:
                return None
            return self._compute_ewma_s[layer]

    @property
    def wait_ewma_s(self) -> float:
        """Current EWMA of queue wait (0 before any observation)."""
        with self._lock:
            return self._wait_ewma_s

    # ------------------------------------------------------------ decisions
    def brownout_watermark(self, priority: int) -> float:
        """Queue-fullness fraction beyond which class ``priority`` sheds."""
        if priority <= 0:
            return 1.0
        return max(self.brownout_floor, 1.0 - self.brownout_step * priority)

    def chain_estimate_s(self, request) -> Optional[float]:
        """Compute estimate of a request's whole chain: the per-request
        estimates of every stage, times its decode steps.  ``None`` (never
        shed as doomed) while any stage is below ``min_samples``."""
        estimates = [self.estimate_s(layer) for layer in request.stages]
        if None in estimates:
            return None
        return sum(estimates) * request.num_steps

    def admission_check(
        self, request, now: float, depth: int, capacity: int
    ) -> Optional[ShedError]:
        """Shed decision at submission; ``None`` admits the request."""
        priority = request.priority
        if priority > 0 and depth >= capacity * self.brownout_watermark(priority):
            hint = max(self.wait_ewma_s, 1e-3)
            return ShedError(
                f"priority-{priority} request shed at admission: queue "
                f"{depth}/{capacity} is past the class watermark "
                f"({self.brownout_watermark(priority):.0%}); retry in "
                f"~{hint * 1e3:.0f} ms or resubmit at a higher priority",
                retry_after_s=hint,
            )
        if request.deadline_at is not None:
            estimate = self.chain_estimate_s(request)
            if estimate is not None:
                budget = request.deadline_at - now
                expected = self.wait_ewma_s + estimate * self.headroom
                if expected > budget:
                    return ShedError(
                        f"request {request.request_id} ('{request.model}') "
                        f"shed at admission: expected queue wait + compute "
                        f"(~{expected * 1e3:.2f} ms) exceeds its "
                        f"{budget * 1e3:.2f} ms deadline budget; retry with "
                        f"a larger deadline or when the backlog drains",
                        retry_after_s=max(self.wait_ewma_s, estimate),
                    )
        return None

    def claim_check(self, request, now: float) -> Optional[ShedError]:
        """Shed decision at batch-claim time (wait already paid)."""
        estimate = self.chain_estimate_s(request)
        if estimate is None:
            return None
        remaining = remaining_s(request.deadline_at, now)
        if estimate * self.headroom > remaining:
            return ShedError(
                f"request {request.request_id} ('{request.model}') shed at "
                f"claim time: ~{estimate * 1e3:.2f} ms of compute cannot fit "
                f"the {remaining * 1e3:.2f} ms of deadline budget left; "
                f"retry with a larger deadline",
                retry_after_s=max(estimate, 0.0),
            )
        return None
