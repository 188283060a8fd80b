"""Fault injection for the serving runtime (chaos testing harness).

Failure paths that cannot be exercised cannot be trusted, so the server
exposes two hook points wired to a :class:`FaultInjector`:

* :meth:`FaultInjector.on_dispatch` — called by a worker after it pops a
  batch of model requests, before it runs the claim; may raise
  :class:`~repro.errors.WorkerCrashError`, which escapes the worker loop and
  crashes the worker (it requeues its claim and restarts its loop in its
  own thread, while the restart budget lasts);
* :meth:`FaultInjector.on_batch` — called immediately before each stage's
  executor pass of a claim (once per attempt); may sleep (artificial
  latency) and may raise :class:`~repro.errors.InjectedFaultError`
  (transient, so the retry policy applies to that stage).

Engine faults and latency come from two composable sources: a seeded
**probabilistic** profile (per-call rates of the stage hook, drawn from one
``numpy`` generator, so a seed reproduces the exact fault sequence under
deterministic scheduling) and a **scripted** :class:`FaultPlan` keyed by
1-based hook call index (exact, scheduling independent — the chaos tests'
workhorse).  Worker crashes are scripted only.  The default server
configuration injects nothing and pays one ``None`` check per hook.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional, Tuple

import numpy as np

from ..errors import InjectedFaultError, ServingError, WorkerCrashError


@dataclass(frozen=True)
class ArrivalSchedule:
    """Open-loop arrival offsets for load scenarios (seconds from t=0).

    Closed-loop load generators (submit, wait, submit again) self-throttle
    the moment the server saturates, so they can never observe overload
    behaviour.  An arrival *schedule* decouples offered load from service
    rate: the driver submits request ``i`` at ``offsets_s[i]`` regardless of
    how the previous ones fared — the open-loop model real traffic follows.
    Constructors are seeded, so a chaos/overload run replays exactly.
    """

    offsets_s: Tuple[float, ...]

    def __post_init__(self) -> None:
        offsets = tuple(float(offset) for offset in self.offsets_s)
        if any(offset < 0.0 for offset in offsets):
            raise ServingError("arrival offsets must be non-negative")
        if any(b < a for a, b in zip(offsets, offsets[1:])):
            raise ServingError("arrival offsets must be non-decreasing")
        object.__setattr__(self, "offsets_s", offsets)

    def __len__(self) -> int:
        return len(self.offsets_s)

    def __iter__(self) -> Iterator[float]:
        return iter(self.offsets_s)

    @classmethod
    def poisson(cls, rate_rps: float, count: int, seed: int = 0) -> "ArrivalSchedule":
        """Memoryless arrivals at mean ``rate_rps`` (exponential gaps)."""
        if rate_rps <= 0.0 or count < 1:
            raise ServingError("poisson schedule needs rate_rps > 0 and count >= 1")
        gaps = np.random.default_rng(seed).exponential(1.0 / rate_rps, size=count)
        gaps[0] = 0.0
        return cls(tuple(np.cumsum(gaps)))

    @classmethod
    def burst(
        cls, num_bursts: int, burst_size: int, gap_s: float
    ) -> "ArrivalSchedule":
        """Bursty arrivals: ``burst_size`` simultaneous requests every ``gap_s``."""
        if num_bursts < 1 or burst_size < 1 or gap_s < 0.0:
            raise ServingError(
                "burst schedule needs num_bursts >= 1, burst_size >= 1, gap_s >= 0"
            )
        return cls(
            tuple(
                burst * gap_s
                for burst in range(num_bursts)
                for _ in range(burst_size)
            )
        )


@dataclass(frozen=True)
class FaultPlan:
    """Scripted fault schedule, keyed by 1-based hook call index.

    ``engine_faults_at`` / ``latency_at`` index :meth:`FaultInjector.on_batch`
    calls; ``worker_crashes_at`` indexes :meth:`FaultInjector.on_dispatch`
    calls.  Indices are global across workers (the injector counts calls under
    a lock), so e.g. ``worker_crashes_at={1}`` kills whichever worker picks up
    the first batch.
    """

    engine_faults_at: frozenset = frozenset()
    worker_crashes_at: frozenset = frozenset()
    latency_at: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        indices = (
            set(self.engine_faults_at)
            | set(self.worker_crashes_at)
            | set(self.latency_at)
        )
        if any(not isinstance(index, int) or index < 1 for index in indices):
            raise ServingError(
                f"fault plan indices must be integers >= 1, got {sorted(indices)}"
            )
        if any(delay < 0.0 for delay in self.latency_at.values()):
            raise ServingError("scripted latency delays must be non-negative")
        # Normalise the collection types so plans hash/compare predictably.
        object.__setattr__(self, "engine_faults_at", frozenset(self.engine_faults_at))
        object.__setattr__(self, "worker_crashes_at", frozenset(self.worker_crashes_at))
        object.__setattr__(self, "latency_at", dict(self.latency_at))


@dataclass(frozen=True)
class FaultStats:
    """What the injector actually did during a run."""

    batch_hooks: int
    dispatch_hooks: int
    engine_faults: int
    worker_crashes: int
    delays: int
    delay_total_s: float


class FaultInjector:
    """Injects engine faults, worker crashes and latency into the hot path.

    Parameters
    ----------
    engine_fault_rate / latency_rate:
        Per-call probabilities in ``[0, 1]`` of the respective fault at the
        stage hook (:meth:`on_batch`).
    latency_s:
        Sleep injected when the latency fault fires probabilistically.
    plan:
        Optional scripted :class:`FaultPlan`; scripted faults fire on exact
        call indices in addition to (and independently of) the rates.  It is
        the only source of worker crashes.
    seed:
        Seed of the probabilistic draw stream.
    """

    def __init__(
        self,
        engine_fault_rate: float = 0.0,
        latency_rate: float = 0.0,
        latency_s: float = 0.0,
        plan: Optional[FaultPlan] = None,
        seed: int = 0,
    ) -> None:
        for name, rate in (
            ("engine_fault_rate", engine_fault_rate),
            ("latency_rate", latency_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ServingError(f"{name} must be in [0, 1], got {rate}")
        if latency_s < 0.0:
            raise ServingError(f"latency_s must be non-negative, got {latency_s}")
        self.engine_fault_rate = engine_fault_rate
        self.latency_rate = latency_rate
        self.latency_s = latency_s
        self.plan = plan if plan is not None else FaultPlan()
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._lock = threading.Lock()
        self._batch_calls = 0
        self._dispatch_calls = 0
        self._engine_faults = 0
        self._worker_crashes = 0
        self._delays = 0
        self._delay_total_s = 0.0

    # -------------------------------------------------------------- hooks
    def on_dispatch(self, worker: str) -> None:
        """Worker hook: called after a batch is popped, before execution.

        Raising here models a worker dying *while holding work*: the server
        requeues the claimed requests and the worker restarts its loop in its
        own thread, while the restart budget lasts.
        """
        with self._lock:
            self._dispatch_calls += 1
            index = self._dispatch_calls
            crash = index in self.plan.worker_crashes_at
            if crash:
                self._worker_crashes += 1
        if crash:
            raise WorkerCrashError(
                f"injected crash of worker '{worker}' (dispatch hook #{index})"
            )

    def on_batch(self, layer: str, batch_size: int) -> None:
        """Stage hook: called immediately before a stage's executor pass."""
        with self._lock:
            self._batch_calls += 1
            index = self._batch_calls
            delay = self.plan.latency_at.get(index, 0.0)
            if (
                not delay
                and self.latency_rate > 0.0
                and self._rng.random() < self.latency_rate
            ):
                delay = self.latency_s
            fault = index in self.plan.engine_faults_at or (
                self.engine_fault_rate > 0.0
                and self._rng.random() < self.engine_fault_rate
            )
            if delay:
                self._delays += 1
                self._delay_total_s += delay
            if fault:
                self._engine_faults += 1
        if delay:
            # Sleep outside the lock: injected latency must slow this batch,
            # not serialise every other worker's hook behind it.
            time.sleep(delay)
        if fault:
            raise InjectedFaultError(
                f"injected engine fault on layer '{layer}' "
                f"(batch of {batch_size}, batch hook #{index})"
            )

    # ---------------------------------------------------------- accounting
    def stats(self) -> FaultStats:
        """Snapshot of every fault injected so far."""
        with self._lock:
            return FaultStats(
                batch_hooks=self._batch_calls,
                dispatch_hooks=self._dispatch_calls,
                engine_faults=self._engine_faults,
                worker_crashes=self._worker_crashes,
                delays=self._delays,
                delay_total_s=self._delay_total_s,
            )
