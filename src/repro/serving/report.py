"""Serving-side statistics: latency percentiles, throughput, energy.

The server folds every executed pass and every settled request into one
:class:`ServingTotals` as it goes: exact integer counters, exact float sums
and log-bucketed :class:`LatencyHistogram` s whose size does not depend on
the traffic.  The report is assembled from a snapshot of those totals after
(or during) a serving run, in time independent of how many requests it has
served.
"""

from __future__ import annotations

import math
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..core.metrics import OpCounts
from ..energy.breakdown import EnergyBreakdown
from .plan import CompileStats, ModelPlan
from .request import CANCELLED, DONE, EXPIRED, FAILED, SHED, ModelRequest


class LatencyHistogram:
    """Log-bucketed histogram of latencies in fixed memory.

    Bucket ``i`` holds the samples in ``[LOW_S * GROWTH**i, LOW_S *
    GROWTH**(i + 1))`` and stands for one value within ``(GROWTH - 1) /
    (GROWTH + 1)``, under 1 %, of each of them, so a quantile is within 1 %
    of the sample at its rank.  Samples below ``LOW_S`` or from ``HIGH_S`` on
    share the edge buckets; every reported value is clamped into the exact
    range of the samples.  The count and the exact sum ride along for the
    mean.
    """

    GROWTH = 1.02
    LOW_S = 1e-9
    HIGH_S = 1e6
    NUM_BUCKETS = math.ceil(math.log(HIGH_S / LOW_S) / math.log(GROWTH))
    _SCALE = 1.0 / math.log(GROWTH)

    __slots__ = ("counts", "count", "total", "low", "high")

    def __init__(self) -> None:
        self.counts = array("q", bytes(8 * self.NUM_BUCKETS))
        self.count = 0
        self.total = 0.0
        self.low = math.inf
        self.high = -math.inf

    def add(self, value: float, count: int = 1) -> None:
        """Count ``count`` samples of ``value``."""
        index = (
            min(int(math.log(value / self.LOW_S) * self._SCALE), self.NUM_BUCKETS - 1)
            if value > self.LOW_S else 0
        )
        self.counts[index] += count
        self.count += count
        self.total += value * count
        if value < self.low:
            self.low = value
        if value > self.high:
            self.high = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "LatencyHistogram") -> None:
        """Count every sample of ``other`` too."""
        counts = np.frombuffer(self.counts, dtype=np.int64)
        counts += np.frombuffer(other.counts, dtype=np.int64)
        self.count += other.count
        self.total += other.total
        self.low, self.high = min(self.low, other.low), max(self.high, other.high)

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile, within 1 % of the sample at rank
        ``floor(q / 100 * (count - 1))`` (numpy's ``method="lower"``);
        0.0 when empty."""
        if not self.count:
            return 0.0
        rank = math.floor((self.count - 1) * (q / 100.0))
        cumulative = np.cumsum(np.frombuffer(self.counts, dtype=np.int64))
        index = int(np.searchsorted(cumulative, rank, side="right"))
        value = self.LOW_S * self.GROWTH ** index * (2.0 * self.GROWTH / (self.GROWTH + 1.0))
        return min(max(value, self.low), self.high)


class StageTotals:
    """What :class:`ServingTotals` keeps per pipeline stage (layer)."""

    __slots__ = ("passes", "compute_s", "queue_delay_s", "latency",
                 "unpriced_passes", "unpriced_columns")

    def __init__(self) -> None:
        #: Executor passes and their summed fault-hook + executor seconds.
        self.passes = 0
        self.compute_s = 0.0
        #: Queue delay and latency of the stage's completed requests.
        self.queue_delay_s = 0.0
        self.latency = LatencyHistogram()
        #: Passes and completed columns not yet priced by
        #: :meth:`ServingTotals.price`.
        self.unpriced_passes = 0
        self.unpriced_columns = 0


class ServingTotals:
    """Every figure a :class:`ServingReport` needs, in fixed memory.

    A *stage request* is one model request at one stage.  The requests of
    one executor pass share its instants, so :meth:`add_done` counts them
    with one weighted add; a request that stopped early, or never reached a
    stage, adds one row through :meth:`add_stop`.  A stage's latency runs
    from when it became runnable (the request's submission for its first
    stage, the previous stage's finish for the others); the report merges
    the stages' latencies and queue delays.  The modeled cost
    is priced per layer from pass and column totals by :meth:`price`.
    """

    def __init__(self) -> None:
        #: Stage requests per state.
        self.states: Dict[str, int] = defaultdict(int)
        self.retries = 0
        #: Activation columns of the completed stage requests.
        self.columns = 0
        #: Completed stage requests inside their deadline, per priority.
        self.deadline_met: Dict[int, int] = defaultdict(int)
        #: Earliest stage-runnable and latest settle instant: ``wall_s``.
        self.first_submit = math.inf
        self.last_finish = -math.inf
        self.stages: Dict[str, StageTotals] = defaultdict(StageTotals)
        #: Executor passes: count, summed and largest batch size.
        self.passes = 0
        self.batch_size_sum = 0
        self.batch_size_max = 0
        #: Modeled cost of the passes and columns priced so far.
        self.op_counts: Optional[OpCounts] = None
        self.attributed_cycles: Optional[int] = None
        self.attributed_energy: Optional[EnergyBreakdown] = None
        #: Model requests per state; latency of the completed ones.
        self.model_states: Dict[str, int] = defaultdict(int)
        self.model_latency = LatencyHistogram()

    def _span(self, since: float, finished_at: float) -> None:
        """Widen the ``wall_s`` span to cover ``since`` .. ``finished_at``."""
        if since < self.first_submit:
            self.first_submit = since
        if finished_at > self.last_finish:
            self.last_finish = finished_at

    def add_done(self, layer: str, requests: int, columns: int, retries: int,
                 since: float, started_at: float, finished_at: float) -> None:
        """Count ``requests`` stage requests, ``columns`` wide in all, that
        completed ``layer`` in one executor pass (after ``retries``), runnable
        from ``since``, run from ``started_at`` to ``finished_at``."""
        self.states[DONE] += requests
        self.retries += retries * requests
        self.columns += columns
        self._span(since, finished_at)
        stage = self.stages[layer]
        stage.queue_delay_s += (started_at - since) * requests
        stage.latency.add(finished_at - since, requests)
        stage.unpriced_columns += columns

    def add_stop(self, request: ModelRequest, since: float, retries: int) -> None:
        """Count the stage request at which ``request`` stopped early (or,
        never having reached a stage, settled), runnable from ``since``."""
        self.states[request.state] += 1
        self.retries += retries
        self._span(since, request.finished_at)

    def add_pass(self, layer: str, batch_size: int, compute_s: float) -> None:
        """Count one executor pass over ``batch_size`` requests."""
        self.passes += 1
        self.batch_size_sum += batch_size
        if batch_size > self.batch_size_max:
            self.batch_size_max = batch_size
        stage = self.stages[layer]
        stage.passes += 1
        stage.compute_s += compute_s
        stage.unpriced_passes += 1

    def add_model(self, request: ModelRequest, deadline_met: int = 0) -> None:
        """Count one settled model request, ``deadline_met`` of whose
        completed stages finished inside its deadline."""
        self.model_states[request.state] += 1
        if deadline_met:
            self.deadline_met[request.priority] += deadline_met
        if request.state == DONE:
            self.model_latency.add(request.latency_s)

    def price(self, plan: ModelPlan) -> None:
        """Add the passes and columns counted since the last call, priced by
        ``plan`` (the plan they ran on), to the modeled cost: per layer, its
        ``OpCounts`` once per pass and one ``attribute_request`` over its
        columns when the plan has an accelerator."""
        for name, stage in self.stages.items():
            layer = plan.layer(name)
            if stage.unpriced_passes:
                ops = layer.op_counts.repeated(stage.unpriced_passes)
                self.op_counts = ops if self.op_counts is None else self.op_counts.merge(ops)
            if (stage.unpriced_columns and layer.profile is not None
                    and plan.accelerator is not None):
                charge = plan.accelerator.attribute_request(layer.profile, stage.unpriced_columns)
                self.attributed_cycles = charge.cycles + (self.attributed_cycles or 0)
                self.attributed_energy = charge.energy.merge(
                    self.attributed_energy or EnergyBreakdown())
            stage.unpriced_passes = stage.unpriced_columns = 0

    @property
    def wall_s(self) -> float:
        """First stage-runnable instant to last settle (0.0 before any)."""
        return self.last_finish - self.first_submit if self.states else 0.0


@dataclass(frozen=True)
class ShardStats:
    """Per-worker utilization of one serving run.

    One entry per worker thread (``shard`` is its index).  ``compute_s`` is
    time inside the executor passes; ``dispatch_s`` is everything else the
    worker's claims cost (stacking, splitting, settling and accounting), so
    ``compute_s / (compute_s + dispatch_s)`` is the worker's compute
    efficiency and the spread of ``batches`` across workers shows load skew.
    """

    shard: int
    batches: int
    requests: int
    compute_s: float
    dispatch_s: float

    @property
    def utilization(self) -> float:
        """Fraction of this worker's busy time spent inside executor passes."""
        busy = self.compute_s + self.dispatch_s
        return self.compute_s / busy if busy > 0.0 else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "shard": self.shard,
            "batches": self.batches,
            "requests": self.requests,
            "compute_s": self.compute_s,
            "dispatch_s": self.dispatch_s,
            "utilization": self.utilization,
        }


@dataclass(frozen=True)
class StageStats:
    """Per-pipeline-stage breakdown of one whole-model serving run.

    One entry per :class:`~repro.serving.graph.ModelGraph` stage, aggregated
    over every model request (and decode step) the run passed through that
    stage; ``batches`` counts the claims' executor passes of the stage and
    ``queue_wait_mean_s`` the wait before it (the queue wait for the first
    stage, the claim's own stage-to-stage gap for the others).
    ``occupancy`` is the fraction of the run's wall-clock the stage spent
    inside executor passes; with every worker busy the stage occupancies sum
    toward the worker count.
    """

    stage: int
    layer: str
    requests: int
    batches: int
    compute_s: float
    queue_wait_mean_s: float
    latency_mean_s: float
    latency_p95_s: float
    occupancy: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "stage": self.stage,
            "layer": self.layer,
            "requests": self.requests,
            "batches": self.batches,
            "compute_s": self.compute_s,
            "queue_wait_mean_s": self.queue_wait_mean_s,
            "latency_mean_s": self.latency_mean_s,
            "latency_p95_s": self.latency_p95_s,
            "occupancy": self.occupancy,
        }


@dataclass
class ServingReport:
    """Aggregate outcome of one serving run against a compiled plan.

    Latencies are wall-clock submit-to-finish seconds; ``throughput_rps`` is
    completed requests over the span from the first submission to the last
    completion.  Counts, sums and means are exact; the latency percentiles
    come from :class:`LatencyHistogram` s, within 1 %.  ``attributed_cycles`` / ``attributed_energy`` are only
    populated when the plan was compiled with an accelerator cycle model.
    """

    workload: str
    num_requests: int
    num_failed: int
    num_rejected: int
    num_expired: int
    num_cancelled: int
    num_retried: int
    num_worker_restarts: int
    total_columns: int
    wall_s: float
    throughput_rps: float
    throughput_cols_per_s: float
    latency_mean_s: float
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float
    queue_delay_mean_s: float
    num_batches: int
    mean_batch_size: float
    max_batch_size: int
    requests_per_layer: Dict[str, int] = field(default_factory=dict)
    op_counts: Optional[OpCounts] = None
    attributed_cycles: Optional[int] = None
    attributed_energy: Optional[EnergyBreakdown] = None
    #: Offline-compilation statistics of the served plan (executor backend,
    #: executor build time and bytes); ``None`` for hand-built plans.
    compile_stats: Optional[CompileStats] = None
    #: Per-worker utilization, one entry per worker thread.
    shards: Tuple[ShardStats, ...] = ()
    #: Total seconds completed requests spent queued before dispatch.
    queue_wait_s_total: float = 0.0
    #: Total seconds spent inside executor passes, summed across workers.
    compute_s_total: float = 0.0
    #: Total non-compute busy seconds of the claims, summed across workers.
    dispatch_s_total: float = 0.0
    #: Per-pipeline-stage breakdown (empty without whole-model requests).
    stages: Tuple[StageStats, ...] = ()
    #: Completed whole-model (pipelined) requests.
    num_model_requests: int = 0
    #: Whole-model requests that finished failed/expired/cancelled.
    num_model_failed: int = 0
    #: Model-level submit-to-finish latency over completed model requests.
    model_latency_mean_s: float = 0.0
    model_latency_p50_s: float = 0.0
    model_latency_p95_s: float = 0.0
    model_latency_p99_s: float = 0.0
    #: Pipeline stages a model-level request passes through (0 = no graph).
    pipeline_depth: int = 0
    #: Requests terminated by the overload-control layer without compute:
    #: the ones doomed at claim time.
    num_shed: int = 0
    #: Requests shed synchronously at submission (the client got a
    #: :class:`~repro.errors.ShedError` before the queue ever saw them —
    #: accounted like ``num_rejected``, outside ``num_requests``).
    num_admission_shed: int = 0
    #: Zero-downtime plan swaps performed during the run.
    num_plan_swaps: int = 0
    #: Requests force-aborted by ``close(timeout_s=...)`` past its deadline.
    num_force_aborted: int = 0
    #: Completed requests that met their deadline (no deadline = met).
    num_deadline_met: int = 0
    #: Deadline-met completions per second — the overload headline: unlike
    #: ``throughput_rps`` it does not credit work that finished too late.
    goodput_rps: float = 0.0
    #: Goodput broken down by QoS priority class.
    goodput_by_priority: Dict[int, float] = field(default_factory=dict)
    #: OpenBLAS threads the server applied for its workers' BLAS calls;
    #: ``None`` when it could not apply any (no OpenBLAS found).
    blas_threads: Optional[int] = None

    @property
    def compute_fraction(self) -> float:
        """Compute share of total worker busy time (1.0 = no overhead)."""
        busy = self.compute_s_total + self.dispatch_s_total
        return self.compute_s_total / busy if busy > 0.0 else 0.0

    def render(self) -> str:
        """Aligned plain-text table of the report (examples print this)."""
        from ..analysis.reporting import format_serving_report

        return format_serving_report(self)

    def as_dict(self) -> Dict[str, object]:
        """JSON-serialisable summary (written by ``bench_serving``)."""
        summary: Dict[str, object] = {
            "workload": self.workload,
            "num_requests": self.num_requests,
            "num_failed": self.num_failed,
            "num_rejected": self.num_rejected,
            "num_expired": self.num_expired,
            "num_cancelled": self.num_cancelled,
            "num_retried": self.num_retried,
            "num_worker_restarts": self.num_worker_restarts,
            "total_columns": self.total_columns,
            "wall_s": self.wall_s,
            "throughput_rps": self.throughput_rps,
            "throughput_cols_per_s": self.throughput_cols_per_s,
            "latency_mean_s": self.latency_mean_s,
            "latency_p50_s": self.latency_p50_s,
            "latency_p95_s": self.latency_p95_s,
            "latency_p99_s": self.latency_p99_s,
            "queue_delay_mean_s": self.queue_delay_mean_s,
            "num_batches": self.num_batches,
            "mean_batch_size": self.mean_batch_size,
            "max_batch_size": self.max_batch_size,
            "requests_per_layer": dict(self.requests_per_layer),
        }
        if self.op_counts is not None:
            summary["transitive_ops"] = self.op_counts.transitive_ops
            summary["density"] = self.op_counts.density
        if self.attributed_cycles is not None:
            summary["attributed_cycles"] = self.attributed_cycles
        if self.attributed_energy is not None:
            summary["attributed_energy_nj"] = self.attributed_energy.total_nj
        if self.compile_stats is not None:
            summary["compile_stats"] = self.compile_stats.as_dict()
        summary["num_shed"] = self.num_shed
        summary["num_admission_shed"] = self.num_admission_shed
        summary["num_plan_swaps"] = self.num_plan_swaps
        summary["num_force_aborted"] = self.num_force_aborted
        summary["num_deadline_met"] = self.num_deadline_met
        summary["goodput_rps"] = self.goodput_rps
        summary["goodput_by_priority"] = {
            str(priority): rps
            for priority, rps in sorted(self.goodput_by_priority.items())
        }
        summary["blas_threads"] = self.blas_threads
        summary["queue_wait_s_total"] = self.queue_wait_s_total
        summary["compute_s_total"] = self.compute_s_total
        summary["dispatch_s_total"] = self.dispatch_s_total
        summary["compute_fraction"] = self.compute_fraction
        if self.shards:
            summary["shards"] = [shard.as_dict() for shard in self.shards]
        if self.pipeline_depth or self.num_model_requests or self.stages:
            summary["pipeline"] = {
                "depth": self.pipeline_depth,
                "num_model_requests": self.num_model_requests,
                "num_model_failed": self.num_model_failed,
                "model_latency_mean_s": self.model_latency_mean_s,
                "model_latency_p50_s": self.model_latency_p50_s,
                "model_latency_p95_s": self.model_latency_p95_s,
                "model_latency_p99_s": self.model_latency_p99_s,
                "stages": [stage.as_dict() for stage in self.stages],
            }
        return summary


def build_report(
    workload: str,
    totals: ServingTotals,
    layers: Sequence[str] = (),
    *,
    num_rejected: int = 0,
    num_worker_restarts: int = 0,
    compile_stats: Optional[CompileStats] = None,
    shards: Sequence[ShardStats] = (),
    num_admission_shed: int = 0,
    num_plan_swaps: int = 0,
    num_force_aborted: int = 0,
    blas_threads: Optional[int] = None,
) -> ServingReport:
    """Assemble a :class:`ServingReport` from a snapshot of serving totals.

    ``layers`` names the pipeline stages in order (empty without a model
    graph).  A run whose every request failed — or a monitoring poll before
    any finished — still gets a well-formed report, with zero latency and
    throughput figures.  Counts and sums are exact; percentiles are
    histogram values within 1 %.  The modeled cost is what
    :meth:`ServingTotals.price` has priced so far.
    """
    wall_s = totals.wall_s
    wall = max(wall_s, 1e-12)
    states, latency = totals.states, LatencyHistogram()
    for stage in totals.stages.values():
        latency.merge(stage.latency)
    queue_delay_s = sum(stage.queue_delay_s for stage in totals.stages.values())
    stages = []
    for index, layer in enumerate(layers):
        stage = totals.stages.get(layer) or StageTotals()
        done = stage.latency.count
        stages.append(StageStats(
            stage=index,
            layer=layer,
            requests=done,
            batches=stage.passes,
            compute_s=stage.compute_s,
            queue_wait_mean_s=stage.queue_delay_s / done if done else 0.0,
            latency_mean_s=stage.latency.mean,
            latency_p95_s=stage.latency.percentile(95.0),
            occupancy=stage.compute_s / wall,
        ))
    num_deadline_met = sum(totals.deadline_met.values())
    model_done = totals.model_latency.count
    return ServingReport(
        workload=workload,
        num_requests=latency.count,
        num_failed=states.get(FAILED, 0),
        num_rejected=num_rejected,
        num_expired=states.get(EXPIRED, 0),
        num_cancelled=states.get(CANCELLED, 0),
        num_retried=totals.retries,
        num_worker_restarts=num_worker_restarts,
        total_columns=totals.columns,
        wall_s=wall_s,
        throughput_rps=latency.count / wall,
        throughput_cols_per_s=totals.columns / wall,
        latency_mean_s=latency.mean,
        latency_p50_s=latency.percentile(50.0),
        latency_p95_s=latency.percentile(95.0),
        latency_p99_s=latency.percentile(99.0),
        queue_delay_mean_s=queue_delay_s / latency.count if latency.count else 0.0,
        num_batches=totals.passes,
        mean_batch_size=(
            totals.batch_size_sum / totals.passes if totals.passes else 0.0
        ),
        max_batch_size=totals.batch_size_max,
        requests_per_layer={
            layer: stage.latency.count
            for layer, stage in totals.stages.items()
            if stage.latency.count
        },
        op_counts=totals.op_counts,
        attributed_cycles=totals.attributed_cycles,
        attributed_energy=totals.attributed_energy,
        compile_stats=compile_stats,
        shards=tuple(shards),
        queue_wait_s_total=queue_delay_s,
        compute_s_total=sum(shard.compute_s for shard in shards),
        dispatch_s_total=sum(shard.dispatch_s for shard in shards),
        stages=tuple(stages),
        num_model_requests=model_done,
        num_model_failed=sum(totals.model_states.values()) - model_done,
        model_latency_mean_s=totals.model_latency.mean,
        model_latency_p50_s=totals.model_latency.percentile(50.0),
        model_latency_p95_s=totals.model_latency.percentile(95.0),
        model_latency_p99_s=totals.model_latency.percentile(99.0),
        pipeline_depth=len(layers),
        num_shed=states.get(SHED, 0),
        num_admission_shed=num_admission_shed,
        num_plan_swaps=num_plan_swaps,
        num_force_aborted=num_force_aborted,
        num_deadline_met=num_deadline_met,
        goodput_rps=num_deadline_met / wall,
        goodput_by_priority={
            priority: count / wall
            for priority, count in sorted(totals.deadline_met.items())
        },
        blas_threads=blas_threads,
    )
