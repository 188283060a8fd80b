"""Online inference serving over compiled transitive-GEMM model plans.

This package is the request-driven execution mode the paper's *static
scoreboard* was designed for: compile once, serve forever.

* :mod:`repro.serving.plan` — offline compilation of any
  :class:`~repro.workloads.gemm.GemmWorkload` into a :class:`ModelPlan`
  (per-layer weights bit-sliced and scoreboarded once, each layer served
  by one exact float64-BLAS executor — optionally per-layer mixed
  precision via ``quant_schemes=`` — with :class:`CompileStats` recording
  what that cost);
* :mod:`repro.serving.graph` — the :class:`ModelGraph` of declared
  inter-layer dataflow that turns a bag of compiled layers into a servable
  pipeline (``graph="chain"`` at compile time for the common case);
* :mod:`repro.serving.request` / :mod:`repro.serving.queue` — future-style
  requests and the bounded admission-controlled queue;
* :mod:`repro.serving.model_request` — the model-level client surface:
  :class:`SubmitOptions` and the :class:`ModelRequest` handle returned by
  ``Server.submit(activation=...)`` (single forward pass or ``stream=N``
  autoregressive decode steps);
* :mod:`repro.serving.batcher` — the thread tier's stage primitive, one
  executor pass over a batch's concatenated columns, and the standalone
  single-layer :class:`MicroBatcher`;
* :mod:`repro.serving.server` — the supervised :class:`Server`: one worker
  claim runs a batch of model requests through every stage, in two
  execution tiers (``"threads"`` and the GIL-free ``"processes"``), with
  worker restarts, :meth:`Server.health` and drain/abort shutdown;
* :mod:`repro.serving.shm` / :mod:`repro.serving.process_pool` — the
  process-sharded tier: shared-memory activation/result rings
  (:class:`ShmRing`) and the :class:`ProcessWorkerPool` of plan-replica
  worker processes;
* :mod:`repro.serving.policy` — per-request deadlines, the
  :class:`RetryPolicy` applied around batch execution, and the
  overload-resilience pieces: the :class:`AdmissionController` behind
  adaptive load shedding / QoS brownout and the :class:`CircuitBreaker`
  guarding the degraded-oracle fallback;
* :mod:`repro.serving.faults` — the :class:`FaultInjector` chaos-testing
  harness (injected engine faults, worker crashes, artificial latency) and
  the seeded open-loop :class:`ArrivalSchedule` overload scenarios;
* :mod:`repro.serving.report` — throughput / latency-percentile / energy /
  fault-tolerance accounting rendered by
  :func:`repro.analysis.format_serving_report`.
"""

from .plan import CompileStats, LayerPlan, ModelPlan, compile_workload
from .graph import INPUT, ModelGraph, StageSpec
from .request import Request
from .model_request import ModelRequest, SubmitOptions
from .queue import RequestQueue
from .batcher import BatchExecution, MicroBatcher
from .policy import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    DEFAULT_RETRY_POLICY,
    AdmissionController,
    CircuitBreaker,
    RetryPolicy,
)
from .faults import ArrivalSchedule, FaultInjector, FaultPlan, FaultStats
from .report import ServingReport, ShardStats, StageStats, build_report, percentile
from .server import EXECUTION_MODES, Server, ServerHealth
from .shm import ArraySpec, ShmRing, cleanup_orphan_segments
from .process_pool import ProcessWorkerPool, ShardResult

__all__ = [
    "CompileStats",
    "LayerPlan",
    "ModelPlan",
    "compile_workload",
    "INPUT",
    "ModelGraph",
    "StageSpec",
    "Request",
    "ModelRequest",
    "SubmitOptions",
    "RequestQueue",
    "BatchExecution",
    "MicroBatcher",
    "DEFAULT_RETRY_POLICY",
    "RetryPolicy",
    "AdmissionController",
    "CircuitBreaker",
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
    "ArrivalSchedule",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "ServingReport",
    "ShardStats",
    "StageStats",
    "build_report",
    "percentile",
    "EXECUTION_MODES",
    "Server",
    "ServerHealth",
    "ArraySpec",
    "ShmRing",
    "cleanup_orphan_segments",
    "ProcessWorkerPool",
    "ShardResult",
]
