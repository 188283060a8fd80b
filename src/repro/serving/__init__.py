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
* :mod:`repro.serving.request` — the :class:`ModelRequest` handle returned
  by ``Server.submit(activation=...)`` (single forward pass or ``stream=N``
  autoregressive decode steps), the one request type from submission to
  settle;
* :mod:`repro.serving.queue` — the bounded admission-controlled
  :class:`RequestQueue` with QoS priority lanes and one batch rule;
* :mod:`repro.serving.server` — the supervised :class:`Server`: one worker
  thread's claim runs a batch of model requests through every stage, one
  ``ModelPlan.run`` pass per stage, with worker restarts,
  :meth:`Server.health` and drain/abort shutdown;
* :mod:`repro.serving.policy` — per-request deadlines, the
  :class:`RetryPolicy` applied around batch execution, and the
  overload-resilience piece: the :class:`AdmissionController` behind
  adaptive load shedding / QoS brownout;
* :mod:`repro.serving.faults` — the :class:`FaultInjector` chaos-testing
  harness (injected engine faults, worker crashes, artificial latency) and
  the seeded open-loop :class:`ArrivalSchedule` overload scenarios;
* :mod:`repro.serving.report` — throughput / latency-percentile / energy /
  fault-tolerance accounting, kept in fixed memory as
  :class:`ServingTotals` and rendered by
  :func:`repro.analysis.format_serving_report`.
"""

from .plan import CompileStats, LayerPlan, ModelPlan, compile_workload
from .graph import INPUT, ModelGraph, StageSpec
from .request import ModelRequest
from .queue import RequestQueue
from .policy import (
    DEFAULT_RETRY_POLICY,
    AdmissionController,
    RetryPolicy,
)
from .faults import ArrivalSchedule, FaultInjector, FaultPlan, FaultStats
from .report import ServingReport, ServingTotals, ShardStats, StageStats, build_report
from .server import Server, ServerHealth

__all__ = [
    "CompileStats",
    "LayerPlan",
    "ModelPlan",
    "compile_workload",
    "INPUT",
    "ModelGraph",
    "StageSpec",
    "ModelRequest",
    "RequestQueue",
    "DEFAULT_RETRY_POLICY",
    "RetryPolicy",
    "AdmissionController",
    "ArrivalSchedule",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "ServingReport",
    "ServingTotals",
    "ShardStats",
    "StageStats",
    "build_report",
    "Server",
    "ServerHealth",
]
