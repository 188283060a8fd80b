"""Micro-batch execution: one executor pass per coalesced batch of columns.

The batcher is the bridge between claimed requests and the compiled plan.
:meth:`MicroBatcher.run_stage` is the thread tier's stage primitive: it runs
one layer's executor over an already concatenated activation matrix (every
column of a claimed batch), firing the optional
:class:`~repro.serving.faults.FaultInjector` hook first, and raises on
failure so the server's retry policy and degraded fallback see the error.
The server calls it once per graph stage of a claim; the process tier's
equivalent is :meth:`~repro.serving.process_pool.ProcessWorkerPool.execute`.

:meth:`MicroBatcher.execute` is the standalone single-layer contract on the
same primitive: claim a same-layer batch of
:class:`~repro.serving.request.Request` objects, run it, split the output
back per request, and on error fail every request in place without raising.
Outputs are bit-identical to serving each request alone — the executor
concatenates activation columns, and the weights are shared by construction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..core.metrics import OpCounts
from ..errors import ServingError
from .faults import FaultInjector
from .plan import ModelPlan
from .request import Request


@dataclass(frozen=True)
class BatchExecution:
    """Bookkeeping record of one executed micro-batch (one stage of a claim)."""

    layer: str
    batch_size: int
    total_columns: int
    started_at: float
    finished_at: float
    op_counts: Optional[OpCounts]
    #: Pure executor-pass time (excludes attribution/fulfilment); ``None``
    #: when the pass never ran.  Per-stage occupancy accounting reads this.
    compute_s: Optional[float] = None

    @property
    def duration_s(self) -> float:
        """Wall-clock duration of the executor pass."""
        return self.finished_at - self.started_at


class MicroBatcher:
    """Executes coalesced batches of columns against a model plan."""

    def __init__(self, plan: ModelPlan, *, faults: Optional[FaultInjector] = None) -> None:
        self.plan = plan
        self.faults = faults

    def run_stage(
        self, plan: ModelPlan, layer: str, activation: np.ndarray, batch_size: int
    ) -> Tuple[np.ndarray, float]:
        """One executor pass of ``layer`` over ``activation``; raises on failure.

        ``batch_size`` is the number of requests whose columns the matrix
        carries (reported to the fault hook).  Returns the output and the
        seconds the pass took.
        """
        started_at = time.perf_counter()
        if self.faults is not None:
            self.faults.on_batch(layer, batch_size)
        output = plan.run(layer, activation)
        return output, time.perf_counter() - started_at

    def execute(self, requests: List[Request]) -> BatchExecution:
        """Run one same-layer micro-batch, fulfilling or failing every request.

        Worker-side errors are captured on the requests (each waiting client
        re-raises from :meth:`~repro.serving.request.Request.result`) so a
        malformed request never takes the caller down.
        """
        if not requests:
            raise ServingError("cannot execute an empty micro-batch")
        layer = requests[0].layer
        if any(request.layer != layer for request in requests):
            raise ServingError(
                "micro-batch mixes layers: "
                f"{sorted({request.layer for request in requests})}"
            )
        started_at = time.perf_counter()
        claimed = [
            request
            for request in requests
            if request.try_claim(started_at, len(requests))
        ]
        total_columns = sum(request.columns for request in claimed)
        op_counts = None
        if claimed:
            try:
                output, _ = self.run_stage(
                    self.plan, layer,
                    np.concatenate([r.activation for r in claimed], axis=1),
                    len(claimed),
                )
                attributions = [
                    self.plan.attribute(layer, request.columns) for request in claimed
                ]
            except Exception as error:  # noqa: BLE001 - forwarded to the clients
                finished_at = time.perf_counter()
                for request in claimed:
                    request.fail(error, finished_at)
            else:
                op_counts = self.plan.layer(layer).op_counts
                finished_at = time.perf_counter()
                offset = 0
                for request, attribution in zip(claimed, attributions):
                    request.attribution = attribution
                    request.fulfil(
                        output[:, offset: offset + request.columns].copy(),
                        finished_at,
                    )
                    offset += request.columns
        return BatchExecution(
            layer=layer,
            batch_size=len(claimed),
            total_columns=total_columns,
            started_at=started_at,
            finished_at=time.perf_counter(),
            op_counts=op_counts,
        )
