"""Micro-batch execution: one executor pass per coalesced batch of columns.

The batcher is the bridge between claimed requests and the compiled plan.
:meth:`MicroBatcher.run_stage` is the server's one stage primitive: it runs
one layer's executor over an already concatenated activation matrix (every
column of a claimed batch), firing the optional
:class:`~repro.serving.faults.FaultInjector` hook first, and raises on
failure so the server's retry policy sees the error.
The server calls it once per graph stage of a claim.  Outputs are
bit-identical to serving each request alone: the executor multiplies the
concatenated columns against weights shared by construction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..core.metrics import OpCounts
from .faults import FaultInjector
from .plan import ModelPlan


@dataclass(frozen=True)
class BatchExecution:
    """Bookkeeping record of one executed micro-batch (one stage of a claim)."""

    layer: str
    batch_size: int
    total_columns: int
    started_at: float
    finished_at: float
    op_counts: Optional[OpCounts]
    #: Pure executor-pass time (excludes attribution/fulfilment).  Per-stage
    #: occupancy accounting reads this.
    compute_s: float

    @property
    def duration_s(self) -> float:
        """Wall-clock duration of the executor pass."""
        return self.finished_at - self.started_at


class MicroBatcher:
    """Executes coalesced batches of columns against a model plan."""

    def __init__(self, *, faults: Optional[FaultInjector] = None) -> None:
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
