"""Model-level request handles for the redesigned ``submit()`` surface.

A :class:`ModelRequest` is the client's future-style handle for one request
routed through *every* stage of a compiled model's
:class:`~repro.serving.graph.ModelGraph` (optionally for several
autoregressive decode steps).  It is also the unit the server queues: a
worker claims a batch of model requests, runs their concatenated columns
through every stage back to back, and settles each request once its chain
finishes or stops early.

Everything that held for single-layer requests holds here too: a deadline
stops the chain at the next stage boundary, ``cancel()`` abandons the
remaining stages, stage failures (including exhausted retries) surface
from :meth:`ModelRequest.result`.  A finished
handle keeps the input and each decode step's final output, never the
intermediate stage outputs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import RequestCancelledError, ServingError
from .request import CANCELLED, DONE, RUNNING, Request


@dataclass(frozen=True)
class SubmitOptions:
    """Options of one model-level submission (keyword construction only).

    Parameters
    ----------
    deadline_s:
        Relative deadline for the *whole* chain (all stages, all decode
        steps); the request stops with
        :class:`~repro.errors.DeadlineExceededError` at the first stage
        boundary past it, or is shed from the queue before it starts.
    stream:
        Autoregressive decode steps: step ``t``'s final output feeds step
        ``t + 1``'s input.  Requires a streamable graph (last stage output
        width equals first stage input width).  ``1`` (default) is a single
        forward pass.
    priority:
        QoS class of the request: 0 (default) is the most urgent lane,
        larger values are bulk traffic that interactive work overtakes and
        that the admission controller browns out first under load.
    """

    deadline_s: Optional[float] = None
    stream: int = 1
    priority: int = 0

    def __post_init__(self) -> None:
        if self.stream < 1:
            raise ServingError(f"stream must be >= 1 decode steps, got {self.stream}")
        if self.priority < 0:
            raise ServingError(f"priority must be >= 0, got {self.priority}")


class ModelRequest(Request):
    """One whole-model request (future-style client handle).

    Inherits the :class:`~repro.serving.request.Request` state machine;
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
        super().__init__(
            request_id, stages[0], activation, submitted_at,
            deadline_at=deadline_at, priority=priority,
        )
        self.model = model
        self.stages = stages
        self.num_steps = num_steps
        self._step_outputs: List[np.ndarray] = []
        self._cancel_requested = False

    # ------------------------------------------------------------ client API
    @property
    def pipeline_depth(self) -> int:
        """Number of pipeline stages one decode step passes through."""
        return len(self.stages)

    @property
    def steps_completed(self) -> int:
        """Decode steps whose final output is already available."""
        with self._state_lock:
            return len(self._step_outputs)

    def outputs(self, timeout: Optional[float] = None) -> List[np.ndarray]:
        """Block for completion and return every decode step's final output.

        For ``stream=1`` submissions this is a one-element list; the error
        contract of :meth:`result` (the last step's output) applies.
        """
        self.result(timeout)
        with self._state_lock:
            return list(self._step_outputs)

    def cancel(self) -> bool:
        """Abandon the rest of the pipeline.

        Returns ``True`` if the cancellation takes effect: a queued request
        is cancelled at once, a running one at its next stage boundary (or
        instead of completing).  ``False`` once the request has settled.
        """
        with self._state_lock:
            if self._done.is_set():
                return False
            if self.state == RUNNING:
                self._cancel_requested = True
                return True
            self._settle_locked(CANCELLED, self._cancel_error(), time.perf_counter())
            return True

    # ------------------------------------------------------------ server API
    def reset_for_retry(self) -> bool:
        """Return a crashed claim's request to ``pending`` for stage 0."""
        if not super().reset_for_retry():
            return False
        with self._state_lock:
            self._step_outputs = []
        return True

    def _cancel_pending(self) -> bool:
        with self._state_lock:
            return self._cancel_requested

    def _finish_step(self, output: np.ndarray) -> None:
        with self._state_lock:
            self._step_outputs.append(output)

    def _complete(self, finished_at: float) -> bool:
        """Terminal transition once the last step finished; a cancel the
        client asked for meanwhile wins.  Returns whether this call settled
        the request."""
        with self._state_lock:
            if self._done.is_set():
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
