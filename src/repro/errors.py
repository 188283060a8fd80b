"""Exception hierarchy for the Transitive Array reproduction.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures without masking programming errors such as
``TypeError`` raised by misuse of the Python API itself.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """Raised when a hardware or workload configuration is inconsistent."""


class QuantizationError(ReproError):
    """Raised when a tensor cannot be quantized with the requested scheme."""


class BitSliceError(ReproError):
    """Raised when bit-slicing is asked to decompose an out-of-range matrix."""


class ScoreboardError(ReproError):
    """Raised when scoreboarding receives invalid TransRows or SI tables."""


class SimulationError(ReproError):
    """Raised when a cycle-level simulation cannot be carried out."""


class WorkloadError(ReproError):
    """Raised when a workload descriptor is malformed or unknown."""


class ServingError(ReproError):
    """Raised when the serving runtime is misused or a request fails."""


class BackpressureError(ServingError):
    """Raised by admission control when the bounded request queue is full."""


class ShedError(ServingError):
    """Raised when the overload-control layer sheds a request.

    Unlike :class:`BackpressureError` (the queue is simply full), a shed is a
    *decision*: the admission controller judged the request doomed to miss its
    deadline or its priority class is being browned out.  ``retry_after_s``
    is the server's hint for when retrying is worth it — brownout, not
    cliff.
    """

    def __init__(self, message: str, retry_after_s: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)


class TransientServingError(ServingError):
    """A serving failure expected to clear on its own (worth retrying).

    The server's :class:`~repro.serving.policy.RetryPolicy` retries batch
    execution only on this subtree; every other error fails the claim's
    requests at once because re-running the same inputs would fail the same
    way.
    """


class DeadlineExceededError(ServingError):
    """Raised when a request's deadline elapses before it was computed."""


class RequestCancelledError(ServingError):
    """Raised from ``ModelRequest.result()`` after a client cancelled it."""


class WorkerCrashError(ServingError):
    """An (injected) failure that escapes a serving worker's loop entirely.

    Raised by the fault injector to kill worker threads; the server's
    supervisor detects the death and restarts the worker within its budget.
    """


class InjectedFaultError(TransientServingError):
    """A fault-injection engine failure (transient by construction)."""
