"""Reproduction of *Transitive Array: An Efficient GEMM Accelerator with Result Reuse*.

The library exposes four layers:

* algorithmic substrate — :mod:`repro.quant`, :mod:`repro.bitslice`,
  :mod:`repro.hasse`, :mod:`repro.scoreboard`;
* the paper's contribution in functional form — :mod:`repro.core`, whose
  compiled plans serve through one exact float64-BLAS executor per layer;
* the architectural simulator — :mod:`repro.transarray`, :mod:`repro.baselines`,
  :mod:`repro.energy`;
* the evaluation harness — :mod:`repro.workloads`, :mod:`repro.analysis`.

Quickstart::

    import numpy as np
    from repro import TransitiveGemmEngine

    rng = np.random.default_rng(0)
    weight = rng.integers(-128, 128, size=(64, 64), dtype=np.int64)
    act = rng.integers(-128, 128, size=(64, 32), dtype=np.int64)
    report = TransitiveGemmEngine(transrow_bits=8).multiply(weight, act, weight_bits=8)
    assert (report.output == weight @ act).all()
    print(f"density = {report.density:.1%}")
"""

from .config import (
    CLOCK_FREQUENCY_HZ,
    PROCESS_NODE_NM,
    BaselinePEConfig,
    DRAMConfig,
    TransArrayConfig,
    default_baseline_configs,
)
from .core import (
    GemmPlan,
    NodeType,
    OpCounts,
    TransitiveGemmEngine,
    classification_percentages,
    classify_nodes,
    op_counts_from_result,
)
from .errors import (
    BackpressureError,
    BitSliceError,
    ConfigurationError,
    DeadlineExceededError,
    InjectedFaultError,
    QuantizationError,
    ReproError,
    RequestCancelledError,
    ScoreboardError,
    ServingError,
    ShedError,
    SimulationError,
    TransientServingError,
    WorkerCrashError,
    WorkloadError,
)
from .scoreboard import (
    BatchedScoreboard,
    DynamicScoreboard,
    ScoreboardInfo,
    StaticScoreboard,
    run_scoreboard,
    run_scoreboard_batch,
)

__version__ = "1.0.0"

__all__ = [
    "CLOCK_FREQUENCY_HZ",
    "PROCESS_NODE_NM",
    "BaselinePEConfig",
    "DRAMConfig",
    "TransArrayConfig",
    "default_baseline_configs",
    "GemmPlan",
    "NodeType",
    "OpCounts",
    "TransitiveGemmEngine",
    "classification_percentages",
    "classify_nodes",
    "op_counts_from_result",
    "BackpressureError",
    "BitSliceError",
    "ConfigurationError",
    "DeadlineExceededError",
    "InjectedFaultError",
    "QuantizationError",
    "ReproError",
    "RequestCancelledError",
    "ScoreboardError",
    "ServingError",
    "ShedError",
    "SimulationError",
    "TransientServingError",
    "WorkerCrashError",
    "WorkloadError",
    "BatchedScoreboard",
    "DynamicScoreboard",
    "ScoreboardInfo",
    "StaticScoreboard",
    "run_scoreboard",
    "run_scoreboard_batch",
    "__version__",
]
