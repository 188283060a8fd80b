"""Core of the reproduction: the transitive-sparsity GEMM engine and metrics.

``repro.core`` hosts the paper's primary contribution in functional form: a
bit-exact GEMM engine that executes through prefix-result reuse, and its
scalar reference (:mod:`repro.core.transitive_gemm`), the exact float64-BLAS
executor its compiled plans serve through (:mod:`repro.core.executor`), the
operation-count metrics used by the design-space exploration
(:mod:`repro.core.metrics`), and the ZR/TR/FR/PR node classification of
Sec. 5.2 (:mod:`repro.core.classification`).
"""

from .metrics import OpCounts, op_counts_from_result, op_counts_from_static_outcome
from .classification import NodeType, classify_nodes, classification_percentages
from .executor import ExactExecutor
from .transitive_gemm import (
    GemmPlan,
    ScoreboardCacheInfo,
    TransitiveGemmEngine,
    narrow_codes,
    scalar_multiply,
)

__all__ = [
    "OpCounts",
    "op_counts_from_result",
    "op_counts_from_static_outcome",
    "NodeType",
    "classify_nodes",
    "classification_percentages",
    "ExactExecutor",
    "GemmPlan",
    "ScoreboardCacheInfo",
    "TransitiveGemmEngine",
    "narrow_codes",
    "scalar_multiply",
]
