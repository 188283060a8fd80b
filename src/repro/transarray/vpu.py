"""Vector processing unit (VPU): non-GEMM operations (paper Sec. 4.5).

The VPU handles the element-wise work between GEMMs, overlapping with GEMM
execution.  The attention example runs its softmax here.
"""

from __future__ import annotations

import numpy as np


class VectorProcessingUnit:
    """Functional model of the VPU."""

    def softmax(self, scores: np.ndarray, axis: int = -1) -> np.ndarray:
        """Numerically-stable softmax used by the attention examples."""
        scores = np.asarray(scores, dtype=np.float64)
        shifted = scores - scores.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=axis, keepdims=True)
