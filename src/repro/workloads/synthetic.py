"""Synthetic tensor generators standing in for the paper's model traces.

The paper extracts real LLaMA weights and activations; offline we generate
synthetic tensors with matching first-order statistics: weights are Gaussian
with a small fraction of heavy-tailed outlier channels (the structure that
motivates Olive/SmoothQuant), and the design-space exploration uses uniform 0/1
matrices exactly as the paper's Fig. 9 does.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import WorkloadError
from .gemm import GemmShape, GemmWorkload


def _rng(seed: Optional[int]) -> np.random.Generator:
    return np.random.default_rng(seed)


def synthetic_gemm_workload(
    num_layers: int = 4,
    n: int = 64,
    k: int = 64,
    m: int = 16,
    weight_bits: int = 8,
    activation_bits: int = 8,
    name: str = "synthetic",
) -> GemmWorkload:
    """Uniform stack of identically shaped GEMM layers.

    A minimal stand-in model for tests, examples and the serving runtime:
    ``num_layers`` layers named ``layer0 .. layer{num_layers-1}``, each an
    ``(n, k) x (k, m)`` GEMM at the given precisions, iterated like every
    other workload through :meth:`~repro.workloads.gemm.GemmWorkload.layers`.
    """
    if num_layers < 1:
        raise WorkloadError("num_layers must be positive")
    shapes = [
        GemmShape(f"layer{index}", n=n, k=k, m=m,
                  weight_bits=weight_bits, activation_bits=activation_bits)
        for index in range(num_layers)
    ]
    return GemmWorkload(name=name, gemms=shapes)


def random_binary_matrix(rows: int, cols: int, density: float = 0.5,
                         seed: Optional[int] = None) -> np.ndarray:
    """Uniform random 0/1 matrix (the Fig. 9 design-space input)."""
    if rows < 1 or cols < 1:
        raise WorkloadError("matrix dimensions must be positive")
    if not 0.0 <= density <= 1.0:
        raise WorkloadError(f"density must be in [0, 1], got {density}")
    return (_rng(seed).random((rows, cols)) < density).astype(np.uint8)


def outlier_weight_matrix(rows: int, cols: int, std: float = 0.02,
                          outlier_fraction: float = 0.01, outlier_scale: float = 10.0,
                          seed: Optional[int] = None) -> np.ndarray:
    """Gaussian weights with a fraction of heavy-tailed outlier channels.

    LLM weight/activation tensors famously contain a few channels whose
    magnitude is an order of magnitude larger than the rest; those channels are
    what outlier-aware quantizers (Olive, SmoothQuant, AWQ) are designed
    around, so the accuracy comparison needs them present.
    """
    if not 0.0 <= outlier_fraction <= 1.0:
        raise WorkloadError("outlier_fraction must be in [0, 1]")
    rng = _rng(seed)
    matrix = rng.normal(0.0, std, size=(rows, cols))
    num_outlier_cols = max(1, int(round(cols * outlier_fraction))) if outlier_fraction > 0 else 0
    if num_outlier_cols:
        outlier_cols = rng.choice(cols, size=num_outlier_cols, replace=False)
        matrix[:, outlier_cols] *= outlier_scale
    return matrix
