"""GEMM workload descriptors shared by the TransArray and baseline simulators."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import WorkloadError


@dataclass(frozen=True)
class GemmShape:
    """One GEMM: ``output[n, m] = sum_k weight[n, k] * activation[k, m]``.

    Attributes
    ----------
    name:
        Human-readable layer name (``"q_proj"``, ``"layer3.conv1"``, ...).
    n, k, m:
        Output rows (weight rows), reduction dimension and output columns.
    weight_bits, activation_bits:
        Integer precision of the two operands after quantization.
    """

    name: str
    n: int
    k: int
    m: int
    weight_bits: int = 8
    activation_bits: int = 8

    def __post_init__(self) -> None:
        if min(self.n, self.k, self.m) < 1:
            raise WorkloadError(f"GEMM '{self.name}' has a non-positive dimension")
        if self.weight_bits < 1 or self.activation_bits < 1:
            raise WorkloadError(f"GEMM '{self.name}' has a non-positive precision")

    @property
    def macs(self) -> int:
        """Multiply-accumulate count of the dense GEMM."""
        return self.n * self.k * self.m

    @property
    def weight_bytes(self) -> int:
        """DRAM footprint of the quantized weight operand."""
        return self.n * self.k * self.weight_bits // 8 if self.weight_bits >= 8 else (
            self.n * self.k * self.weight_bits + 7
        ) // 8

    @property
    def input_bytes(self) -> int:
        """DRAM footprint of the activation operand."""
        return (self.k * self.m * self.activation_bits + 7) // 8

    @property
    def output_bytes(self) -> int:
        """DRAM footprint of the 32-bit partial-sum output."""
        return self.n * self.m * 4

    @property
    def total_bytes(self) -> int:
        """Total off-chip traffic of a single-pass execution."""
        return self.weight_bytes + self.input_bytes + self.output_bytes

    def with_precision(self, weight_bits: int, activation_bits: Optional[int] = None) -> "GemmShape":
        """Copy of the shape at a different quantization precision."""
        return GemmShape(
            name=self.name,
            n=self.n,
            k=self.k,
            m=self.m,
            weight_bits=weight_bits,
            activation_bits=activation_bits if activation_bits is not None else self.activation_bits,
        )


@dataclass
class GemmWorkload:
    """A named collection of GEMMs (one model layer group or a whole block)."""

    name: str
    gemms: List[GemmShape]

    def __post_init__(self) -> None:
        if not self.gemms:
            raise WorkloadError(f"workload '{self.name}' has no GEMMs")

    # ------------------------------------------------------- layer iteration
    def layers(self) -> Tuple[GemmShape, ...]:
        """The workload's GEMMs as an immutable layer sequence.

        Every workload builder (LLaMA FC/attention, ResNet-18, generic
        attention, synthetic) produces a :class:`GemmWorkload`, so this is the
        one uniform way to walk a model's layers — the serving compiler and
        the simulators iterate through it rather than reaching into
        ``.gemms``.
        """
        return tuple(self.gemms)

    @property
    def total_macs(self) -> int:
        """MAC count over every GEMM in the workload."""
        return sum(shape.macs for shape in self.gemms)

    def with_precision(self, weight_bits: int, activation_bits: Optional[int] = None) -> "GemmWorkload":
        """Copy of the workload at a different quantization precision."""
        return GemmWorkload(
            name=self.name,
            gemms=[shape.with_precision(weight_bits, activation_bits) for shape in self.gemms],
        )

    def sample_weight(self, shape: GemmShape, rng: np.random.Generator) -> np.ndarray:
        """Synthetic quantized weight tensor for one GEMM of the workload.

        The codes come in the narrowest signed dtype holding
        ``weight_bits``-bit values (int8 up to 8 bits).  They are drawn as
        int64 in blocks of 256 rows, which gives the same values and leaves
        ``rng`` in the same state as one ``(N, K)`` int64 draw, without
        allocating that draw.
        """
        lo = -(1 << (shape.weight_bits - 1))
        hi = (1 << (shape.weight_bits - 1)) - 1
        weight = np.empty((shape.n, shape.k), dtype=np.min_scalar_type(lo))
        for start in range(0, shape.n, 256):
            block = weight[start:start + 256]
            block[...] = rng.integers(lo, hi + 1, size=block.shape, dtype=np.int64)
        return weight
