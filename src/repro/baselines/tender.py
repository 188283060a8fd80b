"""Tender baseline: tensor decomposition + runtime requantization (Lee et al., ISCA'24).

Tender decomposes activation tensors along feature dimensions into sub-tensors
whose scale factors are powers of two, enabling cheap requantization between
groups.  Its PEs are 4-bit only (no mixed precision), which is why its 4-bit
perplexity in Table 3 is unacceptable and its results are reported for
reference only.  Like Olive it cannot run attention layers online.
"""

from __future__ import annotations

from ..config import DRAMConfig, default_baseline_configs
from ..energy.energy_model import EnergyParameters
from ..errors import SimulationError
from ..workloads.gemm import GemmShape
from .base import MacArrayAccelerator


class TenderAccelerator(MacArrayAccelerator):
    """30x48 array of 4-bit PEs with power-of-two group rescaling."""

    #: Extra cycles per output tile spent on the runtime requantization step,
    #: expressed as a fractional overhead of compute cycles.
    REQUANTIZATION_OVERHEAD: float = 0.05

    def __init__(self, dram: DRAMConfig = DRAMConfig(),
                 energy: EnergyParameters = EnergyParameters(),
                 allow_attention: bool = False) -> None:
        super().__init__(default_baseline_configs()["tender"], dram=dram, energy=energy)
        self.allow_attention = allow_attention

    def validate(self, shape: GemmShape) -> None:
        super().validate(shape)
        if not self.allow_attention and shape.name in ("qk_t", "pv"):
            raise SimulationError(
                "tender: attention GEMMs need offline decomposition and are unsupported"
            )

    def effective_macs_per_cycle(self, shape: GemmShape) -> float:
        base = super().effective_macs_per_cycle(shape)
        return base / (1.0 + self.REQUANTIZATION_OVERHEAD)
