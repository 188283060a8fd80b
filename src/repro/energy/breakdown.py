"""Energy breakdown container used by every simulated accelerator (Fig. 11)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class EnergyBreakdown:
    """Per-component energy of one simulated execution, in nanojoules.

    The component names mirror Fig. 11: DRAM static/dynamic, the compute core,
    and the individual on-chip buffers (weight, input, prefix, output, plus a
    catch-all ``other_buffer`` for double buffers and baseline scratchpads).
    """

    dram_static_nj: float = 0.0
    dram_dynamic_nj: float = 0.0
    core_nj: float = 0.0
    weight_buffer_nj: float = 0.0
    input_buffer_nj: float = 0.0
    prefix_buffer_nj: float = 0.0
    output_buffer_nj: float = 0.0
    other_buffer_nj: float = 0.0

    @property
    def buffer_nj(self) -> float:
        """All on-chip buffer energy."""
        return (
            self.weight_buffer_nj
            + self.input_buffer_nj
            + self.prefix_buffer_nj
            + self.output_buffer_nj
            + self.other_buffer_nj
        )

    @property
    def total_nj(self) -> float:
        """Total energy of the execution."""
        return self.dram_static_nj + self.dram_dynamic_nj + self.core_nj + self.buffer_nj

    def as_dict(self) -> Dict[str, float]:
        """Component mapping for table/figure reporting."""
        return {
            "dram_static": self.dram_static_nj,
            "dram_dynamic": self.dram_dynamic_nj,
            "core": self.core_nj,
            "weight_buffer": self.weight_buffer_nj,
            "input_buffer": self.input_buffer_nj,
            "prefix_buffer": self.prefix_buffer_nj,
            "output_buffer": self.output_buffer_nj,
            "other_buffer": self.other_buffer_nj,
        }

    def percentages(self) -> Dict[str, float]:
        """Component shares in percent of the total (Fig. 11's pie chart)."""
        total = self.total_nj or 1.0
        return {name: 100.0 * value / total for name, value in self.as_dict().items()}

    def merge(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        """Sum two breakdowns (e.g. across layers)."""
        return EnergyBreakdown(
            dram_static_nj=self.dram_static_nj + other.dram_static_nj,
            dram_dynamic_nj=self.dram_dynamic_nj + other.dram_dynamic_nj,
            core_nj=self.core_nj + other.core_nj,
            weight_buffer_nj=self.weight_buffer_nj + other.weight_buffer_nj,
            input_buffer_nj=self.input_buffer_nj + other.input_buffer_nj,
            prefix_buffer_nj=self.prefix_buffer_nj + other.prefix_buffer_nj,
            output_buffer_nj=self.output_buffer_nj + other.output_buffer_nj,
            other_buffer_nj=self.other_buffer_nj + other.other_buffer_nj,
        )

    def scale(self, factor: float) -> "EnergyBreakdown":
        """Scale every component (used to extrapolate from sampled sub-tiles)."""
        return EnergyBreakdown(
            dram_static_nj=self.dram_static_nj * factor,
            dram_dynamic_nj=self.dram_dynamic_nj * factor,
            core_nj=self.core_nj * factor,
            weight_buffer_nj=self.weight_buffer_nj * factor,
            input_buffer_nj=self.input_buffer_nj * factor,
            prefix_buffer_nj=self.prefix_buffer_nj * factor,
            output_buffer_nj=self.output_buffer_nj * factor,
            other_buffer_nj=self.other_buffer_nj * factor,
        )
