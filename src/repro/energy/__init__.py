"""Area and energy models at the 28 nm node used by the paper's evaluation."""

from .energy_model import EnergyParameters, OperationEnergyTable
from .sram import sram_access_energy_pj
from .area import AreaModel, AreaReport, transarray_area_report, baseline_area_report
from .breakdown import EnergyBreakdown

__all__ = [
    "EnergyParameters",
    "OperationEnergyTable",
    "sram_access_energy_pj",
    "AreaModel",
    "AreaReport",
    "transarray_area_report",
    "baseline_area_report",
    "EnergyBreakdown",
]
