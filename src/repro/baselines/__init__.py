"""Baseline accelerator models the paper compares against (Sec. 5.1).

All five baselines are re-implemented on the same memory/energy substrate as
the TransArray so the comparison is apples-to-apples: only the compute-array
geometry, native precision and sparsity mechanism differ, exactly as in the
paper's methodology ("we rewrite all baseline PE implementations").
"""

from .base import Accelerator, PerformanceReport
from .bitfusion import BitFusionAccelerator
from .ant import AntAccelerator
from .olive import OliveAccelerator
from .tender import TenderAccelerator
from .bitvert import BitVertAccelerator

__all__ = [
    "Accelerator",
    "PerformanceReport",
    "BitFusionAccelerator",
    "AntAccelerator",
    "OliveAccelerator",
    "TenderAccelerator",
    "BitVertAccelerator",
]
