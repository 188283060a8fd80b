"""Baseline accelerator models the paper compares against (Sec. 5.1).

All five baselines are re-implemented on the same memory/energy substrate as
the TransArray so the comparison is apples-to-apples: only the compute-array
geometry, native precision and sparsity mechanism differ, exactly as in the
paper's methodology ("we rewrite all baseline PE implementations").
"""

from .base import Accelerator, PerformanceReport
from .dense import DenseInt8Accelerator
from .bitfusion import BitFusionAccelerator
from .ant import AntAccelerator
from .olive import OliveAccelerator
from .tender import TenderAccelerator
from .bitvert import BitVertAccelerator

__all__ = [
    "Accelerator",
    "PerformanceReport",
    "DenseInt8Accelerator",
    "BitFusionAccelerator",
    "AntAccelerator",
    "OliveAccelerator",
    "TenderAccelerator",
    "BitVertAccelerator",
    "baseline_registry",
]


def baseline_registry(include_transarray: bool = False):
    """Name -> constructor mapping for every baseline accelerator.

    With ``include_transarray`` the TransArray itself joins the line-up (the
    import is deferred to avoid a package cycle).
    """
    registry = {
        "bitfusion": BitFusionAccelerator,
        "ant": AntAccelerator,
        "olive": OliveAccelerator,
        "tender": TenderAccelerator,
        "bitvert": BitVertAccelerator,
        "dense-int8": DenseInt8Accelerator,
    }
    if include_transarray:
        from ..transarray.accelerator import TransitiveArrayAccelerator

        registry["transarray"] = TransitiveArrayAccelerator
    return registry
