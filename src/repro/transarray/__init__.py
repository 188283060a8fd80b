"""The Transitive Array architecture model (paper Sec. 4, Figs. 7-8).

The package models one TransArray unit — dispatcher, distributed prefix
buffer, PPE/APE arrays — and the six-unit accelerator that prices full GEMM
workloads through tiling and (dynamic or static) scoreboarding.  The
accelerator prices the three-stage pipeline fill and DRAM traffic inline
(:mod:`repro.transarray.accelerator`); the VPU (:mod:`repro.transarray.vpu`)
models the nonlinear glue of attention.
"""

from .tiling import TileShape, TilingPlan, plan_tiling
from .prefix_buffer import DistributedPrefixBuffer
from .pe import AccumulationPE, PrefixPE
from .dispatcher import Dispatcher, DispatchRecord
from .unit import SubTileReport, TransArrayUnit
from .accelerator import GemmProfile, RequestAttribution, TransitiveArrayAccelerator

__all__ = [
    "TileShape",
    "TilingPlan",
    "plan_tiling",
    "DistributedPrefixBuffer",
    "AccumulationPE",
    "PrefixPE",
    "Dispatcher",
    "DispatchRecord",
    "SubTileReport",
    "TransArrayUnit",
    "GemmProfile",
    "RequestAttribution",
    "TransitiveArrayAccelerator",
]
