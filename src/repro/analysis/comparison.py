"""Accelerator comparison harness (Figs. 10, 12 and 14).

The harness runs a set of workloads through the TransArray and the baseline
simulators and reports cycles, speedups and energy ratios, normalised the same
way the paper's figures are (speedup over a chosen reference design, geometric
mean across models).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from ..baselines import (
    AntAccelerator,
    BitFusionAccelerator,
    BitVertAccelerator,
    OliveAccelerator,
    TenderAccelerator,
)
from ..baselines.base import Accelerator, PerformanceReport
from ..errors import SimulationError
from ..transarray.accelerator import TransitiveArrayAccelerator
from ..workloads.gemm import GemmWorkload
from ..workloads.llama import (
    attention_evaluation_models,
    fc_evaluation_models,
    llama_attention_gemms,
    llama_fc_gemms,
)
from ..workloads.resnet import resnet18_gemms


@dataclass(frozen=True)
class ComparisonRow:
    """One (workload, accelerator) cell of a comparison figure."""

    workload: str
    accelerator: str
    cycles: int
    energy_nj: float
    speedup: float
    energy_efficiency: float


def geomean(values: Iterable[float]) -> float:
    """Geometric mean, the aggregation every comparison figure uses."""
    values = [v for v in values]
    if not values:
        raise SimulationError("geomean of an empty sequence")
    if any(v <= 0 for v in values):
        raise SimulationError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _default_fc_accelerators(samples_per_gemm: int) -> Dict[str, Accelerator]:
    """The Fig. 10 line-up: five baselines plus TA at 8- and 4-bit weights."""
    return {
        "bitfusion": BitFusionAccelerator(),
        "ant": AntAccelerator(),
        "olive": OliveAccelerator(),
        "tender": TenderAccelerator(),
        "bitvert": BitVertAccelerator(),
        "transarray-8bit": TransitiveArrayAccelerator(samples_per_gemm=samples_per_gemm),
        "transarray-4bit": TransitiveArrayAccelerator(samples_per_gemm=samples_per_gemm),
    }


#: (weight, activation) precision each Fig. 10 design runs at under the
#: iso-accuracy setting (LLMs quantize poorly below 8-bit on the baselines).
FC_WEIGHT_BITS: Dict[str, tuple] = {
    "bitfusion": (8, 8),
    "ant": (8, 8),
    "olive": (8, 8),
    "tender": (4, 4),
    "bitvert": (8, 8),
    "transarray-8bit": (8, 8),
    "transarray-4bit": (4, 8),
}


def _run(accelerators: Dict[str, Accelerator], workloads: Dict[str, GemmWorkload],
         precisions: Optional[Dict[str, tuple]], reference: str) -> List[ComparisonRow]:
    reports: Dict[str, Dict[str, PerformanceReport]] = {}
    for workload_name, workload in workloads.items():
        reports[workload_name] = {}
        for accel_name, accelerator in accelerators.items():
            run_workload = workload
            if precisions and accel_name in precisions:
                weight_bits, activation_bits = precisions[accel_name]
                run_workload = workload.with_precision(weight_bits, activation_bits)
            reports[workload_name][accel_name] = accelerator.simulate(run_workload)

    rows: List[ComparisonRow] = []
    for workload_name, per_accel in reports.items():
        if reference not in per_accel:
            raise SimulationError(f"reference accelerator '{reference}' missing")
        ref = per_accel[reference]
        for accel_name, report in per_accel.items():
            rows.append(
                ComparisonRow(
                    workload=workload_name,
                    accelerator=accel_name,
                    cycles=report.cycles,
                    energy_nj=report.energy_nj,
                    speedup=ref.cycles / report.cycles if report.cycles else float("inf"),
                    energy_efficiency=(
                        ref.energy_nj / report.energy_nj if report.energy_nj else float("inf")
                    ),
                )
            )
    return rows


def fc_layer_comparison(
    models: Optional[Sequence[str]] = None,
    sequence_length: int = 2048,
    samples_per_gemm: int = 8,
    reference: str = "olive",
) -> List[ComparisonRow]:
    """Fig. 10: runtime and energy on the FC layers of the LLaMA models."""
    models = list(models) if models is not None else fc_evaluation_models()
    workloads = {name: llama_fc_gemms(name, sequence_length) for name in models}
    accelerators = _default_fc_accelerators(samples_per_gemm)
    return _run(accelerators, workloads, FC_WEIGHT_BITS, reference)


def attention_comparison(
    models: Optional[Sequence[str]] = None,
    sequence_length: int = 2048,
    samples_per_gemm: int = 8,
) -> List[ComparisonRow]:
    """Fig. 12: attention-layer speedups over BitFusion-16bit.

    Only the designs that support on-the-fly quantization appear: BitFusion at
    16-bit, ANT/BitFusion at 8-bit and the TransArray at 8-bit.
    """
    models = list(models) if models is not None else attention_evaluation_models()
    workloads = {name: llama_attention_gemms(name, sequence_length) for name in models}
    accelerators: Dict[str, Accelerator] = {
        "bitfusion-16bit": BitFusionAccelerator(),
        "ant-8bit": AntAccelerator(),
        "transarray-8bit": TransitiveArrayAccelerator(samples_per_gemm=samples_per_gemm),
    }
    precisions = {"bitfusion-16bit": (16, 16), "ant-8bit": (8, 8), "transarray-8bit": (8, 8)}
    return _run(accelerators, workloads, precisions, reference="bitfusion-16bit")


def resnet_comparison(
    samples_per_gemm: int = 6,
    batch: int = 1,
) -> List[ComparisonRow]:
    """Fig. 14: per-layer ResNet-18 speedups of BitFusion, ANT and TransArray.

    Workloads follow the paper's mixed-precision recipe: the TransArray and ANT
    (both optimised for 4-bit CNN quantization) run 4-bit weights on every
    layer except the (8-bit) first conv and classifier, while BitFusion runs
    its 8-bit configuration.
    """
    workload = resnet18_gemms(weight_bits=4, batch=batch)
    accelerators: Dict[str, Accelerator] = {
        "bitfusion": BitFusionAccelerator(),
        "ant": AntAccelerator(),
        "transarray": TransitiveArrayAccelerator(samples_per_gemm=samples_per_gemm),
    }
    rows: List[ComparisonRow] = []
    for shape in workload.gemms:
        per_accel: Dict[str, PerformanceReport] = {}
        for name, accelerator in accelerators.items():
            layer = shape.with_precision(8) if name == "bitfusion" else shape
            per_accel[name] = accelerator.simulate(layer)
        reference = per_accel["bitfusion"]
        for name, report in per_accel.items():
            rows.append(
                ComparisonRow(
                    workload=shape.name,
                    accelerator=name,
                    cycles=report.cycles,
                    energy_nj=report.energy_nj,
                    speedup=reference.cycles / report.cycles,
                    energy_efficiency=reference.energy_nj / report.energy_nj,
                )
            )
    return rows


def geomean_speedup(rows: Sequence[ComparisonRow], accelerator: str) -> float:
    """Geometric-mean speedup of one accelerator across all workloads."""
    values = [row.speedup for row in rows if row.accelerator == accelerator]
    return geomean(values)
