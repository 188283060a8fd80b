"""Quantization substrate: the schemes behind Table 3's accuracy comparison.

The paper compares Tender (4/8-bit), BitFusion (plain INT8), Olive
(outlier-victim pairs), BitVert (bit-level binary pruning), ANT (adaptive data
types with group quantization) and the TransArray's own group-wise INT4/INT8
pipeline (QServe-style).  Each scheme is implemented for real on synthetic
tensors; the perplexity proxy in :mod:`repro.quant.accuracy` maps the induced
quantization error onto the published FP16 perplexity anchors.
"""

from .quantizer import (
    QuantizedTensor,
    group_quantize,
    quantize,
)
from .schemes import (
    SCHEME_REGISTRY,
    ant_adaptive_quantize,
    bitfusion_int8_quantize,
    bitvert_pruned_quantize,
    olive_outlier_victim_quantize,
    tender_power_of_two_quantize,
    transarray_group_quantize,
)
from .accuracy import (
    FP16_PERPLEXITY,
    PerplexityEntry,
    perplexity_proxy,
    perplexity_table,
)

__all__ = [
    "QuantizedTensor",
    "group_quantize",
    "quantize",
    "SCHEME_REGISTRY",
    "ant_adaptive_quantize",
    "bitfusion_int8_quantize",
    "bitvert_pruned_quantize",
    "olive_outlier_victim_quantize",
    "tender_power_of_two_quantize",
    "transarray_group_quantize",
    "FP16_PERPLEXITY",
    "PerplexityEntry",
    "perplexity_proxy",
    "perplexity_table",
]
