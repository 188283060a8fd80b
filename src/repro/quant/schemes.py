"""The quantization schemes of the accelerators compared in Table 3.

Each scheme takes a float weight tensor and returns a
:class:`~repro.quant.quantizer.QuantizedTensor`; their behaviour on
outlier-heavy LLM tensors is what differentiates the perplexity columns of
Table 3 (BitFusion's naive per-tensor INT8 suffers, outlier-aware and
group-wise schemes stay near-lossless, Tender's 4-bit-only PEs collapse).
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from ..errors import QuantizationError
from .quantizer import QuantizedTensor, group_quantize, quantize


def bitfusion_int8_quantize(weight: np.ndarray, bits: int = 8) -> QuantizedTensor:
    """BitFusion: plain per-tensor symmetric quantization, no outlier handling."""
    return quantize(weight, bits=bits, axis=None)


def transarray_group_quantize(weight: np.ndarray, bits: int = 4,
                              group_size: int = 128) -> QuantizedTensor:
    """TransArray / QServe pipeline: group-wise symmetric INT4 or INT8."""
    return group_quantize(weight, bits=bits, group_size=group_size)


def ant_adaptive_quantize(weight: np.ndarray, bits: int = 8,
                          group_size: int = 128) -> QuantizedTensor:
    """ANT with group quantization: per-group choice of the better data type.

    ANT's adaptive types (flint / int / po2) pick, per tile, whichever numeric
    format fits the local distribution best.  The reproduction picks, per
    group, the better of a uniform grid and a power-of-two (flint-like) grid,
    which captures the adaptive behaviour without the full datatype zoo.
    """
    weight = np.asarray(weight, dtype=np.float64)
    uniform = group_quantize(weight, bits=bits, group_size=group_size)
    qmax = (1 << (bits - 1)) - 1
    # Power-of-two grid: keep sign and round log2 magnitude (flint behaviour
    # favours small values at the cost of coarse large values).
    with np.errstate(divide="ignore"):
        magnitude = np.abs(weight)
        max_exp = np.where(magnitude.max(axis=1, keepdims=True) > 0,
                           np.ceil(np.log2(magnitude.max(axis=1, keepdims=True))), 0)
    exponent = np.clip(np.round(np.log2(np.where(magnitude > 0, magnitude, 1e-30))),
                       max_exp - qmax, max_exp)
    po2 = np.sign(weight) * np.exp2(exponent) * (magnitude > 0)
    uniform_err = ((weight - uniform.dequantized) ** 2).mean(axis=1, keepdims=True)
    po2_err = ((weight - po2) ** 2).mean(axis=1, keepdims=True)
    use_po2 = po2_err < uniform_err
    blended = np.where(use_po2, po2, uniform.dequantized)
    scales = np.where(np.abs(blended).max() > 0, 1.0, 1.0)
    # Represent the blended reconstruction exactly as values*1.0 for error
    # accounting (the datatype is non-uniform so integer codes are per-format).
    return QuantizedTensor(values=np.round(blended / np.where(uniform.scales > 0, uniform.scales, 1.0)).astype(np.int64),
                           scales=uniform.scales * scales, bits=bits)


def olive_outlier_victim_quantize(weight: np.ndarray, bits: int = 8,
                                  outlier_threshold: float = 3.0) -> QuantizedTensor:
    """Olive: outlier-victim pair quantization.

    Values beyond ``outlier_threshold`` standard deviations keep (almost) full
    precision by stealing the encoding slot of their neighbouring "victim",
    which is pruned to zero.  Everything else is quantized per-channel.
    """
    weight = np.asarray(weight, dtype=np.float64)
    if weight.ndim != 2:
        raise QuantizationError("olive quantization expects a 2-D tensor")
    std = weight.std() or 1.0
    outliers = np.abs(weight) > outlier_threshold * std
    inliers = np.where(outliers, 0.0, weight)
    base = quantize(inliers, bits=bits, axis=1)
    reconstructed = base.dequantized
    # Outliers are kept at high precision; their right-hand victim is zeroed.
    victim = np.roll(outliers, 1, axis=1)
    victim[:, 0] = False
    reconstructed = np.where(victim & ~outliers, 0.0, reconstructed)
    reconstructed = np.where(outliers, weight, reconstructed)
    scales = np.where(base.scales > 0, base.scales, 1.0)
    return QuantizedTensor(values=np.round(reconstructed / scales).astype(np.int64),
                           scales=scales, bits=bits)


def tender_power_of_two_quantize(weight: np.ndarray, bits: int = 4,
                                 num_groups: int = 4) -> QuantizedTensor:
    """Tender: channel groups whose scales are constrained to powers of two.

    The power-of-two constraint enables cheap rescaling in hardware but costs
    accuracy, especially at 4 bits — which is why Tender's 4-bit perplexity in
    Table 3 is unacceptable.
    """
    weight = np.asarray(weight, dtype=np.float64)
    if weight.ndim != 2:
        raise QuantizationError("tender quantization expects a 2-D tensor")
    if num_groups < 1:
        raise QuantizationError("num_groups must be positive")
    qmax = (1 << (bits - 1)) - 1
    cols = weight.shape[1]
    group_size = max(1, cols // num_groups)
    values = np.zeros_like(weight)
    scales = np.ones_like(weight)
    for start in range(0, cols, group_size):
        stop = min(start + group_size, cols)
        block = weight[:, start:stop]
        absmax = np.abs(block).max() or 1.0
        scale = 2.0 ** np.ceil(np.log2(absmax / qmax)) if absmax else 1.0
        values[:, start:stop] = np.clip(np.round(block / scale), -qmax - 1, qmax)
        scales[:, start:stop] = scale
    return QuantizedTensor(values=values.astype(np.int64), scales=scales, bits=bits)


def bitvert_pruned_quantize(weight: np.ndarray, bits: int = 8,
                            prune_fraction: float = 0.5) -> QuantizedTensor:
    """BitVert: 8-bit quantization followed by bit-level binary pruning.

    BitVert guarantees >= 50 % bit sparsity by pruning the least-significant
    set bits of values whose bit count exceeds the budget; the pruning error is
    small but non-zero, matching its slightly-better-than-ANT column.
    """
    if not 0.0 <= prune_fraction < 1.0:
        raise QuantizationError("prune_fraction must be in [0, 1)")
    base = quantize(weight, bits=bits, axis=1)
    values = base.values.copy()
    budget = max(1, int(round(bits * (1.0 - prune_fraction))))
    magnitude = np.abs(values)
    sign = np.sign(values)
    pruned = np.zeros_like(magnitude)
    for _ in range(budget):
        top_bit = np.where(magnitude > 0, 2 ** np.floor(np.log2(np.where(magnitude > 0, magnitude, 1))), 0)
        pruned += top_bit.astype(np.int64)
        magnitude = magnitude - top_bit.astype(np.int64)
    return QuantizedTensor(values=(sign * pruned).astype(np.int64), scales=base.scales, bits=bits)


#: Scheme registry keyed by the Table 3 column names.
SCHEME_REGISTRY: Dict[str, Callable[[np.ndarray], QuantizedTensor]] = {
    "tender-4": lambda w: tender_power_of_two_quantize(w, bits=4),
    "bitfusion-8": lambda w: bitfusion_int8_quantize(w, bits=8),
    "olive-8": lambda w: olive_outlier_victim_quantize(w, bits=8),
    "tender-8": lambda w: tender_power_of_two_quantize(w, bits=8),
    "bitvert-8": lambda w: bitvert_pruned_quantize(w, bits=8),
    "ant-8": lambda w: ant_adaptive_quantize(w, bits=8),
    "transarray-int4": lambda w: transarray_group_quantize(w, bits=4),
    "transarray-int8": lambda w: transarray_group_quantize(w, bits=8),
}
