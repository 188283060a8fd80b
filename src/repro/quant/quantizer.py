"""Uniform integer quantization primitives (per-tensor, per-channel, per-group)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import QuantizationError


@dataclass(frozen=True)
class QuantizedTensor:
    """An integer tensor together with the scales that map it back to floats.

    ``values`` holds signed integers in ``[-2**(bits-1), 2**(bits-1) - 1]``;
    ``scales`` broadcasts against ``values`` so ``values * scales``
    reconstructs the float tensor.
    """

    values: np.ndarray
    scales: np.ndarray
    bits: int

    @property
    def dequantized(self) -> np.ndarray:
        """Float reconstruction of the tensor."""
        return self.values.astype(np.float64) * self.scales


def _check_bits(bits: int) -> None:
    if bits < 2 or bits > 16:
        raise QuantizationError(f"quantization bits must be in [2, 16], got {bits}")


def quantize(tensor: np.ndarray, bits: int, axis: Optional[int] = None) -> QuantizedTensor:
    """Symmetric uniform quantization, per-tensor or per-channel.

    Parameters
    ----------
    tensor:
        Float tensor to quantize.
    bits:
        Target precision.
    axis:
        ``None`` for one scale per tensor, otherwise one scale per slice along
        ``axis`` (per-channel quantization).
    """
    _check_bits(bits)
    tensor = np.asarray(tensor, dtype=np.float64)
    qmax = (1 << (bits - 1)) - 1
    if axis is None:
        absmax = np.abs(tensor).max() if tensor.size else 0.0
        scales = np.array(absmax / qmax if absmax else 1.0)
    else:
        absmax = np.abs(tensor).max(axis=axis, keepdims=True)
        scales = np.where(absmax > 0, absmax / qmax, 1.0)
    values = np.clip(np.round(tensor / scales), -qmax - 1, qmax).astype(np.int64)
    return QuantizedTensor(values=values, scales=scales, bits=bits)


def group_quantize(tensor: np.ndarray, bits: int, group_size: int = 128) -> QuantizedTensor:
    """Group-wise symmetric quantization along the last axis.

    This is the quantization granularity the TransArray pipeline uses (QServe
    style, group size 128): each group of ``group_size`` consecutive elements
    of the reduction dimension shares one scale.
    """
    _check_bits(bits)
    if group_size < 1:
        raise QuantizationError(f"group size must be positive, got {group_size}")
    tensor = np.asarray(tensor, dtype=np.float64)
    if tensor.ndim != 2:
        raise QuantizationError("group quantization expects a 2-D tensor")
    rows, cols = tensor.shape
    qmax = (1 << (bits - 1)) - 1
    num_groups = (cols + group_size - 1) // group_size
    padded_cols = num_groups * group_size
    padded = np.zeros((rows, padded_cols))
    padded[:, :cols] = tensor
    grouped = padded.reshape(rows, num_groups, group_size)
    absmax = np.abs(grouped).max(axis=2, keepdims=True)
    scales = np.where(absmax > 0, absmax / qmax, 1.0)
    values = np.clip(np.round(grouped / scales), -qmax - 1, qmax)
    values = values.reshape(rows, padded_cols)[:, :cols].astype(np.int64)
    scales_full = np.repeat(scales, group_size, axis=1).reshape(rows, padded_cols)[:, :cols]
    return QuantizedTensor(values=values, scales=scales_full, bits=bits)
