"""Readable bit-slicing references: TransRow extraction, unpacking, plane
reconstruction and the plane-by-plane GEMM (paper Sec. 2.1-2.2)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.bitslice import BitPlanes, bit_plane_weights, bit_slice, pack_bits_to_uint
from repro.errors import BitSliceError, SimulationError
from repro.exact import as_exact_int64


@dataclass(frozen=True)
class TransRow:
    """One T-bit TransRow of a bit-sliced weight sub-tile.

    ``value`` is the packed unsigned T-bit pattern, ``source_row`` the weight
    row it contributes to, ``bit_level`` its plane (0 = LSB) and
    ``plane_weight`` that plane's signed weight.
    """

    value: int
    source_row: int
    bit_level: int
    plane_weight: int
    width: int

    def __post_init__(self) -> None:
        if not 0 <= self.value < (1 << self.width):
            raise BitSliceError(
                f"TransRow value {self.value} does not fit in {self.width} bits"
            )


def extract_transrows(
    weight_tile: np.ndarray,
    weight_bits: int,
    transrow_bits: int,
    column_chunk: int = 0,
) -> List[TransRow]:
    """TransRows of one ``T``-wide column chunk of a signed ``(n, k)`` tile.

    The chunk spans columns ``[column_chunk*T, (column_chunk+1)*T)``; a final
    partial chunk is zero-padded on the right.  Rows come out ordered by
    (source row, MSB-to-LSB plane), the row order of
    :func:`repro.bitslice.binary_weight_matrix`.
    """
    weight_tile = np.asarray(weight_tile)
    if weight_tile.ndim != 2:
        raise BitSliceError(f"weight tile must be 2-D, got shape {weight_tile.shape}")
    n_rows, n_cols = weight_tile.shape
    start = column_chunk * transrow_bits
    if start >= n_cols or column_chunk < 0:
        raise BitSliceError(
            f"column chunk {column_chunk} out of range for {n_cols} columns "
            f"and TransRow width {transrow_bits}"
        )
    stop = min(start + transrow_bits, n_cols)
    chunk = weight_tile[:, start:stop]
    if chunk.shape[1] < transrow_bits:
        chunk = np.pad(chunk, ((0, 0), (0, transrow_bits - chunk.shape[1])))

    planes = bit_slice(chunk, weight_bits)
    weights = bit_plane_weights(weight_bits)
    rows: List[TransRow] = []
    for row in range(n_rows):
        for s in range(weight_bits - 1, -1, -1):
            value = int(pack_bits_to_uint(planes.planes[s, row]))
            rows.append(
                TransRow(
                    value=value,
                    source_row=row,
                    bit_level=s,
                    plane_weight=int(weights[s]),
                    width=transrow_bits,
                )
            )
    return rows


def unpack_uint_to_bits(values: np.ndarray, width: int) -> np.ndarray:
    """Inverse of :func:`repro.bitslice.pack_bits_to_uint`: a ``(..., width)``
    0/1 matrix with the most-significant bit in column 0."""
    if width < 1 or width > 63:
        raise BitSliceError(f"TransRow width must be in [1, 63], got {width}")
    values = np.asarray(values, dtype=np.int64)
    if values.size and (values.min() < 0 or values.max() >= (1 << width)):
        raise BitSliceError(
            f"values outside [0, {(1 << width) - 1}] cannot be unpacked at width {width}"
        )
    shifts = np.arange(width - 1, -1, -1)
    return ((values[..., None] >> shifts) & 1).astype(np.uint8)


def reconstruct_from_planes(planes: BitPlanes) -> np.ndarray:
    """Rebuild the signed integer matrix from its bit planes (exact inverse)."""
    weighted = planes.weights.reshape(-1, 1, 1) * planes.planes.astype(np.int64)
    return weighted.sum(axis=0)


def sliced_gemm(weight: np.ndarray, activation: np.ndarray, bits: int) -> np.ndarray:
    """``weight @ activation`` accumulated plane by plane.

    Each binary-plane GEMM is scaled by its plane weight, so the sum equals
    the integer product exactly: reordering the accumulation, as the
    Transitive Array does, is lossless.  An activation that is not exactly an
    int64 matrix (non-integral, NaN, inf, uint64 past int64) raises
    :class:`BitSliceError`.
    """
    weight = np.asarray(weight)
    try:
        activation = as_exact_int64(activation)
    except SimulationError as error:
        raise BitSliceError(str(error)) from error
    planes = bit_slice(weight, bits)
    if activation.ndim != 2 or activation.shape[0] != weight.shape[1]:
        raise BitSliceError(
            f"activation shape {activation.shape} incompatible with weight {weight.shape}"
        )
    acc = np.zeros((weight.shape[0], activation.shape[1]), dtype=np.int64)
    for s in range(bits):
        acc += planes.weights[s] * (planes.planes[s].astype(np.int64) @ activation)
    return acc
