"""TransRow extraction: the fundamental unit of the Transitive Array.

A *TransRow* (paper Sec. 2.2) is one ``T``-bit wide segment of one bit plane of
one weight row.  It is identified by its packed unsigned value, remembers which
output row and bit level it contributes to, and carries the signed plane weight
used by the APE's shift-and-accumulate stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..errors import BitSliceError
from .packing import pack_bits_to_uint, unpack_uint_to_bits
from .slicer import bit_plane_weights, bit_slice


@dataclass(frozen=True)
class TransRow:
    """One T-bit TransRow of a bit-sliced weight sub-tile.

    Attributes
    ----------
    value:
        Packed unsigned integer value of the T-bit pattern (0 .. 2**T - 1).
    source_row:
        Index of the original weight row this TransRow contributes to.
    bit_level:
        Bit plane the TransRow came from (0 = LSB).
    plane_weight:
        Signed weight of that plane (``2**s`` or ``-2**(S-1)`` for the MSB).
    width:
        TransRow width ``T`` in bits.
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

    @property
    def popcount(self) -> int:
        """Hamming weight of the TransRow value (its Hasse-graph level)."""
        return bin(self.value).count("1")

    @property
    def bits(self) -> np.ndarray:
        """The 0/1 vector of the TransRow, MSB (input row 0) first."""
        return unpack_uint_to_bits(np.array([self.value]), self.width)[0]


def extract_transrows(
    weight_tile: np.ndarray,
    weight_bits: int,
    transrow_bits: int,
    column_chunk: int = 0,
) -> List[TransRow]:
    """Extract TransRows from one ``T``-wide column chunk of a weight tile.

    Parameters
    ----------
    weight_tile:
        Signed integer weight tile of shape ``(n, k)``.
    weight_bits:
        Quantized precision ``S`` of the weights.
    transrow_bits:
        TransRow width ``T``; the chunk spans columns
        ``[column_chunk*T, (column_chunk+1)*T)``.  A final partial chunk is
        zero-padded on the right, matching a hardware design that pads the
        sub-tile's unused input lanes with zero activations.
    column_chunk:
        Which ``T``-wide chunk of the ``k`` dimension to extract.

    Returns
    -------
    list of TransRow
        ``n * weight_bits`` TransRows ordered by (source row, MSB-to-LSB plane),
        matching the row order of :func:`repro.bitslice.binary_weight_matrix`.
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

