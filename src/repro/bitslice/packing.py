"""Packing helpers converting between bit vectors and TransRow integer values.

The Transitive Array identifies each TransRow by the unsigned integer value of
its ``T``-bit pattern (paper Fig. 3).  The paper's figures read bit patterns
left-to-right with the *leftmost* bit addressing the first input row, so the
convention used throughout this library is:

    bit ``T-1-j`` of the packed integer corresponds to input row ``j``.

e.g. the 4-bit pattern ``1011`` packs to ``11`` and selects input rows 0, 2, 3.
"""

from __future__ import annotations

import numpy as np

from ..errors import BitSliceError
from .slicer import bit_slice


def pack_bits_to_uint(bits: np.ndarray) -> np.ndarray:
    """Pack rows of a binary matrix into unsigned TransRow values.

    Parameters
    ----------
    bits:
        Array of shape ``(..., T)`` with values in {0, 1}.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(...,)`` holding each row's packed integer value, with
        the first column mapped to the most-significant bit.
    """
    bits = np.asarray(bits)
    if bits.size and not np.isin(bits, (0, 1)).all():
        raise BitSliceError("pack_bits_to_uint expects a 0/1 matrix")
    width = bits.shape[-1]
    if width < 1 or width > 63:
        raise BitSliceError(f"TransRow width must be in [1, 63], got {width}")
    weights = (1 << np.arange(width - 1, -1, -1)).astype(np.int64)
    return (bits.astype(np.int64) * weights).sum(axis=-1)


def pack_transrow_chunks(matrix: np.ndarray, bits: int, width: int) -> np.ndarray:
    """Pack every ``width``-wide column chunk of every bit plane in one pass.

    Returns a ``(ceil(K / T), N, S)`` uint16 array for an ``(N, K)`` matrix of
    ``bits``-bit integers: entry ``[c, n, s]`` is :func:`pack_bits_to_uint` of
    plane ``s`` (LSB = 0) of row ``n`` over columns ``[c*T, (c+1)*T)``, so
    column ``j`` of a chunk is bit ``T-1-j``.  A final partial chunk is
    zero-padded on the right.
    """
    if width < 1 or width > 16:
        raise BitSliceError(f"TransRow width must be in [1, 16], got {width}")
    planes = bit_slice(matrix, bits).planes  # (S, N, K) uint8, LSB plane first
    n_bits, n_rows, n_cols = planes.shape
    chunks = -(-n_cols // width)
    full = n_cols // width
    # Right-align every chunk in whole bytes: after ``lead`` zero bits, the
    # big-endian bytes np.packbits writes for a chunk are its packed value.
    field = 8 * -(-width // 8)
    lead = field - width
    cells = np.zeros((n_bits, n_rows, chunks, field), dtype=np.uint8)
    cells[:, :, :full, lead:] = planes[:, :, : full * width].reshape(
        n_bits, n_rows, full, width
    )
    if full < chunks:
        cells[:, :, full, lead: lead + n_cols - full * width] = planes[:, :, full * width:]
    packed = np.packbits(cells.reshape(n_bits, n_rows, chunks * field), axis=-1)
    values = packed.view(f">u{field // 8}").astype(np.uint16)
    return values.transpose(2, 1, 0)
