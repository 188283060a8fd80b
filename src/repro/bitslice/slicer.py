"""Exact bit-plane decomposition of two's-complement integer matrices.

The Transitive Array operates on *binary* weight matrices obtained by slicing a
quantized integer matrix into its bit planes (paper Fig. 2).  The functions in
this module implement that decomposition, its inverse, and a reference
"bit-sliced GEMM" used throughout the test-suite to check that every simulated
dataflow is numerically lossless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import BitSliceError, SimulationError
from ..exact import as_exact_int64


def _validate_signed_range(matrix: np.ndarray, bits: int) -> None:
    """Raise :class:`BitSliceError` if ``matrix`` overflows ``bits``-bit ints."""
    if bits < 1 or bits > 32:
        raise BitSliceError(f"bit width must be in [1, 32], got {bits}")
    if matrix.ndim != 2:
        raise BitSliceError(f"expected a 2-D matrix, got shape {matrix.shape}")
    if not np.issubdtype(matrix.dtype, np.integer):
        raise BitSliceError(f"expected an integer matrix, got dtype {matrix.dtype}")
    lo = -(1 << (bits - 1)) if bits > 1 else 0
    hi = (1 << (bits - 1)) - 1 if bits > 1 else 1
    if matrix.size and (matrix.min() < lo or matrix.max() > hi):
        raise BitSliceError(
            f"matrix values [{matrix.min()}, {matrix.max()}] do not fit in "
            f"{bits}-bit two's complement range [{lo}, {hi}]"
        )


def bit_plane_weights(bits: int) -> np.ndarray:
    """Return the signed weight of each bit plane for ``bits``-bit integers.

    Plane ``s`` (LSB = 0) weighs ``2**s`` except the most-significant plane,
    which weighs ``-2**(bits-1)`` under two's-complement semantics.  For a
    1-bit matrix the single plane weighs ``+1`` (the paper treats 1-bit
    TransRows as unsigned).
    """
    if bits < 1:
        raise BitSliceError(f"bit width must be >= 1, got {bits}")
    weights = np.array([1 << s for s in range(bits)], dtype=np.int64)
    if bits > 1:
        weights[bits - 1] = -(1 << (bits - 1))
    return weights


@dataclass(frozen=True)
class BitPlanes:
    """Bit-plane decomposition of an integer matrix.

    Attributes
    ----------
    planes:
        Array of shape ``(bits, N, K)`` with values in {0, 1}; ``planes[s]`` is
        the plane of bit ``s`` (LSB first).
    weights:
        Signed weight of each plane (see :func:`bit_plane_weights`).
    bits:
        Number of planes.
    """

    planes: np.ndarray
    weights: np.ndarray
    bits: int

    @property
    def shape(self) -> tuple:
        """Shape ``(N, K)`` of the original matrix."""
        return self.planes.shape[1:]


def bit_slice(matrix: np.ndarray, bits: int) -> BitPlanes:
    """Decompose a signed integer matrix into its two's-complement bit planes.

    Parameters
    ----------
    matrix:
        Integer matrix of shape ``(N, K)`` whose values fit in ``bits`` bits.
    bits:
        Two's-complement width ``S``.

    Returns
    -------
    BitPlanes
        Planes ordered LSB first, together with their signed weights.
    """
    matrix = np.asarray(matrix)
    _validate_signed_range(matrix, bits)
    # The narrowest unsigned type holding ``bits`` bits: the integer cast
    # wraps mod 2**8k, which keeps every two's-complement bit below ``bits``.
    unsigned = matrix.astype(np.min_scalar_type((1 << bits) - 1))
    planes = np.empty((bits,) + matrix.shape, dtype=np.uint8)
    for s in range(bits):
        np.bitwise_and(unsigned >> s, 1, out=planes[s], casting="unsafe")
    return BitPlanes(planes=planes, weights=bit_plane_weights(bits), bits=bits)


def reconstruct_from_planes(planes: BitPlanes) -> np.ndarray:
    """Rebuild the signed integer matrix from its bit planes (exact inverse)."""
    weighted = planes.weights.reshape(-1, 1, 1) * planes.planes.astype(np.int64)
    return weighted.sum(axis=0)


def binary_weight_matrix(matrix: np.ndarray, bits: int, msb_first: bool = True) -> np.ndarray:
    """Rearrange an ``(N, K)`` integer matrix into an ``(S*N, K)`` binary matrix.

    Row ``n*bits + s`` of the result is the plane-``s`` slice of original row
    ``n`` (MSB first when ``msb_first`` is set, matching Fig. 2 of the paper,
    which lists Bit-3 .. Bit-0 matrices top to bottom).
    """
    planes = bit_slice(matrix, bits)
    n_rows, n_cols = planes.shape
    # planes.planes is (bits, N, K) with LSB first; interleave planes per row
    # by flipping to the requested plane order and folding (N, bits) into rows.
    ordered = planes.planes[::-1] if msb_first else planes.planes
    return np.ascontiguousarray(
        ordered.transpose(1, 0, 2).reshape(bits * n_rows, n_cols)
    )


def reconstruct_from_binary(binary: np.ndarray, bits: int, msb_first: bool = True) -> np.ndarray:
    """Inverse of :func:`binary_weight_matrix`."""
    binary = np.asarray(binary, dtype=np.int64)
    if binary.ndim != 2 or binary.shape[0] % bits != 0:
        raise BitSliceError(
            f"binary matrix of shape {binary.shape} is not a stack of {bits}-bit rows"
        )
    weights = bit_plane_weights(bits)
    ordered_weights = weights[::-1] if msb_first else weights
    n_rows = binary.shape[0] // bits
    stacked = binary.reshape(n_rows, bits, binary.shape[1])
    return (ordered_weights[None, :, None] * stacked).sum(axis=1)


def sliced_gemm(weight: np.ndarray, activation: np.ndarray, bits: int) -> np.ndarray:
    """Reference GEMM computed plane-by-plane via bit-slicing.

    Computes ``weight @ activation`` by accumulating, for every bit plane, the
    binary-plane GEMM scaled by the plane weight.  The result is exactly equal
    to the integer product; the function exists so tests can assert that the
    accumulation-reordering performed by the Transitive Array is lossless
    (paper Sec. 2.1).  An activation that is not exactly an int64 matrix
    (non-integral, NaN, inf, uint64 past int64) raises :class:`BitSliceError`.
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
