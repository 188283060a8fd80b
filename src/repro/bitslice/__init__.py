"""Bit-slicing substrate: decompose quantized integer matrices into binary planes.

Bit-slicing (paper Sec. 2.1, Fig. 2) turns an ``S``-bit integer weight matrix of
shape ``(N, K)`` into an ``(S*N, K)`` binary matrix whose rows — split into
``T``-bit segments — are the TransRows consumed by the Transitive Array.
The decomposition is exact: two's-complement semantics are preserved by giving
the most-significant bit plane a negative weight, so the bit-sliced GEMM result
is bit-identical to the integer GEMM result.
"""

from .slicer import (
    BitPlanes,
    bit_plane_weights,
    bit_slice,
    binary_weight_matrix,
)
from .packing import pack_bits_to_uint, pack_transrow_chunks

__all__ = [
    "BitPlanes",
    "bit_plane_weights",
    "bit_slice",
    "binary_weight_matrix",
    "pack_bits_to_uint",
    "pack_transrow_chunks",
]
