"""Exact float64-BLAS executor behind every compiled :class:`GemmPlan`.

Transitive reuse only re-associates integer additions, so the served result
of a planned GEMM is exactly ``weight @ activation``: the reuse lives in the
plan's :class:`~repro.core.metrics.OpCounts` and in the accelerator's cycle
model, not in how the host computes the product.  The host runs float64
BLAS, which is exact while every partial sum of every dot product stays
below ``2**53`` in magnitude, in whatever order BLAS sums.  With
``row_bound = max_row sum|w|``, ``max|w|`` and ``peak = max|a|`` there are
three regimes, each running the cheapest exact product:

* ``row_bound * peak < 2**53``: one float64 product.
* ``max|w| * peak < 2**53``: the reduction dimension K is split into the
  fewest equal blocks of width ``w`` with ``max|w| * w * peak < 2**53``,
  which bounds every partial sum inside a block.  Each block runs one exact
  float64 product and the blocks are added in int64, which wraps modulo
  ``2**64``; together they do one full product's work.
* otherwise: the activation is split into base-``2**b`` digits with
  ``row_bound * (2**b - 1) < 2**53``, each digit product runs exactly in
  float64, and the products are recombined modulo ``2**64`` (one full
  product per digit).

For every int64 activation the result equals the exact product reduced
mod ``2**64`` — the wrap-around semantics of an int64 matmul.

The float64 copy of the weight is stored column-major, so ``weight.T`` is a
C-contiguous ``(K, N)`` matrix, and every product runs activation-on-the-left
as ``(activation.T @ weight.T).T``.  For activations of tens of columns,
as in a prefill, OpenBLAS's dgemm runs that orientation 10–25% faster than
``weight @ activation`` with a row-major weight (``docs/performance.md``);
at one column both reach the same GEMV.  Exactness does not depend on the
orientation: the bounds above hold for every partial sum in any summation
order.  Outputs come back column-major.

Every activation the library multiplies enters through
:func:`repro.exact.as_exact_int64`, which refuses a conversion to int64 that
would change a value instead of flooring or wrapping it.
"""

from __future__ import annotations

import time

import numpy as np

from ..errors import SimulationError
from ..exact import FLOAT64_EXACT, as_exact_int64

#: Activation columns from which one pass is full: from this width on, a
#: pass's time grows about in proportion to its columns, so running two
#: such requests in two passes costs no more than in one.  Narrower passes
#: get cheaper per column the more columns they carry.  With one OpenBLAS
#: thread on int8 layers from 256x256 to 2816x1024, time per column at 32
#: columns is within 1.4x of the cheapest width from 1 to 128, at 8
#: columns 1.4-2.8x and at 1 column 4.6-10x.  The serving queue splits
#: queued requests between waiting workers only from this width.
FULL_PASS_COLUMNS = 32


class ExactExecutor:
    """``weight @ activation`` in int64, computed through float64 BLAS.

    Built once per weight matrix at plan time and immutable afterwards, so
    concurrent :meth:`execute` calls are safe.  The weight may come in any
    integer dtype — a plan hands over its narrow codes (int8 for INT4/INT8
    layers) — and the executor keeps only its float64 copy: the codes are
    converted straight to float64 and their magnitudes are taken in the
    unsigned type of the same width, so no int64 ``(N, K)`` temporary is
    built.  Callers that multiply the codes themselves must widen them
    first: ``int8 @ int8`` wraps in numpy.
    """

    #: Name reported as the plan's kernel backend.
    backend = "float64-blas"

    def __init__(self, weight: np.ndarray) -> None:
        start = time.perf_counter()
        weight = np.asarray(weight)
        if weight.ndim != 2:
            raise SimulationError(f"weight must be a 2-D matrix, got shape {weight.shape}")
        if weight.dtype.kind not in "iu":
            weight = weight.astype(np.int64)
        magnitude = _magnitude(weight)
        #: ``max|w|``: bounds every partial sum of a K block per unit of
        #: ``max|a|`` and block width.
        self.max_weight = int(magnitude.max(initial=0))
        #: ``max_row sum|w|``: bounds every partial sum per unit of ``max|a|``.
        # Summed in the narrowest unsigned type ``max|w| * K`` cannot
        # overflow (for narrow codes several times faster than float64),
        # else in float64: exact below 2**53 and, rounding being monotone,
        # never below 2**53 when the exact sum is not, so the range check
        # below stays exact.
        most = self.max_weight * weight.shape[1]
        accumulator = next((dtype for dtype in (np.uint16, np.uint32, np.uint64)
                            if most <= np.iinfo(dtype).max), np.float64)
        self.row_bound = int(magnitude.sum(axis=1, dtype=accumulator).max(initial=0))
        del magnitude  # free it before the float64 copy: a lower build peak
        if self.row_bound >= FLOAT64_EXACT:
            raise SimulationError(
                f"weight row sums reach {self.row_bound}; float64 cannot run "
                f"them exactly even one activation bit at a time"
            )
        #: Digit width ``b``, chosen so ``row_bound * (2**b - 1) < 2**53``.
        # The widest ``b`` with ``2**b - 1 <= (2**53 - 1) // row_bound``; at
        # least 1 for every accepted row bound.
        self.digit_bits = (
            (FLOAT64_EXACT - 1) // max(self.row_bound, 1) + 1
        ).bit_length() - 1
        self.weight = _column_major_float64(weight)
        #: Bytes of compiled state: the float64 copy of the weight.
        self.kernel_bytes = int(self.weight.nbytes)
        #: Seconds spent building the executor.
        self.build_s = time.perf_counter() - start

    def execute(self, activation: np.ndarray) -> np.ndarray:
        """``weight @ activation`` for an integer ``(K, M)`` activation;
        anything else raises :class:`SimulationError`."""
        activation = as_exact_int64(activation)
        if activation.ndim != 2 or activation.shape[0] != self.weight.shape[1]:
            raise SimulationError(f"shape mismatch: weight {self.weight.shape} x "
                                  f"activation {activation.shape} (need a 2-D matrix)")
        # The ufuncs themselves: ndarray.max/min add a Python call each.
        peak = max(int(np.maximum.reduce(activation, axis=None)),
                   -int(np.minimum.reduce(activation, axis=None))) if activation.size else 0
        if self.row_bound * peak < FLOAT64_EXACT:
            values = activation.astype(np.float64, order="F").T
            return (values @ self.weight.T).astype(np.int64).T
        if self.max_weight * peak < FLOAT64_EXACT:
            return self._block_product(activation, peak)
        return self._digit_product(activation, peak)

    def _block_product(self, activation: np.ndarray, peak: int) -> np.ndarray:
        """One exact float64 product per block of K, summed in int64 so the
        sum wraps modulo ``2**64``.  Each block of ``weight.T`` is a
        contiguous run of its rows."""
        k = self.weight.shape[1]
        widest = (FLOAT64_EXACT - 1) // (self.max_weight * peak)
        blocks = -(-k // widest)
        width = -(-k // blocks)
        values = activation.astype(np.float64, order="F").T
        weight_t = self.weight.T
        total = np.zeros((activation.shape[1], self.weight.shape[0]), dtype=np.int64)
        for start in range(0, k, width):
            block = slice(start, start + width)
            total += (values[:, block] @ weight_t[block]).astype(np.int64)
        return total.T

    def _digit_product(self, activation: np.ndarray, peak: int) -> np.ndarray:
        """One exact float64 product per base-``2**b`` digit of ``|a|``,
        recombined in uint64 so the sum wraps modulo ``2**64``."""
        bits = self.digit_bits
        mask = np.uint64((1 << bits) - 1)
        values = activation.T
        sign = np.where(values < 0, -1.0, 1.0)
        # |-2**63| wraps back to -2**63 in int64; read as uint64 it is 2**63.
        magnitude = np.abs(values).view(np.uint64)
        weight_t = self.weight.T
        total = np.zeros((activation.shape[1], self.weight.shape[0]), dtype=np.uint64)
        for shift in range(0, peak.bit_length(), bits):
            digit = ((magnitude >> np.uint64(shift)) & mask).astype(np.float64) * sign
            product = (digit @ weight_t).astype(np.int64).view(np.uint64)
            total += product << np.uint64(shift)
        return total.view(np.int64).T


def _column_major_float64(codes: np.ndarray) -> np.ndarray:
    """A read-only float64 copy of ``codes`` whose transpose is C-contiguous.

    Filled in blocks of 256 code rows, which stay in cache while their
    columns are written out: one strided transpose of a whole 2816x1024
    layer runs about 3.5x slower (17.5 vs 5.0 ms).
    """
    n, k = codes.shape
    transposed = np.empty((k, n), dtype=np.float64)
    for start in range(0, n, 256):
        transposed[:, start:start + 256] = codes[start:start + 256].T
    transposed.setflags(write=False)
    return transposed.T


def _magnitude(codes: np.ndarray) -> np.ndarray:
    """``|codes|`` without wrapping, in the unsigned type of the codes' width.

    ``np.abs`` keeps a signed dtype, so it maps the type's most negative
    value to itself (``-128`` for int8); read as unsigned it is ``2**(b-1)``.
    """
    magnitude = np.abs(codes)
    if codes.dtype.kind == "i":
        magnitude = magnitude.view(f"u{codes.dtype.itemsize}")
    return magnitude
