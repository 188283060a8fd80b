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

Every activation the library multiplies enters through
:func:`repro.exact.as_exact_int64`, which refuses a conversion to int64 that
would change a value instead of flooring or wrapping it.
"""

from __future__ import annotations

import time

import numpy as np

from ..errors import SimulationError
from ..exact import FLOAT64_EXACT, as_exact_int64


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
        if weight.dtype.kind not in "iu":
            weight = weight.astype(np.int64)
        magnitude = _magnitude(weight)
        #: ``max_row sum|w|``: bounds every partial sum per unit of ``max|a|``.
        # Summed in float64, which is exact below 2**53 and, since rounding
        # is monotone, never lands below 2**53 when the exact sum does not:
        # the range check below is exact even where an integer sum would wrap.
        self.row_bound = int(magnitude.sum(axis=1, dtype=np.float64).max(initial=0))
        #: ``max|w|``: bounds every partial sum of a K block per unit of
        #: ``max|a|`` and block width.
        self.max_weight = int(magnitude.max(initial=0))
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
        self.weight = weight.astype(np.float64)
        self.weight.setflags(write=False)
        #: Bytes of compiled state: the float64 copy of the weight.
        self.kernel_bytes = int(self.weight.nbytes)
        #: Seconds spent building the executor.
        self.build_s = time.perf_counter() - start

    def execute(self, activation: np.ndarray) -> np.ndarray:
        """``weight @ activation`` for an integer ``(K, M)`` activation."""
        activation = as_exact_int64(activation)
        peak = max(int(activation.max()), -int(activation.min())) if activation.size else 0
        if self.row_bound * peak < FLOAT64_EXACT:
            return (self.weight @ activation.astype(np.float64)).astype(np.int64)
        if self.max_weight * peak < FLOAT64_EXACT:
            return self._block_product(activation, peak)
        return self._digit_product(activation, peak)

    def _block_product(self, activation: np.ndarray, peak: int) -> np.ndarray:
        """One exact float64 product per block of K, summed in int64 so the
        sum wraps modulo ``2**64``."""
        k = self.weight.shape[1]
        widest = (FLOAT64_EXACT - 1) // (self.max_weight * peak)
        blocks = -(-k // widest)
        width = -(-k // blocks)
        values = activation.astype(np.float64)
        total = np.zeros((self.weight.shape[0], activation.shape[1]), dtype=np.int64)
        for start in range(0, k, width):
            block = slice(start, start + width)
            total += (self.weight[:, block] @ values[block]).astype(np.int64)
        return total

    def _digit_product(self, activation: np.ndarray, peak: int) -> np.ndarray:
        """One exact float64 product per base-``2**b`` digit of ``|a|``,
        recombined in uint64 so the sum wraps modulo ``2**64``."""
        bits = self.digit_bits
        mask = np.uint64((1 << bits) - 1)
        sign = np.where(activation < 0, -1.0, 1.0)
        # |-2**63| wraps back to -2**63 in int64; read as uint64 it is 2**63.
        magnitude = np.abs(activation).view(np.uint64)
        total = np.zeros((self.weight.shape[0], activation.shape[1]), dtype=np.uint64)
        for shift in range(0, peak.bit_length(), bits):
            digit = ((magnitude >> np.uint64(shift)) & mask).astype(np.float64) * sign
            product = (self.weight @ digit).astype(np.int64).view(np.uint64)
            total += product << np.uint64(shift)
        return total.view(np.int64)


def _magnitude(codes: np.ndarray) -> np.ndarray:
    """``|codes|`` without wrapping, in the unsigned type of the codes' width.

    ``np.abs`` keeps a signed dtype, so it maps the type's most negative
    value to itself (``-128`` for int8); read as unsigned it is ``2**(b-1)``.
    """
    magnitude = np.abs(codes)
    if codes.dtype.kind == "i":
        magnitude = magnitude.view(f"u{codes.dtype.itemsize}")
    return magnitude
