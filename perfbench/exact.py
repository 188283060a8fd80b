"""Exact-arithmetic reference for the chained LLaMA block.

A served output is correct only if it equals the stage chain computed with no
wrap-around.  Each stage runs in float64, which is exact while every partial
sum of every dot product stays below 2**53 in magnitude, whatever order BLAS
sums in; ``max_row sum|w| * max|a|`` bounds all of them.  When that bound
fails, the activation is split into base-2**b digits small enough for the
bound to hold per digit, each digit product runs in float64, and the products
are recombined in int64 when a bound shows that cannot overflow, otherwise in
Python ints.  Outputs are compared by digest, so the
benchmark never holds every served output in memory.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Iterable, Sequence, Set, Tuple

import numpy as np

#: float64 represents every integer of magnitude below this exactly.
FLOAT64_EXACT = 2 ** 53
_INT64_MAX = 2 ** 63 - 1


def digest(output: np.ndarray) -> bytes:
    """Digest of an output's dtype, shape and values."""
    output = np.asarray(output)
    header = f"{output.dtype.str}{output.shape}".encode()
    return hashlib.blake2b(header + output.tobytes(), digest_size=16).digest()


class ExactChain:
    """``w_n @ ... @ w_1 @ x`` without overflow, for the given stage weights."""

    def __init__(self, weights: Sequence[np.ndarray]) -> None:
        self.stages = []
        for weight in weights:
            weight = np.asarray(weight, dtype=np.int64)
            row_bound = int(np.abs(weight).sum(axis=1).max())
            self.stages.append((weight.astype(np.float64), max(row_bound, 1)))
        #: Stage products that needed the digit split.
        self.splits = 0

    def __call__(self, activation: np.ndarray) -> np.ndarray:
        """Exact chain output: ``int64`` when it fits, else Python ints."""
        x = np.asarray(activation)
        if x.dtype != object:
            x = x.astype(np.int64)
        for weight, row_bound in self.stages:
            x = self._matmul(weight, row_bound, x)
        return x

    def _matmul(self, weight: np.ndarray, row_bound: int, x: np.ndarray) -> np.ndarray:
        peak = int(np.abs(x).max()) if x.size else 0
        if row_bound * peak < FLOAT64_EXACT:
            return (weight @ x.astype(np.float64)).astype(np.int64)
        self.splits += 1
        # row_bound * (2**bits - 1) < 2**53, so every digit product is exact.
        bits = (FLOAT64_EXACT // row_bound).bit_length() - 1
        # Every partial sum of the recombination is bounded by
        # row_bound * (2**peak.bit_length() - 1); when that fits, so does int64.
        if x.dtype != object and row_bound * ((1 << peak.bit_length()) - 1) <= _INT64_MAX:
            return _split_product(weight, x, bits, np.int64)
        return _narrow(_split_product(weight, x.astype(object), bits, object))


def _split_product(weight: np.ndarray, x: np.ndarray, bits: int, dtype) -> np.ndarray:
    """``weight @ x`` from float64 products of ``x``'s base-2**bits digits,
    recombined in ``dtype``."""
    mask = (1 << bits) - 1
    sign = np.where(x < 0, -1, 1)
    magnitude = np.abs(x)
    total = np.zeros((weight.shape[0], x.shape[1]), dtype=dtype)
    shift = 0
    while np.any(magnitude):
        digit = (magnitude & mask).astype(np.float64) * sign
        total += (weight @ digit).astype(np.int64).astype(dtype) << shift
        magnitude = magnitude >> bits
        shift += bits
    return total


def _narrow(values: np.ndarray) -> np.ndarray:
    """``values`` as ``int64`` if every entry fits, else unchanged."""
    if values.size == 0 or max(abs(int(values.max())), abs(int(values.min()))) <= _INT64_MAX:
        return values.astype(np.int64)
    return values


def check_outputs(
    chain: ExactChain,
    inputs: Callable[[int], np.ndarray],
    served: Iterable[Tuple[int, bytes]],
    block_columns: int = 4096,
) -> Set[int]:
    """Indices of requests whose served digest differs from the exact chain.

    ``served`` pairs each request index with the digest of its output, and
    ``inputs(index)`` returns that request's activation.  Requests are stacked
    into blocks of about ``block_columns`` columns, so single-column decode
    traffic is checked with a few large products instead of many tiny ones.
    """
    served = list(served)
    wrong: Set[int] = set()
    if not served:
        return wrong
    width = inputs(served[0][0]).shape[1]
    per_block = max(1, block_columns // width)
    for start in range(0, len(served), per_block):
        block = served[start:start + per_block]
        expected = chain(np.concatenate([inputs(index) for index, _ in block], axis=1))
        for position, (index, got) in enumerate(block):
            column = expected[:, position * width:(position + 1) * width]
            if column.dtype == object:
                column = _narrow(column)
            if column.dtype != np.int64 or digest(column) != got:
                wrong.add(index)
    return wrong
