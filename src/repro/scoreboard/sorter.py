"""PopCount (Hamming-order) sorter model.

The dynamic scoreboard sorts incoming TransRows by their Hamming weight before
scoreboarding (paper Sec. 3.1); values with equal PopCount need no order.  The
hardware uses a bitonic sorting network (Batcher, 1968), whose depth — and
therefore pipeline latency in cycles — is ``log2(n) * (log2(n) + 1) / 2``
comparator stages for ``n`` inputs.
"""

from __future__ import annotations

import math

from ..errors import ScoreboardError


def bitonic_stage_count(n: int) -> int:
    """Number of comparator stages of a bitonic network sorting ``n`` elements."""
    if n < 1:
        raise ScoreboardError(f"cannot size a sorter for {n} elements")
    if n == 1:
        return 0
    k = math.ceil(math.log2(n))
    return k * (k + 1) // 2


def sorter_cycles(n: int, pipelined: bool = True) -> int:
    """Cycles to sort ``n`` TransRows.

    A pipelined sorter has a latency of one cycle per comparator stage but a
    throughput of one batch per cycle; the dominant term for one sub-tile is
    the fill latency, which is what this returns.  A non-pipelined estimate
    multiplies stages by the number of passes over the batch.
    """
    stages = bitonic_stage_count(n)
    if pipelined or n <= 1:
        return stages
    return stages * max(1, math.ceil(math.log2(n)))
