"""GEMM tiling for the TransArray (paper Sec. 4.1, Fig. 8 step 1).

A GEMM of shape ``(N, K) x (K, M)`` is partitioned into weight tiles of
``n x k`` rows/columns, input tiles of ``k x m`` and output tiles of ``n x m``.
Within a tile, the TransArray unit consumes *sub-tiles*: a ``(S*n, T)`` binary
weight slice paired with a ``(T, m)`` input slice, where ``T`` is the TransRow
width.  The tiling plan below records how many tiles and sub-tiles a GEMM
needs, and the DRAM traffic each tensor stream generates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..config import TransArrayConfig
from ..errors import ConfigurationError
from ..workloads.gemm import GemmShape


@dataclass(frozen=True)
class TileShape:
    """Dimensions of one on-chip tile."""

    weight_rows: int
    reduction: int
    input_cols: int


@dataclass(frozen=True)
class TilingPlan:
    """Static tiling summary of one GEMM on the TransArray."""

    shape: GemmShape
    tile: TileShape
    transrow_bits: int
    row_blocks: int
    col_chunks: int
    input_blocks: int

    @property
    def num_subtiles(self) -> int:
        """Total sub-tiles executed (weight-row block x K chunk x input block)."""
        return self.row_blocks * self.col_chunks * self.input_blocks

    @property
    def weight_subtiles(self) -> int:
        """Distinct weight sub-tiles (scoreboarded once each, reused over M)."""
        return self.row_blocks * self.col_chunks

    @property
    def transrows_per_subtile(self) -> int:
        """TransRows in one full sub-tile: ``S * n``."""
        return self.tile.weight_rows * self.shape.weight_bits

    # ------------------------------------------------------------ traffic
    @property
    def dram_weight_bytes(self) -> int:
        """Weights are streamed once."""
        return self.shape.weight_bytes

    @property
    def dram_input_bytes(self) -> int:
        """Activations are streamed once (input blocks stay resident across row blocks)."""
        return self.shape.input_bytes

    @property
    def dram_output_bytes(self) -> int:
        """Partial sums accumulate on chip over K and are written once."""
        return self.shape.output_bytes

    @property
    def dram_total_bytes(self) -> int:
        """Total off-chip traffic of the GEMM."""
        return self.dram_weight_bytes + self.dram_input_bytes + self.dram_output_bytes


def plan_tiling(shape: GemmShape, config: TransArrayConfig) -> TilingPlan:
    """Build the tiling plan of one GEMM for a TransArray configuration."""
    if shape.weight_bits > 16:
        raise ConfigurationError(
            f"TransArray bit-slicing supports up to 16-bit weights, got {shape.weight_bits}"
        )
    weight_rows = config.weight_rows(shape.weight_bits)
    tile = TileShape(
        weight_rows=weight_rows,
        reduction=config.transrow_bits,
        input_cols=config.input_cols,
    )
    return TilingPlan(
        shape=shape,
        tile=tile,
        transrow_bits=config.transrow_bits,
        row_blocks=math.ceil(shape.n / weight_rows),
        col_chunks=math.ceil(shape.k / config.transrow_bits),
        input_blocks=math.ceil(shape.m / config.input_cols),
    )
