"""Design-space exploration of TranSparsity (paper Fig. 9).

The sweeps operate on uniform random 0/1 matrices (1024 x 1024 by default,
exactly as the paper) and report overall density, per-node-type shares and the
prefix-distance histogram as the TransRow width and tiling row size vary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..bitslice.packing import pack_bits_to_uint
from ..core.classification import classification_percentages
from ..errors import WorkloadError
from ..hasse.graph import hasse_graph
from ..scoreboard.algorithm import run_scoreboard
from ..scoreboard.batched import batched_total_op_counts
from ..workloads.synthetic import random_binary_matrix


@dataclass(frozen=True)
class DensityPoint:
    """One point of a density sweep."""

    bit_width: int
    row_size: int
    density: float
    bit_density: float
    zr_sparsity: float
    tr_density: float
    fr_density: float
    pr_density: float


def _tile_values(binary: np.ndarray, row_start: int, rows: int, width: int,
                 col_chunk: int) -> List[int]:
    """Packed TransRow values of one ``rows x width`` tile of a binary matrix."""
    tile = binary[row_start:row_start + rows, col_chunk * width:(col_chunk + 1) * width]
    if tile.shape[1] < width:
        tile = np.pad(tile, ((0, 0), (0, width - tile.shape[1])))
    return [int(v) for v in pack_bits_to_uint(tile)]


def _sweep_tiles(binary: np.ndarray, width: int, row_size: int,
                 max_tiles: Optional[int] = None):
    """Yield per-tile TransRow populations covering the binary matrix."""
    total_rows, total_cols = binary.shape
    chunks = max(1, total_cols // width)
    count = 0
    for row_start in range(0, total_rows, row_size):
        for chunk in range(chunks):
            yield _tile_values(binary, row_start, row_size, width, chunk)
            count += 1
            if max_tiles is not None and count >= max_tiles:
                return


def density_point(binary: np.ndarray, width: int, row_size: int,
                  max_tiles: Optional[int] = None) -> DensityPoint:
    """Overall TranSparsity density of a binary matrix at one (T, row size).

    Every tile is scoreboarded in one batched array pass and the per-tile
    counts are merged.
    """
    if width < 1 or width > 16:
        raise WorkloadError(f"bit width must be in [1, 16], got {width}")
    if row_size < 1:
        raise WorkloadError(f"row size must be positive, got {row_size}")
    bags = list(_sweep_tiles(binary, width, row_size, max_tiles))
    if not bags:
        raise WorkloadError("binary matrix produced no tiles")
    merged = batched_total_op_counts(bags, width=width)
    return DensityPoint(
        bit_width=width,
        row_size=row_size,
        density=merged.density,
        bit_density=merged.bit_density,
        zr_sparsity=merged.zr_fraction,
        tr_density=merged.tr_density,
        fr_density=merged.fr_density,
        pr_density=merged.pr_density,
    )


def density_vs_row_size(
    bit_widths: Sequence[int] = (2, 4, 6, 8, 10, 12, 16),
    row_sizes: Sequence[int] = (16, 32, 64, 128, 256, 512, 1024),
    matrix_size: int = 1024,
    seed: int = 0,
    max_tiles: Optional[int] = 16,
) -> List[DensityPoint]:
    """Fig. 9(a): overall density vs tiling row size for several TransRow widths."""
    binary = random_binary_matrix(matrix_size, matrix_size, seed=seed)
    points: List[DensityPoint] = []
    for width in bit_widths:
        for row_size in row_sizes:
            points.append(density_point(binary, width, row_size, max_tiles=max_tiles))
    return points


def node_type_vs_bitwidth(
    bit_widths: Sequence[int] = (1, 2, 4, 6, 8, 10, 12, 16),
    row_size: int = 256,
    matrix_size: int = 1024,
    seed: int = 0,
) -> Dict[int, Dict[str, float]]:
    """Fig. 9(b): ZR/TR/FR/PR shares per TransRow width (row size 256)."""
    binary = random_binary_matrix(matrix_size, matrix_size, seed=seed)
    shares: Dict[int, Dict[str, float]] = {}
    for width in bit_widths:
        values = _tile_values(binary, 0, row_size, width, 0)
        shares[width] = classification_percentages(run_scoreboard(values, width=width))
    return shares


def node_type_vs_row_size(
    row_sizes: Sequence[int] = (16, 32, 64, 128, 256, 512, 1024),
    width: int = 8,
    matrix_size: int = 1024,
    seed: int = 0,
) -> Dict[int, Dict[str, float]]:
    """Fig. 9(c): ZR/TR/FR/PR shares per tiling row size (8-bit TranSparsity)."""
    binary = random_binary_matrix(matrix_size, matrix_size, seed=seed)
    shares: Dict[int, Dict[str, float]] = {}
    for row_size in row_sizes:
        values = _tile_values(binary, 0, row_size, width, 0)
        shares[row_size] = classification_percentages(run_scoreboard(values, width=width))
    return shares


def distance_histogram(
    row_sizes: Sequence[int] = (16, 32, 64, 128, 256, 512, 1024),
    width: int = 8,
    matrix_size: int = 1024,
    seed: int = 0,
    max_tiles: Optional[int] = 8,
) -> Dict[int, Dict[int, int]]:
    """Fig. 9(d): scoreboard distance counts per tiling row size."""
    binary = random_binary_matrix(matrix_size, matrix_size, seed=seed)
    histograms: Dict[int, Dict[int, int]] = {}
    for row_size in row_sizes:
        merged: Dict[int, int] = {}
        for values in _sweep_tiles(binary, width, row_size, max_tiles):
            for distance, count in true_distance_histogram(values, width).items():
                merged[distance] = merged.get(distance, 0) + count
        histograms[row_size] = merged
    return histograms


def true_distance_histogram(values: Sequence[int], width: int) -> Dict[int, int]:
    """Exact nearest-present-ancestor distance of every present node.

    Unlike the scoreboard (which caps chains at ``max_distance``), this uses a
    dynamic program over the whole lattice so Fig. 9(d)'s Dis-1..Dis-5 series
    can be produced without a cap.
    """
    graph = hasse_graph(width)
    present = set(int(v) for v in values if v != 0)
    best_level = [-1] * graph.num_nodes  # deepest present (or root) node <= v
    best_level[0] = 0
    histogram: Dict[int, int] = {}
    for node in graph.hamming_order(include_zero=False):
        ancestor_best = max(best_level[p] for p in graph.direct_prefixes(node))
        if node in present:
            distance = graph.level(node) - ancestor_best
            histogram[distance] = histogram.get(distance, 0) + 1
            best_level[node] = graph.level(node)
        else:
            best_level[node] = ancestor_best
    return histogram
