"""Static vs dynamic scoreboard study on real and random data (Fig. 13)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..bitslice.packing import pack_bits_to_uint
from ..bitslice.slicer import binary_weight_matrix
from ..core.metrics import op_counts_from_static_outcome
from ..errors import WorkloadError
from ..scoreboard.batched import batched_total_op_counts
from ..scoreboard.static import StaticScoreboard
from ..workloads.synthetic import outlier_weight_matrix, random_binary_matrix
from ..quant.quantizer import quantize


@dataclass(frozen=True)
class ScoreboardStudyPoint:
    """Density of one (data source, scoreboard mode, row size) combination."""

    data: str
    mode: str
    row_size: int
    density: float
    bit_density: float
    si_miss_rate: float


def _binary_from_real_weights(rows: int, cols: int, weight_bits: int, seed: int) -> np.ndarray:
    """Bit-sliced binary matrix from a synthetic 'real' (Gaussian+outlier) tensor."""
    weight = outlier_weight_matrix(rows, cols, seed=seed)
    quantized = quantize(weight, bits=weight_bits, axis=1)
    return binary_weight_matrix(quantized.values, weight_bits)


def _tile_values(binary: np.ndarray, row_start: int, rows: int, width: int) -> List[int]:
    tile = binary[row_start:row_start + rows, :width]
    if tile.shape[1] < width:
        tile = np.pad(tile, ((0, 0), (0, width - tile.shape[1])))
    return [int(v) for v in pack_bits_to_uint(tile)]


def scoreboard_density_study(
    row_sizes: Sequence[int] = (64, 128, 256, 512, 1024),
    width: int = 8,
    weight_bits: int = 8,
    matrix_rows: int = 1024,
    matrix_cols: int = 64,
    seed: int = 0,
    max_tiles: Optional[int] = 8,
) -> List[ScoreboardStudyPoint]:
    """Reproduce Fig. 13: static vs dynamic density on real and random data.

    'Real' data is a bit-sliced quantized Gaussian/outlier weight tensor
    (standing in for the LLaMA-1-7B first FC layer); 'random' data is a uniform
    0/1 matrix.  The static scoreboard's SI is fitted on the whole tensor and
    applied per tile; the dynamic scoreboard rebuilds the SI per tile, in one
    batched array pass over all tiles.
    """
    if width < 1 or width > 16:
        raise WorkloadError(f"width must be in [1, 16], got {width}")
    datasets: Dict[str, np.ndarray] = {
        "real": _binary_from_real_weights(matrix_rows, matrix_cols, weight_bits, seed),
        "random": random_binary_matrix(matrix_rows * weight_bits, matrix_cols, seed=seed + 1),
    }
    points: List[ScoreboardStudyPoint] = []
    for data_name, binary in datasets.items():
        all_values = [int(v) for v in pack_bits_to_uint(_pad_width(binary, width))]
        static = StaticScoreboard(width=width)
        static.fit(all_values)
        for row_size in row_sizes:
            bags: List[List[int]] = []
            for row_start in range(0, binary.shape[0], row_size):
                if max_tiles is not None and len(bags) >= max_tiles:
                    break
                bags.append(_tile_values(binary, row_start, row_size, width))
            dynamic_counts = batched_total_op_counts(bags, width=width)
            static_counts = None
            misses = 0
            tiles = len(bags)
            for values in bags:
                outcome = static.apply(values)
                stat = op_counts_from_static_outcome(outcome, values)
                misses += outcome.si_misses
                static_counts = stat if static_counts is None else static_counts.merge(stat)
            for mode, counts in (("dynamic", dynamic_counts), ("static", static_counts)):
                points.append(
                    ScoreboardStudyPoint(
                        data=data_name,
                        mode=mode,
                        row_size=row_size,
                        density=counts.density,
                        bit_density=counts.bit_density,
                        si_miss_rate=misses / max(1, tiles) if mode == "static" else 0.0,
                    )
                )
    return points


def _pad_width(binary: np.ndarray, width: int) -> np.ndarray:
    """Trim/pad a binary matrix to exactly ``width`` columns."""
    if binary.shape[1] >= width:
        return binary[:, :width]
    return np.pad(binary, ((0, 0), (0, width - binary.shape[1])))
