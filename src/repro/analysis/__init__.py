"""Experiment harness: the code that regenerates every paper table and figure."""

from .design_space import (
    DensityPoint,
    density_vs_row_size,
    distance_histogram,
    node_type_vs_bitwidth,
    node_type_vs_row_size,
    true_distance_histogram,
)
from .comparison import (
    ComparisonRow,
    attention_comparison,
    fc_layer_comparison,
    geomean,
    resnet_comparison,
)
from .scoreboard_study import scoreboard_density_study
from .reporting import format_serving_report, format_table

__all__ = [
    "DensityPoint",
    "density_vs_row_size",
    "distance_histogram",
    "node_type_vs_bitwidth",
    "node_type_vs_row_size",
    "true_distance_histogram",
    "ComparisonRow",
    "attention_comparison",
    "fc_layer_comparison",
    "geomean",
    "resnet_comparison",
    "scoreboard_density_study",
    "format_serving_report",
    "format_table",
]
