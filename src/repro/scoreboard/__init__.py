"""Scoreboard mechanism: execution-order generation for transitive sparsity.

The scoreboard (paper Sec. 3) turns a bag of TransRow values into a balanced
forest of prefix-reuse trees: it records which Hasse-graph nodes are present,
runs a forward pass (Alg. 1) to collect candidate prefixes, a backward pass
(Alg. 2) to keep only the shortest-distance paths, and finally emits the
Scoreboard Information (SI) table that drives the TransArray's dispatcher.
Static scoreboards are computed once per tensor offline; dynamic scoreboards
are regenerated per sub-tile by a dedicated hardware unit.
"""

from .algorithm import NodeState, ScoreboardResult, run_scoreboard
from .batched import (
    BatchedScoreboard,
    batched_total_op_counts,
    run_scoreboard_batch,
    scoreboard_from_counts,
    weight_op_counts,
)
from .info import ScoreboardInfo, SIEntry
from .sorter import bitonic_stage_count, sorter_cycles
from .static import StaticScoreboard, StaticTileOutcome
from .dynamic import DynamicScoreboard, DynamicTileOutcome

__all__ = [
    "NodeState",
    "ScoreboardResult",
    "run_scoreboard",
    "BatchedScoreboard",
    "batched_total_op_counts",
    "run_scoreboard_batch",
    "scoreboard_from_counts",
    "weight_op_counts",
    "ScoreboardInfo",
    "SIEntry",
    "bitonic_stage_count",
    "sorter_cycles",
    "StaticScoreboard",
    "StaticTileOutcome",
    "DynamicScoreboard",
    "DynamicTileOutcome",
]
