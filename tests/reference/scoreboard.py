"""Scalar references for the accelerator's batched scoreboard profile."""

from typing import List, Sequence

from repro.core.metrics import op_counts_from_result
from repro.scoreboard import ScoreboardResult
from repro.transarray import SubTileReport, TransArrayUnit


def lane_ppe_loads(result: ScoreboardResult) -> List[int]:
    """Per-lane count of PPE steps: one per executed node in the lane."""
    loads = [0] * result.num_lanes
    for node in result.nodes.values():
        loads[node.lane] += 1
    return loads


def profile_subtile(unit: TransArrayUnit, values: Sequence[int]) -> SubTileReport:
    """One TransRow bag's report from the scalar dynamic scoreboard.

    Runs ``unit.scoreboard`` on the bag and prices it through the same
    ``_dynamic_report`` as :meth:`TransArrayUnit.profile_subtiles`, so the
    two differ only in how they count.
    """
    result = unit.scoreboard.process(values).result
    return unit._dynamic_report(op_counts_from_result(result), lane_ppe_loads(result))
