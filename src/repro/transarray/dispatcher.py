"""Dispatcher: turns TransRows + SI into pruned TranSparsity operations (Sec. 4.3).

For every incoming TransRow the dispatcher looks up its prefix in the SI,
computes the TranSparsity pattern with a single XOR, and emits one dispatch
record naming (a) the prefix partial sum to fetch from the prefix buffer and
(b) the input rows (usually one) addressed by the XOR difference.  After the
first dispatch of a node, later TransRows with the same value become
Full-Result-reuse dispatches that skip the PPE entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ScoreboardError
from ..scoreboard.info import ScoreboardInfo
from ..core.classification import NodeType


@dataclass(frozen=True)
class DispatchRecord:
    """One dispatched TransRow operation."""

    transrow: int
    prefix: int
    transparsity: int
    lane: int
    node_type: NodeType
    source_row: int
    bit_level: int


class Dispatcher:
    """Stateful dispatcher for one sub-tile (one SI table)."""

    def __init__(self, info: ScoreboardInfo, width: int) -> None:
        self.info = info
        self.width = width
        self._computed: set = set()

    def dispatch(self, transrow: int, source_row: int = 0, bit_level: int = 0) -> DispatchRecord:
        """Dispatch one TransRow and classify the operation it needs."""
        if not 0 <= transrow < (1 << self.width):
            raise ScoreboardError(
                f"TransRow {transrow} out of range for width {self.width}"
            )
        if transrow == 0:
            return DispatchRecord(
                transrow=0, prefix=0, transparsity=0, lane=0,
                node_type=NodeType.ZERO_ROW, source_row=source_row, bit_level=bit_level,
            )
        entry = self.info.lookup(transrow)
        if entry is None:
            # Not covered by the SI (outlier / SI miss): compute from scratch.
            record = DispatchRecord(
                transrow=transrow, prefix=0, transparsity=transrow, lane=0,
                node_type=NodeType.OUTLIER, source_row=source_row, bit_level=bit_level,
            )
            self._computed.add(transrow)
            return record
        if transrow in self._computed:
            node_type = NodeType.FULL_RESULT_REUSE
            transparsity = 0
        else:
            node_type = NodeType.PREFIX_RESULT_REUSE
            transparsity = transrow ^ entry.prefix
            self._computed.add(transrow)
        return DispatchRecord(
            transrow=transrow,
            prefix=entry.prefix,
            transparsity=transparsity,
            lane=entry.lane,
            node_type=node_type,
            source_row=source_row,
            bit_level=bit_level,
        )
