"""Scoreboard Information (SI): the compact table driving the dispatcher.

The SI table (paper Fig. 5 step 6) records, for every TransRow value that may
appear, the prefix whose result it reuses and the lane that executes it.  Its
memory footprint is ``2 * T * 2**T`` bits (512 bytes for ``T = 8``), small
enough to live in the on-chip buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import ScoreboardError
from .algorithm import ScoreboardResult


@dataclass(frozen=True)
class SIEntry:
    """One SI row: a TransRow value, its chosen prefix, lane and distance."""

    transrow: int
    prefix: int
    lane: int
    distance: int
    is_relay: bool = False


@dataclass
class ScoreboardInfo:
    """The SI table for one tensor (static) or one sub-tile (dynamic)."""

    width: int
    entries: Dict[int, SIEntry]

    @classmethod
    def from_result(cls, result: ScoreboardResult) -> "ScoreboardInfo":
        """Build the SI table from a completed scoreboard run."""
        entries = {
            idx: SIEntry(
                transrow=idx,
                prefix=node.prefix,
                lane=node.lane,
                distance=node.distance,
                is_relay=node.is_relay,
            )
            for idx, node in result.nodes.items()
        }
        return cls(width=result.width, entries=entries)

    def lookup(self, transrow: int) -> Optional[SIEntry]:
        """Return the SI entry for a TransRow value, or ``None`` on an SI miss."""
        if not 0 <= transrow < (1 << self.width):
            raise ScoreboardError(
                f"TransRow {transrow} out of range for width {self.width}"
            )
        return self.entries.get(transrow)
