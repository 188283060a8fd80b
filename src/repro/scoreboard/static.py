"""Static scoreboard: one tensor-level SI shared by every tile (paper Sec. 3.3).

The static scoreboard computes the SI offline from all TransRows of a tensor
(weights, or calibration activations) and re-uses it for every tile at run
time.  Because a tile only holds a subset of the tensor's TransRow values, a
tile may lack the prefix the shared SI prescribes — an *SI miss*, analogous to
a cache miss: the prefix chain has to be rebuilt inside the tile, costing extra
relay additions, and if the chain cannot be repaired the TransRow falls back to
plain bit-sparsity execution (one add per set bit).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Set

from ..errors import ScoreboardError
from .algorithm import run_scoreboard
from .info import ScoreboardInfo


@dataclass(frozen=True)
class StaticTileOutcome:
    """Operation counts of one tile executed under a shared static SI.

    The fields follow the paper's node taxonomy (Sec. 5.2): ZR rows are free,
    PR nodes pay one PPE add, FR rows (duplicates) pay one APE accumulation,
    TR steps are relay adds, and SI misses that cannot be repaired fall back to
    ``popcount`` adds.
    """

    width: int
    total_transrows: int
    zero_rows: int
    pr_nodes: int
    fr_rows: int
    tr_steps: int
    outlier_adds: int
    si_misses: int


class StaticScoreboard:
    """Tensor-level scoreboard computed offline and shared by all tiles."""

    def __init__(self, width: int = 8, max_distance: int = 4,
                 num_lanes: Optional[int] = None) -> None:
        if width < 1 or width > 16:
            raise ScoreboardError(f"width must be in [1, 16], got {width}")
        self.width = width
        self.max_distance = max_distance
        self.num_lanes = num_lanes if num_lanes is not None else width
        self._info: Optional[ScoreboardInfo] = None

    # ------------------------------------------------------------------ fit
    def fit(self, values: Iterable[int]) -> ScoreboardInfo:
        """Build the shared SI from every TransRow value of the tensor."""
        self._info = ScoreboardInfo.from_result(run_scoreboard(
            values,
            width=self.width,
            max_distance=self.max_distance,
            num_lanes=self.num_lanes,
        ))
        return self._info

    @property
    def info(self) -> ScoreboardInfo:
        """The shared SI table; :class:`ScoreboardError` if :meth:`fit` not called."""
        if self._info is None:
            raise ScoreboardError("StaticScoreboard.fit must be called before use")
        return self._info

    # ---------------------------------------------------------------- apply
    def apply(self, tile_values: Sequence[int]) -> StaticTileOutcome:
        """Execute one tile's TransRows under the shared SI and count adds.

        For every distinct non-zero value in the tile the prescribed prefix
        chain is followed until it reaches node 0 or a value whose result the
        tile has already produced.  Chain nodes absent from the tile are relay
        (TR) additions; if the chain is broken because the value never appeared
        in the calibration tensor, the TransRow is charged its full PopCount.
        """
        info = self.info
        tile_values = [int(v) for v in tile_values]
        limit = 1 << self.width
        for value in tile_values:
            if not 0 <= value < limit:
                raise ScoreboardError(
                    f"TransRow value {value} out of range for width {self.width}"
                )
        counts = Counter(tile_values)
        zero_rows = counts.pop(0, 0)

        computed: Set[int] = set()
        pr_nodes = 0
        fr_rows = 0
        tr_steps = 0
        outlier_adds = 0
        si_misses = 0

        for value, count in sorted(counts.items(),
                                   key=lambda item: (bin(item[0]).count("1"), item[0])):
            fr_rows += count - 1
            if value in computed:
                # A previous chain already produced this value as a relay.
                fr_rows += 1
                continue
            chain_cost, chain_nodes, missed = self._chain_cost(value, counts, computed)
            if missed:
                si_misses += 1
                outlier_adds += bin(value).count("1")
                computed.add(value)
                continue
            pr_nodes += 1
            tr_steps += chain_cost - 1
            computed.update(chain_nodes)
            computed.add(value)

        total = len(tile_values)
        return StaticTileOutcome(
            width=self.width,
            total_transrows=total,
            zero_rows=zero_rows,
            pr_nodes=pr_nodes,
            fr_rows=fr_rows,
            tr_steps=tr_steps,
            outlier_adds=outlier_adds,
            si_misses=si_misses,
        )

    def _chain_cost(self, value: int, tile_counts: Counter, computed: Set[int]):
        """Walk the shared-SI prefix chain of ``value`` inside the tile.

        Returns ``(adds, relay_nodes, missed)`` where ``adds`` is the number of
        single-bit additions needed to materialise ``value`` from the nearest
        already-available result, ``relay_nodes`` is the set of intermediate
        nodes produced along the way, and ``missed`` indicates an unrepairable
        SI miss (no SI entry anywhere on the chain).
        """
        adds = 0
        relay_nodes: Set[int] = set()
        current = value
        while current != 0:
            entry = self.info.lookup(current)
            if entry is None:
                return adds, relay_nodes, True
            adds += 1
            prefix = entry.prefix
            if prefix == 0 or prefix in computed or tile_counts.get(prefix, 0) > 0:
                # The prefix result is (or will be) available inside the tile;
                # if it is a present-but-not-yet-computed value it will be
                # charged its own chain when its turn comes in Hamming order.
                return adds, relay_nodes, False
            relay_nodes.add(prefix)
            current = prefix
        return adds, relay_nodes, False
