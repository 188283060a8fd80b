"""One TransArray unit: functional execution and per-sub-tile cycle/traffic model.

The unit stitches the previous pieces together (Fig. 7b / Fig. 8): TransRows of
a weight sub-tile are scoreboarded (dynamic or via a shared static SI),
dispatched with XOR pruning, routed to the PPE lanes, and the APE folds every
result into the output tile.  Two entry points are provided:

* :meth:`TransArrayUnit.execute_subtile` — full functional execution of one
  sub-GEMM through the architectural path (dispatcher, prefix buffer, PPE/APE),
  bit-exact against ``weight_tile @ act_tile``; used by integration tests.
* :meth:`TransArrayUnit.profile_subtile` — statistics-only profiling of one
  TransRow population, returning the cycle and buffer-traffic estimate the
  accelerator-level simulator scales up to full GEMMs; the scalar reference.
* :meth:`TransArrayUnit.profile_subtiles` — the same dynamic-scoreboard
  reports for many populations at once, read straight from one batched
  scoreboard pass (the accelerator's sampled-profile path).

Both dynamic entry points price a sub-tile through one helper,
``_dynamic_report``, from its ``OpCounts`` and per-lane node counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..bitslice.packing import pack_transrow_chunks
from ..bitslice.slicer import bit_plane_weights
from ..config import TransArrayConfig
from ..exact import as_exact_int64
from ..core.metrics import OpCounts, op_counts_from_result, op_counts_from_static_outcome
from ..errors import SimulationError
from ..hasse.graph import hasse_graph
from ..scoreboard.batched import run_scoreboard_batch
from ..scoreboard.dynamic import DynamicScoreboard
from ..scoreboard.static import StaticScoreboard
from .pe import AccumulationPE, PrefixPE
from .prefix_buffer import DistributedPrefixBuffer


@dataclass
class SubTileReport:
    """Cycle and traffic profile of one sub-tile on one TransArray unit."""

    op_counts: OpCounts
    scoreboard_cycles: int
    ppe_cycles: int
    ape_cycles: int
    buffer_bytes: Dict[str, float] = field(default_factory=dict)

    @property
    def compute_cycles(self) -> int:
        """Steady-state per-sub-tile cost: the slower of the PPE/APE stages."""
        return max(self.ppe_cycles, self.ape_cycles)

    @property
    def bottleneck_cycles(self) -> int:
        """Per-sub-tile cost including the scoreboard stage."""
        return max(self.scoreboard_cycles, self.compute_cycles)


class TransArrayUnit:
    """Functional + cycle model of a single TransArray unit."""

    def __init__(self, config: TransArrayConfig = TransArrayConfig()) -> None:
        self.config = config
        self.scoreboard = DynamicScoreboard(
            width=config.transrow_bits,
            max_distance=config.max_prefix_distance,
            num_lanes=config.lanes,
        )

    # ----------------------------------------------------------- profiling
    def profile_subtile(
        self,
        values: Sequence[int],
        static_scoreboard: Optional[StaticScoreboard] = None,
    ) -> SubTileReport:
        """Profile one TransRow population (no data movement, statistics only).

        With ``static_scoreboard`` the shared SI is applied (SI misses and all)
        and the scoreboard stage costs nothing at run time; otherwise the
        dynamic scoreboard is run and modelled.
        """
        if static_scoreboard is None:
            result = self.scoreboard.process(values).result
            return self._dynamic_report(op_counts_from_result(result), result.lane_ppe_loads())
        lanes = self.config.lanes
        outcome = static_scoreboard.apply(values)
        counts = op_counts_from_static_outcome(outcome, values)
        ppe_steps = outcome.pr_nodes + outcome.tr_steps + outcome.outlier_adds
        ape_steps = counts.total_transrows - counts.zero_rows
        return SubTileReport(
            op_counts=counts,
            scoreboard_cycles=0,
            ppe_cycles=math.ceil(ppe_steps / lanes) if ppe_steps else 0,
            ape_cycles=math.ceil(ape_steps / lanes) if ape_steps else 0,
            buffer_bytes=self._buffer_traffic(counts),
        )

    def profile_subtiles(
        self, bags: Union[np.ndarray, Sequence[Sequence[int]]]
    ) -> List[SubTileReport]:
        """Dynamic-scoreboard profiles of many TransRow bags in one array pass.

        Equal to ``[self.profile_subtile(bag) for bag in bags]``: one batched
        scoreboard run gives every bag's ``OpCounts`` and balanced-forest lane
        loads straight from its state arrays, without building per-bag
        ``ScoreboardResult`` or forest objects.
        """
        scoreboard = self.scoreboard
        batch = run_scoreboard_batch(
            bags, width=scoreboard.width, max_distance=scoreboard.max_distance
        )
        fields = {key: column.tolist() for key, column in batch.op_count_fields().items()}
        lane_loads = batch.lane_node_counts(scoreboard.num_lanes)
        return [
            self._dynamic_report(
                OpCounts(width=scoreboard.width,
                         **{key: column[bag] for key, column in fields.items()}),
                loads,
            )
            for bag, loads in enumerate(lane_loads)
        ]

    def _dynamic_report(self, counts: OpCounts, ppe_loads: Sequence[int]) -> SubTileReport:
        """One dynamically scoreboarded sub-tile's cycles and traffic.

        ``ppe_loads`` is the executed-node count on each balanced-forest lane.
        The PPE stage is tree-constrained, so its cost is the heaviest lane's
        node count plus the outliers' adds spread across lanes.  The APE stage
        only reads partial sums from the prefix buffer through the crossbar and
        can therefore distribute TransRows evenly: it costs ``n / T`` cycles
        for ``n`` non-zero TransRows, the "constantly n cycles" of Sec. 4.6.
        """
        lanes = self.config.lanes
        return SubTileReport(
            op_counts=counts,
            scoreboard_cycles=self.scoreboard.cycles(counts.total_transrows),
            ppe_cycles=max(ppe_loads) + math.ceil(counts.outlier_ops / lanes),
            ape_cycles=math.ceil((counts.total_transrows - counts.zero_rows) / lanes),
            buffer_bytes=self._buffer_traffic(counts),
        )

    def _buffer_traffic(self, counts: OpCounts) -> Dict[str, float]:
        """Per-buffer traffic (bytes) of one sub-tile for the energy model.

        PPE operations read one input row (``m`` bytes of 8-bit activations)
        and write one 12-bit partial-sum vector to the prefix buffer; APE
        operations read one partial-sum vector and update the 32-bit output
        accumulators (charged at a quarter of the vector because consecutive
        bit planes of the same row stay in the accumulator register).
        """
        m = self.config.input_cols
        ppe_ops = counts.pr_ops + counts.tr_ops + counts.outlier_ops
        ape_ops = counts.total_transrows - counts.zero_rows
        psum_bytes = m * 2          # 12-bit PPE partial sums, 2 bytes each
        return {
            "weight": counts.total_transrows * self.config.transrow_bits / 8.0,
            "input": ppe_ops * m * 1.0,
            "prefix": ppe_ops * psum_bytes + ape_ops * psum_bytes,
            "output": ape_ops * m * 4.0 / 4.0,
        }

    # ---------------------------------------------------------- functional
    def execute_subtile(
        self,
        weight_tile: np.ndarray,
        act_tile: np.ndarray,
        weight_bits: int,
    ) -> np.ndarray:
        """Execute one sub-GEMM through the full architectural path.

        ``weight_tile`` is ``(n, T)`` signed integers, ``act_tile`` is
        ``(T, m)``; the result equals ``weight_tile @ act_tile`` exactly.  The
        execution goes through the dynamic scoreboard, the dispatcher, the
        distributed prefix buffer and the PPE/APE models, so precision limits
        and prefix-availability bugs surface as :class:`SimulationError`.
        """
        from ..core.classification import NodeType
        from ..scoreboard.info import ScoreboardInfo
        from .dispatcher import Dispatcher

        weight_tile = np.asarray(weight_tile)
        act_tile = as_exact_int64(act_tile)
        width = self.config.transrow_bits
        if weight_tile.ndim != 2 or weight_tile.shape[1] != width:
            raise SimulationError(
                f"weight tile must be (n, {width}), got {weight_tile.shape}"
            )
        if act_tile.shape[0] != width:
            raise SimulationError(
                f"activation tile must have {width} rows, got {act_tile.shape}"
            )

        packed = pack_transrow_chunks(weight_tile, weight_bits, width)[0].tolist()
        plane_weights = bit_plane_weights(weight_bits)
        n_rows = weight_tile.shape[0]
        m = act_tile.shape[1]

        transrows: List[tuple] = [
            (packed[row][plane], row, plane)
            for row in range(n_rows)
            for plane in range(weight_bits - 1, -1, -1)
        ]

        outcome = self.scoreboard.process([value for value, _, _ in transrows])
        info = ScoreboardInfo.from_result(outcome.result)
        dispatcher = Dispatcher(info, width)
        prefix_buffer = DistributedPrefixBuffer(
            num_banks=self.config.lanes,
            capacity_bytes=self.config.prefix_buffer_bytes,
            entry_bytes=m * 2,
        )
        ppe = PrefixPE(self.config.ppe_adder_bits)
        ape = AccumulationPE(self.config.ape_adder_bits)
        graph = hasse_graph(width)

        # PPE stage: materialise every executed node's partial sum in Hamming
        # order so each prefix is resident in its lane bank before its
        # suffixes need it (relay TR nodes included).
        for node in sorted(outcome.result.nodes.values(),
                           key=lambda n: (graph.level(n.index), n.index)):
            prefix_sum = prefix_buffer.read(node.lane, node.prefix)
            input_row = self._input_row(act_tile, node.index ^ node.prefix)
            prefix_buffer.write(node.lane, node.index, ppe.add(prefix_sum, input_row))
        # Outliers (no valid prefix chain) are computed from scratch at the end
        # of the schedule, one add per set bit.
        for outlier in outcome.result.outliers:
            total = np.zeros(m, dtype=np.int64)
            for bit in range(width):
                if outlier.index & (1 << bit):
                    total = ppe.add(total, self._input_row(act_tile, 1 << bit))
            prefix_buffer.write(0, outlier.index, total)

        # APE stage: every TransRow reads its node's partial sum and folds it
        # into the output row with the bit-plane shift.  The dispatcher is
        # consulted for lane routing and FR/PR classification, matching the
        # hardware flow of Fig. 8 steps 2-4.
        output = np.zeros((n_rows, m), dtype=np.int64)
        outlier_indices = {o.index for o in outcome.result.outliers}
        for value, row, plane in transrows:
            record = dispatcher.dispatch(value, source_row=row, bit_level=plane)
            if record.node_type is NodeType.ZERO_ROW:
                continue
            lane = 0 if value in outlier_indices else record.lane
            result = prefix_buffer.read(lane, value)
            output[row] = ape.accumulate(output[row], result, int(plane_weights[plane]))
        return output

    def _input_row(self, act_tile: np.ndarray, mask: int) -> np.ndarray:
        """Input rows addressed by a TranSparsity mask, summed (MSB = row 0)."""
        width = self.config.transrow_bits
        total = np.zeros(act_tile.shape[1], dtype=np.int64)
        for bit in range(width):
            if mask & (1 << bit):
                total = total + act_tile[width - 1 - bit]
        return total
