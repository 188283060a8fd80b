"""The full Transitive Array accelerator: six units, tiling, DRAM, energy.

The accelerator-level simulator executes whole GEMM workloads.  Cycle counts
for the enormous LLaMA GEMMs are obtained by *sampled sub-tile profiling*: a
configurable number of sub-tiles is drawn from the workload's (synthetic or
user-provided) weight tensor, profiled exactly through the unit model, and the
per-sub-tile statistics are scaled to the full tiling plan.  This mirrors the
paper's methodology of extracting one representative Transformer block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from ..config import CLOCK_FREQUENCY_HZ, DRAMConfig, TransArrayConfig
from ..core.metrics import OpCounts
from ..energy.breakdown import EnergyBreakdown
from ..energy.energy_model import EnergyParameters
from ..energy.sram import sram_energy_per_byte_pj
from ..errors import SimulationError
from ..baselines.base import Accelerator, PerformanceReport, WorkloadLike, as_workload
from ..bitslice.packing import pack_transrow_chunks
from ..workloads.gemm import GemmShape
from .tiling import TilingPlan, plan_tiling
from .unit import SubTileReport, TransArrayUnit

#: Weight provider signature: given a GEMM shape, return its (N, K) weights.
WeightProvider = Callable[[GemmShape], np.ndarray]


@dataclass
class GemmProfile:
    """Aggregated per-GEMM simulation outcome (kept for reporting/tests)."""

    shape: GemmShape
    plan: TilingPlan
    mean_report: SubTileReport
    cycles: int
    compute_cycles: int
    dram_cycles: int
    energy: EnergyBreakdown
    op_counts: OpCounts


@dataclass(frozen=True)
class RequestAttribution:
    """Accelerator cycles and energy attributed to one serving request.

    A layer's :class:`GemmProfile` prices the full ``(n, k) x (k, m)`` GEMM;
    a serving request runs the same weights over only ``columns`` activation
    columns, so it is charged the column-proportional share of the profiled
    cycles and energy.  The serving report aggregates these into per-request
    latency and fleet-level energy figures.
    """

    layer: str
    columns: int
    cycles: int
    energy: EnergyBreakdown


class TransitiveArrayAccelerator(Accelerator):
    """Cycle/energy model of the six-unit Transitive Array accelerator.

    Parameters
    ----------
    config:
        Hardware configuration (Table 1 defaults).
    samples_per_gemm:
        Number of sub-tiles profiled exactly per GEMM before scaling.
    weight_provider:
        Optional callable returning real weight matrices; synthetic uniform
        weights are generated otherwise (Sec. 5.9 shows real data is slightly
        *better*, so synthetic data is the conservative choice).

    Every sampled sub-tile of a GEMM runs the dynamic scoreboard (per-sub-tile
    SI, the paper's design), all of them in one batched array pass
    (:meth:`TransArrayUnit.profile_subtiles`: ``OpCounts`` and lane loads read
    straight from the scoreboard state arrays).
    """

    def __init__(
        self,
        config: TransArrayConfig = TransArrayConfig(),
        dram: DRAMConfig = DRAMConfig(),
        energy: EnergyParameters = EnergyParameters(),
        samples_per_gemm: int = 12,
        weight_provider: Optional[WeightProvider] = None,
        seed: int = 2025,
        clock_hz: float = CLOCK_FREQUENCY_HZ,
    ) -> None:
        if samples_per_gemm < 1:
            raise SimulationError("samples_per_gemm must be positive")
        self.config = config
        self.dram = dram
        self.energy_params = energy
        self.samples_per_gemm = samples_per_gemm
        self.weight_provider = weight_provider
        self.clock_hz = clock_hz
        self._rng = np.random.default_rng(seed)
        self.unit = TransArrayUnit(config)
        self.name = f"transarray-{config.transrow_bits}t"

    # ------------------------------------------------------------ sampling
    def _sample_weight_tile(
        self, shape: GemmShape, plan: TilingPlan, weight: Optional[np.ndarray]
    ) -> np.ndarray:
        """Draw one weight sub-tile, either from real weights or synthetically."""
        rows = plan.tile.weight_rows
        width = self.config.transrow_bits
        lo = -(1 << (shape.weight_bits - 1))
        hi = (1 << (shape.weight_bits - 1)) - 1
        if weight is None:
            return self._rng.integers(lo, hi + 1, size=(rows, width), dtype=np.int64)
        row_block = int(self._rng.integers(0, plan.row_blocks))
        col_chunk = int(self._rng.integers(0, plan.col_chunks))
        tile = weight[
            row_block * rows: (row_block + 1) * rows,
            col_chunk * width: (col_chunk + 1) * width,
        ]
        padded = np.zeros((rows, width), dtype=np.int64)
        padded[: tile.shape[0], : tile.shape[1]] = tile
        return padded

    def _profile_gemm(
        self, shape: GemmShape, plan: TilingPlan, weight: Optional[np.ndarray] = None
    ) -> SubTileReport:
        """Mean sub-tile profile over the sampled sub-tiles of one GEMM.

        Sub-tiles are drawn from ``weight`` if given, else from the weight
        provider's matrix, else synthetically.
        """
        if weight is None and self.weight_provider is not None:
            weight = self.weight_provider(shape)  # fetched once per GEMM
        if weight is not None:
            weight = np.asarray(weight)
            if weight.shape != (shape.n, shape.k):
                raise SimulationError(
                    f"weight has shape {weight.shape}, expected {(shape.n, shape.k)}"
                )
        tiles = [self._sample_weight_tile(shape, plan, weight)
                 for _ in range(self.samples_per_gemm)]
        # One packing pass over every sampled tile: each tile is one T-wide
        # chunk, so chunk 0 holds all of them; reversing the plane axis gives
        # each tile's TransRows in (row, MSB-to-LSB plane) order.
        packed = pack_transrow_chunks(
            np.concatenate(tiles), shape.weight_bits, self.config.transrow_bits
        )[0, :, ::-1]
        samples = packed.reshape(self.samples_per_gemm, -1).astype(np.int64)
        return self._mean_report(self.unit.profile_subtiles(samples))

    @staticmethod
    def _mean_report(reports: List[SubTileReport]) -> SubTileReport:
        merged = reports[0].op_counts
        for report in reports[1:]:
            merged = merged.merge(report.op_counts)
        count = len(reports)
        buffer_bytes: Dict[str, float] = {}
        for report in reports:
            for key, value in report.buffer_bytes.items():
                buffer_bytes[key] = buffer_bytes.get(key, 0.0) + value / count
        return SubTileReport(
            op_counts=merged,
            scoreboard_cycles=round(sum(r.scoreboard_cycles for r in reports) / count),
            ppe_cycles=round(sum(r.ppe_cycles for r in reports) / count),
            ape_cycles=round(sum(r.ape_cycles for r in reports) / count),
            buffer_bytes=buffer_bytes,
        )

    # ------------------------------------------------------------ simulate
    def simulate(self, workload: WorkloadLike) -> PerformanceReport:
        workload = as_workload(workload)
        total_cycles = 0
        total_macs = 0
        per_gemm: Dict[str, int] = {}
        energy = EnergyBreakdown()
        for shape in workload.gemms:
            profile = self.simulate_gemm(shape)
            total_cycles += profile.cycles
            total_macs += shape.macs
            per_gemm[shape.name] = per_gemm.get(shape.name, 0) + profile.cycles
            energy = energy.merge(profile.energy)
        return PerformanceReport(
            accelerator=self.name,
            workload=workload.name,
            cycles=total_cycles,
            macs=total_macs,
            energy=energy,
            clock_hz=self.clock_hz,
            per_gemm_cycles=per_gemm,
        )

    def simulate_gemm(
        self, shape: GemmShape, weight: Optional[np.ndarray] = None
    ) -> GemmProfile:
        """Simulate one GEMM and return the detailed profile.

        ``weight`` is the GEMM's ``(n, k)`` integer weight matrix; when given,
        the sampled sub-tiles come from it instead of the weight provider or
        the synthetic draw.
        """
        plan = plan_tiling(shape, self.config)
        mean_report = self._profile_gemm(shape, plan, weight)

        # Steady-state compute: every (weight sub-tile, input block) pair costs
        # the slower of the PPE/APE stages; dynamic scoreboarding runs once per
        # weight sub-tile and is hidden behind compute unless it is slower.
        per_subtile = mean_report.compute_cycles
        scoreboard_overhead = max(0, mean_report.scoreboard_cycles - per_subtile)
        compute_cycles = (
            plan.num_subtiles * per_subtile
            + plan.weight_subtiles * scoreboard_overhead
        )
        compute_cycles = math.ceil(compute_cycles / self.config.num_units)
        compute_cycles += mean_report.scoreboard_cycles + mean_report.ape_cycles  # pipeline fill

        dram_cycles = math.ceil(plan.dram_total_bytes / self.dram.bandwidth_bytes_per_cycle)
        cycles = max(compute_cycles, dram_cycles)
        energy = self._gemm_energy(plan, mean_report, cycles)
        return GemmProfile(
            shape=shape,
            plan=plan,
            mean_report=mean_report,
            cycles=cycles,
            compute_cycles=compute_cycles,
            dram_cycles=dram_cycles,
            energy=energy,
            op_counts=mean_report.op_counts,
        )

    def attribute_request(self, profile: GemmProfile, columns: int) -> RequestAttribution:
        """Attribute cycles/energy of a ``columns``-wide request to one layer.

        The profile's cycles and energy scale with the activation columns
        actually served (weights, and therefore the scoreboard work, are
        shared by every request against the layer), so a request is charged
        ``columns / m`` of the profiled layer cost.
        """
        if columns < 1:
            raise SimulationError("a request must carry at least one activation column")
        fraction = columns / profile.shape.m
        cycles = max(1, math.ceil(profile.cycles * fraction))
        return RequestAttribution(
            layer=profile.shape.name,
            columns=columns,
            cycles=cycles,
            energy=profile.energy.scale(fraction),
        )

    # -------------------------------------------------------------- energy
    def _gemm_energy(self, plan: TilingPlan, report: SubTileReport, cycles: int) -> EnergyBreakdown:
        """Scale the sampled sub-tile traffic to the full GEMM and price it."""
        ops = self.energy_params.ops
        samples = max(1, self.samples_per_gemm)
        counts = report.op_counts
        scale = plan.num_subtiles / samples

        ppe_ops = (counts.pr_ops + counts.tr_ops + counts.outlier_ops) * scale
        ape_ops = (counts.total_transrows - counts.zero_rows) * scale
        m = self.config.input_cols
        core_dynamic_nj = (
            ppe_ops * m * ops.add_energy(self.config.ppe_adder_bits)
            + ape_ops * m * ops.add_energy(self.config.ape_adder_bits)
        ) / 1000.0
        runtime_s = cycles / self.clock_hz
        core_static_nj = self.energy_params.core_static_power_mw * 1e-3 * runtime_s * 1e9
        scoreboard_nj = (
            plan.weight_subtiles
            * min(plan.transrows_per_subtile, self.config.num_nodes)
            * self.energy_params.scoreboard_access_pj
            / 1000.0
        )

        def buffer_nj(stream: str, capacity: int) -> float:
            per_bank = max(1, capacity // self.config.lanes) if stream == "prefix" else capacity
            bytes_per_subtile = report.buffer_bytes.get(stream, 0.0)
            return (
                bytes_per_subtile * plan.num_subtiles
                * sram_energy_per_byte_pj(per_bank) / 1000.0
            )

        breakdown = EnergyBreakdown(
            dram_static_nj=self.dram.static_power_mw * 1e-3 * runtime_s * 1e9,
            dram_dynamic_nj=plan.dram_total_bytes * self.dram.energy_pj_per_byte / 1000.0,
            core_nj=core_dynamic_nj + core_static_nj + scoreboard_nj,
            weight_buffer_nj=buffer_nj("weight", self.config.weight_buffer_bytes),
            input_buffer_nj=buffer_nj("input", self.config.input_buffer_bytes),
            prefix_buffer_nj=buffer_nj("prefix", self.config.prefix_buffer_bytes),
            output_buffer_nj=buffer_nj("output", self.config.output_buffer_bytes),
        )
        return breakdown
