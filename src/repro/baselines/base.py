"""Common accelerator interface and performance-report container.

Every simulated design — the five baselines and the TransArray — implements
:class:`Accelerator`: it accepts a :class:`~repro.workloads.gemm.GemmWorkload`
(or a single :class:`~repro.workloads.gemm.GemmShape`) and returns a
:class:`PerformanceReport` with cycles, runtime and a per-component
:class:`~repro.energy.breakdown.EnergyBreakdown`.  The comparison harness of
Fig. 10 / Fig. 12 / Fig. 14 only ever talks to this interface.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Dict, Union

from ..config import CLOCK_FREQUENCY_HZ, BaselinePEConfig, DRAMConfig
from ..energy.breakdown import EnergyBreakdown
from ..energy.energy_model import EnergyParameters
from ..energy.sram import sram_energy_per_byte_pj
from ..errors import SimulationError
from ..workloads.gemm import GemmShape, GemmWorkload

WorkloadLike = Union[GemmShape, GemmWorkload]


@dataclass
class PerformanceReport:
    """Cycles, runtime and energy of one workload on one accelerator."""

    accelerator: str
    workload: str
    cycles: int
    macs: int
    energy: EnergyBreakdown
    clock_hz: float = CLOCK_FREQUENCY_HZ
    per_gemm_cycles: Dict[str, int] = field(default_factory=dict)

    @property
    def energy_nj(self) -> float:
        """Total energy in nanojoules."""
        return self.energy.total_nj


def as_workload(workload: WorkloadLike) -> GemmWorkload:
    """Normalise a single GEMM shape into a one-element workload."""
    if isinstance(workload, GemmShape):
        return GemmWorkload(name=workload.name, gemms=[workload])
    if isinstance(workload, GemmWorkload):
        return workload
    raise SimulationError(f"unsupported workload type: {type(workload)!r}")


class Accelerator(abc.ABC):
    """Interface shared by the TransArray and every baseline model."""

    name: str = "accelerator"

    @abc.abstractmethod
    def simulate(self, workload: WorkloadLike) -> PerformanceReport:
        """Simulate a workload and return its performance report."""


class MacArrayAccelerator(Accelerator):
    """Analytic cycle/energy model of a dense MAC-array accelerator.

    The model is intentionally simple and identical across baselines: compute
    cycles follow the effective MACs/cycle of the PE array at the workload's
    precision, DRAM cycles follow operand footprints at the shared bandwidth,
    and double buffering overlaps the two.  Subclasses specialise
    :meth:`effective_macs_per_cycle` (precision/composability/sparsity) and may
    veto workloads they cannot run (attention for the offline-only designs).
    """

    def __init__(
        self,
        config: BaselinePEConfig,
        dram: DRAMConfig = DRAMConfig(),
        energy: EnergyParameters = EnergyParameters(),
        clock_hz: float = CLOCK_FREQUENCY_HZ,
    ) -> None:
        self.config = config
        self.dram = dram
        self.energy_params = energy
        self.clock_hz = clock_hz
        self.name = config.name

    # ------------------------------------------------------------ dataflow
    def effective_macs_per_cycle(self, shape: GemmShape) -> float:
        """Peak effective MAC throughput for one GEMM's precision."""
        weight_factor = math.ceil(shape.weight_bits / self.config.pe_bits)
        act_factor = math.ceil(shape.activation_bits / self.config.pe_bits)
        return self.config.num_pes / (weight_factor * act_factor)

    def executed_mac_fraction(self, shape: GemmShape) -> float:
        """Fraction of MACs actually executed (sparsity designs skip some)."""
        return 1.0

    def validate(self, shape: GemmShape) -> None:
        """Raise :class:`SimulationError` if the design cannot run the GEMM."""
        if shape.weight_bits > 16 or shape.activation_bits > 16:
            raise SimulationError(
                f"{self.name}: precision above 16 bits is not modelled"
            )

    # ------------------------------------------------------------ simulate
    def simulate(self, workload: WorkloadLike) -> PerformanceReport:
        workload = as_workload(workload)
        total_cycles = 0
        total_macs = 0
        per_gemm: Dict[str, int] = {}
        energy = EnergyBreakdown()
        for shape in workload.gemms:
            self.validate(shape)
            gemm_cycles, gemm_energy = self._simulate_gemm(shape)
            total_cycles += gemm_cycles
            total_macs += shape.macs
            per_gemm[shape.name] = per_gemm.get(shape.name, 0) + gemm_cycles
            energy = energy.merge(gemm_energy)
        return PerformanceReport(
            accelerator=self.name,
            workload=workload.name,
            cycles=total_cycles,
            macs=total_macs,
            energy=energy,
            clock_hz=self.clock_hz,
            per_gemm_cycles=per_gemm,
        )

    def _simulate_gemm(self, shape: GemmShape):
        throughput = self.effective_macs_per_cycle(shape)
        if throughput <= 0:
            raise SimulationError(f"{self.name}: zero throughput for {shape.name}")
        # Sparsity designs already fold skipped work into their effective
        # throughput; the executed fraction below only discounts their energy.
        executed_macs = shape.macs * self.executed_mac_fraction(shape)
        compute_cycles = int(math.ceil(shape.macs / throughput))
        dram_cycles = int(math.ceil(shape.total_bytes / self.dram.bandwidth_bytes_per_cycle))
        cycles = max(compute_cycles, dram_cycles)
        energy = self._gemm_energy(shape, executed_macs, cycles)
        return cycles, energy

    # -------------------------------------------------------------- energy
    def _gemm_energy(self, shape: GemmShape, executed_macs: float, cycles: int) -> EnergyBreakdown:
        runtime_s = cycles / self.clock_hz
        ops = self.energy_params.ops
        mac_bits = max(shape.weight_bits, shape.activation_bits)
        core_dynamic_nj = executed_macs * ops.mac_energy(mac_bits) / 1000.0
        core_static_nj = self.energy_params.core_static_power_mw * 1e-3 * runtime_s * 1e9

        sram_pj_per_byte = sram_energy_per_byte_pj(self.config.buffer_bytes)
        operand_bytes = executed_macs * (shape.weight_bits + shape.activation_bits) / 8.0
        # Operands are reused across the PE array; charge one buffer read per
        # array-row's worth of MACs for each operand stream plus the output
        # write-back traffic.
        reuse = max(1, min(self.config.pe_rows, self.config.pe_cols))
        buffer_bytes = operand_bytes / reuse + 2.0 * shape.output_bytes
        buffer_nj = buffer_bytes * sram_pj_per_byte / 1000.0

        dram_dynamic_nj = shape.total_bytes * self.dram.energy_pj_per_byte / 1000.0
        dram_static_nj = self.dram.static_power_mw * 1e-3 * runtime_s * 1e9
        return EnergyBreakdown(
            dram_static_nj=dram_static_nj,
            dram_dynamic_nj=dram_dynamic_nj,
            core_nj=core_dynamic_nj + core_static_nj,
            other_buffer_nj=buffer_nj,
        )
