"""Hardware configuration objects for the Transitive Array reproduction.

The defaults mirror Table 1 of the paper (one TransArray unit) and Section 5.1's
methodology (28 nm process, 500 MHz, six TransArray units per accelerator).
All configuration objects are immutable dataclasses; derived quantities are
exposed as properties so a configuration can never be internally inconsistent.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigurationError

#: Clock frequency shared by the Transitive Array and every baseline (Hz).
CLOCK_FREQUENCY_HZ: float = 500e6

#: Technology node used for all area/energy constants (nanometres).
PROCESS_NODE_NM: int = 28


@dataclass(frozen=True)
class TransArrayConfig:
    """Configuration of a single TransArray unit (paper Table 1).

    Parameters
    ----------
    transrow_bits:
        Width ``T`` of a TransRow in bits.  The paper's design-space exploration
        (Fig. 9) selects 8; 4 is used for the worked examples in Figs. 1-8.
    max_transrows:
        Maximum number of 1-bit TransRows processed per sub-tile (256).
    weight_rows_8bit / weight_rows_4bit:
        Weight tile height ``N`` for 8-bit and 4-bit weights (32 / 64); both map
        to the same 256 TransRows after bit-slicing.
    input_cols:
        Input tile width ``M`` (32).
    ppe_adder_bits / ape_adder_bits:
        Precision of the Prefix PE and Accumulation PE adders (12 / 24 bits).
    lanes:
        Number of parallel lanes; equals ``transrow_bits`` (one tree per lane).
    num_units:
        Number of TransArray units instantiated in the accelerator (6).
    max_prefix_distance:
        Longest prefix chain tracked by the scoreboard before a TransRow is
        treated as an outlier (4).
    weight_buffer_bytes ... double_buffer_bytes:
        On-chip buffer partition sizes from Table 1 (80 KB total per unit).
    """

    transrow_bits: int = 8
    max_transrows: int = 256
    weight_rows_8bit: int = 32
    weight_rows_4bit: int = 64
    input_cols: int = 32
    ppe_adder_bits: int = 12
    ape_adder_bits: int = 24
    num_units: int = 6
    max_prefix_distance: int = 4
    weight_buffer_bytes: int = 8 * 1024
    input_buffer_bytes: int = 8 * 1024
    output_buffer_bytes: int = 22 * 1024
    prefix_buffer_bytes: int = 18 * 1024
    double_buffer_bytes: int = 24 * 1024
    clock_hz: float = CLOCK_FREQUENCY_HZ

    def __post_init__(self) -> None:
        if self.transrow_bits < 1 or self.transrow_bits > 16:
            raise ConfigurationError(
                f"transrow_bits must be within [1, 16], got {self.transrow_bits}"
            )
        if self.max_transrows < self.transrow_bits:
            raise ConfigurationError(
                "max_transrows must be at least transrow_bits "
                f"({self.max_transrows} < {self.transrow_bits})"
            )
        if self.max_prefix_distance < 1:
            raise ConfigurationError("max_prefix_distance must be >= 1")
        if self.num_units < 1:
            raise ConfigurationError("num_units must be >= 1")
        if self.input_cols < 1:
            raise ConfigurationError("input_cols must be >= 1")

    @property
    def lanes(self) -> int:
        """Number of parallel lanes; one independent tree per TransRow bit."""
        return self.transrow_bits

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the T-bit Hasse graph, including node 0."""
        return 1 << self.transrow_bits

    @property
    def pe_columns(self) -> int:
        """Adders per lane in the PPE/APE arrays (one per output column)."""
        return self.input_cols

    @property
    def total_buffer_bytes(self) -> int:
        """Total on-chip SRAM capacity of one unit (80 KB in Table 1)."""
        return (
            self.weight_buffer_bytes
            + self.input_buffer_bytes
            + self.output_buffer_bytes
            + self.prefix_buffer_bytes
            + self.double_buffer_bytes
        )

    def weight_rows(self, weight_bits: int) -> int:
        """Weight tile height ``N`` for a given weight precision.

        The tile height is chosen so the bit-sliced sub-tile always contains
        ``max_transrows`` TransRows (Table 1: 32 rows at 8-bit, 64 rows at 4-bit).
        """
        if weight_bits <= 0:
            raise ConfigurationError(f"weight_bits must be positive, got {weight_bits}")
        return max(1, self.max_transrows // weight_bits)


@dataclass(frozen=True)
class BaselinePEConfig:
    """Geometry and per-PE cost of a baseline accelerator's compute array.

    The shapes and PE areas follow Table 2 of the paper; ``pe_bits`` is the
    native operand width of one PE and determines how many PEs (or passes) an
    8-bit x 8-bit MAC consumes.
    """

    name: str
    pe_rows: int
    pe_cols: int
    pe_bits: int
    pe_area_um2: float
    buffer_bytes: int
    supports_attention: bool = False
    bit_sparsity: float = 0.0

    def __post_init__(self) -> None:
        if self.pe_rows < 1 or self.pe_cols < 1:
            raise ConfigurationError(f"{self.name}: PE array shape must be positive")
        if not 0.0 <= self.bit_sparsity < 1.0:
            raise ConfigurationError(f"{self.name}: bit_sparsity must be in [0, 1)")

    @property
    def num_pes(self) -> int:
        """Total number of processing elements in the array."""
        return self.pe_rows * self.pe_cols


def default_baseline_configs() -> dict:
    """Return the five baseline configurations from Table 2 of the paper."""
    return {
        "bitfusion": BaselinePEConfig(
            name="bitfusion", pe_rows=28, pe_cols=32, pe_bits=8,
            pe_area_um2=548.0, buffer_bytes=512 * 1024, supports_attention=True,
        ),
        "ant": BaselinePEConfig(
            name="ant", pe_rows=36, pe_cols=64, pe_bits=4,
            pe_area_um2=210.0, buffer_bytes=512 * 1024, supports_attention=True,
        ),
        "olive": BaselinePEConfig(
            name="olive", pe_rows=32, pe_cols=48, pe_bits=4,
            pe_area_um2=319.0, buffer_bytes=512 * 1024, supports_attention=False,
        ),
        "bitvert": BaselinePEConfig(
            name="bitvert", pe_rows=16, pe_cols=30, pe_bits=8,
            pe_area_um2=985.0, buffer_bytes=512 * 1024, supports_attention=False,
            bit_sparsity=0.5,
        ),
        "tender": BaselinePEConfig(
            name="tender", pe_rows=30, pe_cols=48, pe_bits=4,
            pe_area_um2=329.0, buffer_bytes=608 * 1024, supports_attention=False,
        ),
    }


@dataclass(frozen=True)
class DRAMConfig:
    """Off-chip DRAM model parameters shared by every accelerator."""

    bandwidth_bytes_per_cycle: float = 64.0
    energy_pj_per_byte: float = 20.0
    static_power_mw: float = 120.0

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_cycle <= 0:
            raise ConfigurationError("DRAM bandwidth must be positive")
        if self.energy_pj_per_byte < 0 or self.static_power_mw < 0:
            raise ConfigurationError("DRAM energy parameters must be non-negative")
