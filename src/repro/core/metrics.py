"""Operation counting and density/sparsity metrics for transitive GEMM.

The paper quantifies transitive sparsity through *density*: the fraction of
bit-serial dense work that still has to be executed.  Dense bit-serial GEMM
needs one addition per bit of every TransRow (``N * T`` adds); bit sparsity
needs one per set bit; transitive sparsity needs one add per executed Hasse
node (plus relays and duplicate accumulations).  :class:`OpCounts` captures the
per-category counts used by Fig. 9, Fig. 13 and the cycle model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

from ..scoreboard.algorithm import ScoreboardResult
from ..scoreboard.static import StaticTileOutcome


@dataclass(frozen=True)
class OpCounts:
    """Add-operation counts of one TransRow bag under transitive sparsity.

    Attributes
    ----------
    width:
        TransRow width ``T``.
    total_transrows:
        Number of TransRows (dense rows of the bit-sliced sub-tile).
    zero_rows:
        ZR rows — all-zero TransRows skipped outright.
    pr_ops:
        Prefix-Result-reuse adds: one per distinct present node whose prefix
        chain is valid (the node's first TransRow).
    fr_ops:
        Full-Result-reuse accumulations: one per duplicate TransRow.
    tr_ops:
        Transitive-Reuse relay adds: one per absent node recruited on a chain.
    outlier_ops:
        Raw adds for present nodes whose chain exceeded the distance limit
        (``popcount`` adds for the first TransRow of each such node).
    set_bits:
        Total number of set bits — the bit-sparsity cost baseline.
    """

    width: int
    total_transrows: int
    zero_rows: int
    pr_ops: int
    fr_ops: int
    tr_ops: int
    outlier_ops: int
    set_bits: int

    # ------------------------------------------------------------- totals
    @property
    def transitive_ops(self) -> int:
        """Total adds under transitive sparsity."""
        return self.pr_ops + self.fr_ops + self.tr_ops + self.outlier_ops

    @property
    def dense_ops(self) -> int:
        """Bit-serial dense adds (one per bit of every TransRow)."""
        return self.total_transrows * self.width

    @property
    def bit_sparsity_ops(self) -> int:
        """Adds needed by a bit-sparsity accelerator (one per set bit)."""
        return self.set_bits

    # ----------------------------------------------------------- densities
    @property
    def density(self) -> float:
        """Transitive-sparsity density: remaining fraction of dense work."""
        return self.transitive_ops / self.dense_ops if self.dense_ops else 0.0

    @property
    def bit_density(self) -> float:
        """Bit-sparsity density (≈50 % for uniform random data)."""
        return self.bit_sparsity_ops / self.dense_ops if self.dense_ops else 0.0

    @property
    def zr_fraction(self) -> float:
        """Fraction of TransRows that are all-zero (ZR sparsity in Fig. 9)."""
        return self.zero_rows / self.total_transrows if self.total_transrows else 0.0

    @property
    def tr_density(self) -> float:
        """Relay adds as a fraction of dense work (TR density in Fig. 9)."""
        return self.tr_ops / self.dense_ops if self.dense_ops else 0.0

    @property
    def fr_density(self) -> float:
        """Duplicate accumulations as a fraction of dense work (FR density)."""
        return self.fr_ops / self.dense_ops if self.dense_ops else 0.0

    @property
    def pr_density(self) -> float:
        """Prefix-reuse adds as a fraction of dense work (PR density)."""
        return (self.pr_ops + self.outlier_ops) / self.dense_ops if self.dense_ops else 0.0

    def speedup_over_dense(self) -> float:
        """Ideal op-count speedup over bit-serial dense GEMM."""
        return self.dense_ops / self.transitive_ops if self.transitive_ops else float("inf")

    def speedup_over_bit_sparsity(self) -> float:
        """Ideal op-count speedup over a bit-sparsity accelerator."""
        return (
            self.bit_sparsity_ops / self.transitive_ops
            if self.transitive_ops
            else float("inf")
        )

    def repeated(self, times: int) -> "OpCounts":
        """Counts of running the same TransRow bag ``times`` times."""
        return OpCounts(
            width=self.width,
            total_transrows=self.total_transrows * times,
            zero_rows=self.zero_rows * times,
            pr_ops=self.pr_ops * times,
            fr_ops=self.fr_ops * times,
            tr_ops=self.tr_ops * times,
            outlier_ops=self.outlier_ops * times,
            set_bits=self.set_bits * times,
        )

    def merge(self, other: "OpCounts") -> "OpCounts":
        """Combine counts of two TransRow bags (e.g. two sub-tiles)."""
        if other.width != self.width:
            raise ValueError(
                f"cannot merge OpCounts of widths {self.width} and {other.width}"
            )
        return OpCounts(
            width=self.width,
            total_transrows=self.total_transrows + other.total_transrows,
            zero_rows=self.zero_rows + other.zero_rows,
            pr_ops=self.pr_ops + other.pr_ops,
            fr_ops=self.fr_ops + other.fr_ops,
            tr_ops=self.tr_ops + other.tr_ops,
            outlier_ops=self.outlier_ops + other.outlier_ops,
            set_bits=self.set_bits + other.set_bits,
        )


def _total_set_bits(counts: Dict[int, int]) -> int:
    return sum(bin(value).count("1") * count for value, count in counts.items())


def op_counts_from_result(result: ScoreboardResult) -> OpCounts:
    """Derive :class:`OpCounts` from a (dynamic) scoreboard run."""
    pr_ops = 0
    fr_ops = 0
    tr_ops = 0
    for node in result.nodes.values():
        if node.is_relay:
            tr_ops += 1
        else:
            pr_ops += 1
            fr_ops += node.count - 1
    outlier_ops = 0
    for outlier in result.outliers:
        outlier_ops += outlier.popcount
        fr_ops += outlier.count - 1
    return OpCounts(
        width=result.width,
        total_transrows=result.total_transrows,
        zero_rows=result.zero_rows,
        pr_ops=pr_ops,
        fr_ops=fr_ops,
        tr_ops=tr_ops,
        outlier_ops=outlier_ops,
        set_bits=_total_set_bits(result.counts),
    )


def op_counts_from_static_outcome(outcome: StaticTileOutcome, tile_values: Iterable[int]) -> OpCounts:
    """Derive :class:`OpCounts` from a static-scoreboard tile outcome."""
    set_bits = sum(bin(int(v)).count("1") for v in tile_values)
    return OpCounts(
        width=outcome.width,
        total_transrows=outcome.total_transrows,
        zero_rows=outcome.zero_rows,
        pr_ops=outcome.pr_nodes,
        fr_ops=outcome.fr_rows,
        tr_ops=outcome.tr_steps,
        outlier_ops=outcome.outlier_adds,
        set_bits=set_bits,
    )
