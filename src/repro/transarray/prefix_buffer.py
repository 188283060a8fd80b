"""Distributed prefix buffer (paper Sec. 4.4).

Each lane of the TransArray owns an independent prefix-buffer bank holding the
partial sums of the nodes in its tree, which is what lets the paper avoid a
monolithic multi-ported memory.  Functionally the buffer is a keyed store of
partial-sum vectors; for the cycle model it counts accesses and their bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..errors import SimulationError


@dataclass
class BufferAccessCounter:
    """Read/write byte counters of the prefix buffer."""

    read_bytes: int = 0
    write_bytes: int = 0


@dataclass
class PrefixBufferStats:
    """Access statistics of the distributed prefix buffer."""

    reads: int = 0
    writes: int = 0


class DistributedPrefixBuffer:
    """Per-lane banks storing node partial sums keyed by node index.

    Parameters
    ----------
    num_banks:
        One bank per lane (``T`` for ``T``-bit TranSparsity).
    capacity_bytes:
        Total prefix-buffer capacity (18 KB per unit in Table 1).
    entry_bytes:
        Bytes of one stored partial-sum vector (``m`` columns x 12-bit PPE
        precision, rounded to 2 bytes per element).
    """

    def __init__(self, num_banks: int, capacity_bytes: int, entry_bytes: int) -> None:
        if num_banks < 1:
            raise SimulationError("prefix buffer needs at least one bank")
        if capacity_bytes < entry_bytes or entry_bytes <= 0:
            raise SimulationError("prefix buffer capacity must hold at least one entry")
        self.num_banks = num_banks
        self.capacity_bytes = capacity_bytes
        self.entry_bytes = entry_bytes
        self.stats = PrefixBufferStats()
        self.traffic = BufferAccessCounter()
        self._banks: Dict[int, Dict[int, np.ndarray]] = {b: {} for b in range(num_banks)}

    @property
    def max_entries(self) -> int:
        """Entries that fit across all banks."""
        return self.capacity_bytes // self.entry_bytes

    @property
    def resident_entries(self) -> int:
        """Entries currently stored."""
        return sum(len(bank) for bank in self._banks.values())

    def bank_of(self, lane: int) -> int:
        """The bank used by a lane (identity mapping in the distributed design)."""
        return lane % self.num_banks

    # ------------------------------------------------------------ accesses
    def write(self, lane: int, node: int, value: np.ndarray) -> None:
        """Store a node's partial sum into its lane bank."""
        if self.resident_entries >= self.max_entries:
            raise SimulationError(
                f"prefix buffer overflow: {self.resident_entries} entries already resident"
            )
        self._banks[self.bank_of(lane)][node] = np.asarray(value)
        self.stats.writes += 1
        self.traffic.write_bytes += self.entry_bytes

    def read(self, lane: int, node: int) -> np.ndarray:
        """Fetch a node's partial sum from its lane bank (node 0 reads as zero)."""
        self.stats.reads += 1
        self.traffic.read_bytes += self.entry_bytes
        bank = self._banks[self.bank_of(lane)]
        if node == 0:
            return np.zeros(self.entry_bytes // 2, dtype=np.int64)
        try:
            return bank[node]
        except KeyError as exc:
            raise SimulationError(
                f"prefix {node} missing from bank {self.bank_of(lane)}"
            ) from exc
