"""The T-bit Hasse lattice of TransRow values.

Nodes are the integers ``0 .. 2**T - 1``; node ``a`` precedes node ``b`` when
``a``'s set bits are a subset of ``b``'s.  Direct neighbours differ by a single
bit flip, so each node has at most ``T`` direct prefixes (clear one set bit) and
at most ``T`` direct suffixes (set one clear bit).  The level of a node is its
Hamming weight (PopCount), which is also the traversal key of the paper's
Hamming-order execution (Sec. 3.1).

Because the scoreboard's inner loops query the lattice millions of times, all
structural information is precomputed once per width and cached on the (per
width singleton) instance: the popcount/level table, the forward and backward
Hamming traversal orders, and — for the vectorized batched scoreboard — dense
NumPy index tables of the per-level direct-prefix/suffix adjacency and the
"clear the lowest set bit" prefix-reuse parent of every node.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

import numpy as np

from ..errors import ConfigurationError


class HasseGraph:
    """Boolean-lattice Hasse graph over ``width``-bit TransRow values.

    The graph is small (``2**width`` nodes, at most 16 bits are ever used by the
    hardware), so the full structure is materialised eagerly.  Instances are
    cached per width because every scoreboard, dispatcher and analysis sweep
    shares the same immutable structure; the traversal-order lists returned by
    :meth:`hamming_order` / :meth:`reverse_hamming_order` are likewise cached
    and must not be mutated by callers.
    """

    _instances: dict = {}

    def __new__(cls, width: int) -> "HasseGraph":
        if width in cls._instances:
            return cls._instances[width]
        instance = super().__new__(cls)
        cls._instances[width] = instance
        return instance

    def __init__(self, width: int) -> None:
        if getattr(self, "_initialised", False):
            return
        if width < 1 or width > 16:
            raise ConfigurationError(f"Hasse graph width must be in [1, 16], got {width}")
        self.width = width
        self.num_nodes = 1 << width

        nodes = np.arange(self.num_nodes, dtype=np.int64)
        level_table = np.zeros(self.num_nodes, dtype=np.int64)
        for b in range(width):
            level_table += (nodes >> b) & 1
        #: PopCount of every node — ``level_table[v] == popcount(v)``.
        self.level_table: np.ndarray = level_table
        self._level_list: List[int] = level_table.tolist()

        self._levels: List[List[int]] = [[] for _ in range(width + 1)]
        for node in range(self.num_nodes):
            self._levels[self._level_list[node]].append(node)
        self._level_arrays: List[np.ndarray] = [
            np.array(l, dtype=np.int64) for l in self._levels
        ]
        self._hamming_order = [node for level in self._levels for node in level]
        self._order_cache: dict = {}
        self._prefix_tables: List[np.ndarray] = []
        self._reuse_tables: Tuple[np.ndarray, np.ndarray] = self._build_reuse_tables()
        self._initialised = True

    # ------------------------------------------------------------------ levels
    def level(self, node: int) -> int:
        """PopCount of ``node`` — its level in the lattice."""
        self._check_node(node)
        return self._level_list[node]

    def level_nodes_array(self, level: int) -> np.ndarray:
        """Nodes at a level as a cached int64 array (do not mutate)."""
        if level < 0 or level > self.width:
            raise ConfigurationError(
                f"level {level} out of range for a {self.width}-bit Hasse graph"
            )
        return self._level_arrays[level]

    # -------------------------------------------------------------- traversals
    def hamming_order(self, include_zero: bool = True, include_top: bool = True) -> List[int]:
        """Nodes sorted by PopCount (forward traversal of Alg. 1).

        Ties within a level keep ascending value order, matching the order the
        paper lists in Alg. 1 (``0, 1, 2, 4, 8, 3, 5, 6, 9, ...``).  The
        filtered orders are cached per argument combination; callers get a
        fresh copy so mutating it cannot poison the per-width singleton.
        """
        key = ("fwd", include_zero, include_top)
        order = self._order_cache.get(key)
        if order is None:
            order = list(self._hamming_order)
            if not include_zero:
                order = order[1:]
            if not include_top:
                order = [n for n in order if n != self.num_nodes - 1]
            self._order_cache[key] = order
        return list(order)

    def reverse_hamming_order(self, include_zero: bool = False) -> List[int]:
        """Nodes sorted by descending PopCount (backward traversal of Alg. 2).

        Cached per argument combination; callers receive a fresh copy.
        """
        key = ("rev", include_zero)
        order = self._order_cache.get(key)
        if order is None:
            order = [n for n in reversed(self._hamming_order)]
            if not include_zero:
                order = [n for n in order if n != 0]
            self._order_cache[key] = order
        return list(order)

    # ------------------------------------------------------------- adjacency
    def direct_prefixes(self, node: int) -> List[int]:
        """Nodes one level below reachable by clearing a single set bit."""
        self._check_node(node)
        return [node & ~(1 << b) for b in range(self.width) if node & (1 << b)]

    def direct_suffixes(self, node: int) -> List[int]:
        """Nodes one level above reachable by setting a single clear bit."""
        self._check_node(node)
        return [node | (1 << b) for b in range(self.width) if not node & (1 << b)]

    def prefix_index_table(self, level: int) -> np.ndarray:
        """Direct prefixes of every level-``level`` node as one dense array.

        Returns a cached ``(C(width, level), level)`` int64 array whose row
        ``i`` lists the direct prefixes of ``level_nodes_array(level)[i]`` in
        ascending value order.  This is the adjacency operand of the batched
        scoreboard's level-synchronous forward/backward passes; do not mutate.
        """
        if level < 1 or level > self.width:
            raise ConfigurationError(
                f"prefix table level {level} out of range for width {self.width}"
            )
        if not self._prefix_tables:
            for lvl in range(1, self.width + 1):
                rows = [
                    sorted(self.direct_prefixes(node))
                    for node in self._levels[lvl]
                ]
                self._prefix_tables.append(np.array(rows, dtype=np.int64))
        return self._prefix_tables[level - 1]

    def reuse_parent_table(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-node prefix-reuse parent and consumed bit position.

        Returns cached arrays ``(parent, bit_position)`` of length
        ``num_nodes`` where ``parent[v] = v & (v - 1)`` (clear the lowest set
        bit — a direct prefix one level down) and ``bit_position[v]`` is the
        position (LSB = 0) of the bit cleared, i.e. the single input row whose
        addition turns ``parent[v]``'s partial sum into ``v``'s.  Entry 0 is
        self-referential with bit position ``-1``.  Do not mutate.
        """
        return self._reuse_tables

    def _build_reuse_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        nodes = np.arange(self.num_nodes, dtype=np.int64)
        parent = nodes & (nodes - 1)
        parent[0] = 0
        lowest = nodes & -nodes
        bit_position = np.full(self.num_nodes, -1, dtype=np.int64)
        for b in range(self.width):
            bit_position[lowest == (1 << b)] = b
        return parent, bit_position

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ConfigurationError(
                f"node {node} out of range for a {self.width}-bit Hasse graph"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"HasseGraph(width={self.width}, nodes={self.num_nodes})"


@lru_cache(maxsize=32)
def hasse_graph(width: int) -> HasseGraph:
    """Cached accessor used by hot loops in the scoreboard and analysis code."""
    return HasseGraph(width)
