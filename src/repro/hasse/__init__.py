"""Hasse-graph representation of transitive sparsity (paper Sec. 2.3 / Fig. 4).

The partial order "TransRow ``a`` is a prefix of TransRow ``b``" (every set bit
of ``a`` is also set in ``b``) is represented by the Hasse diagram of the
Boolean lattice over ``T`` bits.  The modules here provide the lattice
structure, Hamming-order traversals and the balanced-forest partition used by
the scoreboard to extract per-lane execution trees.
"""

from .graph import HasseGraph, hasse_graph
from .forest import Forest, ForestCandidate, Tree, balance_lanes, build_balanced_forest

__all__ = [
    "HasseGraph",
    "hasse_graph",
    "Forest",
    "ForestCandidate",
    "Tree",
    "balance_lanes",
    "build_balanced_forest",
]
