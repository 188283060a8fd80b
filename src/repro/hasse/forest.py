"""Balanced forest partition of the executed Hasse sub-graph (paper Sec. 2.4).

After scoreboarding decides which nodes execute and which prefixes are valid,
every executed node must receive exactly one prefix and one lane so that the
``T`` parallel lanes of the TransArray each process an independent tree.  The
paper balances the trees with a round-robin-like traversal supervised by a
simple workload counter; :func:`balance_lanes` implements that greedy
balancing over plain lists and :func:`build_balanced_forest` wraps it into
per-lane trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ScoreboardError
from .graph import HasseGraph


@dataclass(frozen=True)
class ForestCandidate:
    """An executed node awaiting lane/prefix assignment.

    Attributes
    ----------
    index:
        The node's TransRow value.
    count:
        Number of TransRows carrying this value (0 for relay-only nodes).
    candidates:
        Prefix nodes the scoreboard allows for this node, all of which are
        either node 0 or nodes that execute earlier in Hamming order.
    is_relay:
        True for Transitive-Reuse (TR) nodes that only forward a partial sum.
    """

    index: int
    count: int
    candidates: Tuple[int, ...]
    is_relay: bool = False


@dataclass
class Tree:
    """One independent execution tree rooted at a level-1 (or orphan) node."""

    root: int
    lane: int
    nodes: List[int] = field(default_factory=list)
    workload: int = 0


@dataclass
class Forest:
    """Result of the balanced partition: per-node prefix and lane assignment."""

    width: int
    num_lanes: int
    trees: List[Tree]
    node_prefix: Dict[int, int]
    node_lane: Dict[int, int]

    @property
    def lane_workloads(self) -> List[int]:
        """Total workload (TransRows + relay steps) assigned to each lane."""
        loads = [0] * self.num_lanes
        for tree in self.trees:
            loads[tree.lane] += tree.workload
        return loads

    def lane_of(self, node: int) -> int:
        """Lane executing ``node``; raises if the node is not in the forest."""
        try:
            return self.node_lane[node]
        except KeyError as exc:
            raise ScoreboardError(f"node {node} is not part of the forest") from exc

    def prefix_of(self, node: int) -> int:
        """Prefix chosen for ``node``; raises if the node is not in the forest."""
        try:
            return self.node_prefix[node]
        except KeyError as exc:
            raise ScoreboardError(f"node {node} is not part of the forest") from exc

    @property
    def imbalance(self) -> float:
        """Max/mean lane workload ratio; 1.0 is a perfectly balanced forest."""
        loads = [load for load in self.lane_workloads if load]
        if not loads:
            return 1.0
        mean = sum(loads) / len(loads)
        return max(loads) / mean if mean else 1.0


def _node_workload(count: int) -> int:
    """Workload contribution of one node: its TransRows, or 1 relay step."""
    return max(count, 1)


def balance_lanes(
    indices: Sequence[int],
    counts: Sequence[int],
    candidates: Sequence[Sequence[int]],
    num_lanes: int,
) -> Tuple[List[int], List[int]]:
    """The workload-counter lane balancing of Fig. 5 step 5, over plain lists.

    ``indices`` lists the executed nodes in Hamming order, ``counts`` their
    TransRow counts (0 for relays) and ``candidates`` their allowed prefixes.
    Each node joins the placed candidate prefix whose lane is least loaded
    (ties go to the smaller prefix); a node whose only candidate is node 0
    roots a new tree on the least-loaded lane (ties go to the lower lane).
    Returns the chosen prefix and the lane of every node, in input order.
    """
    lane_loads = [0] * num_lanes
    lane_of: Dict[int, int] = {}
    prefixes: List[int] = []
    lanes: List[int] = []
    for index, count, options in zip(indices, counts, candidates):
        chosen = lane = -1
        rootable = False
        for prefix in options:
            if prefix == 0:
                rootable = True
                continue
            prefix_lane = lane_of.get(prefix)
            if prefix_lane is None:
                continue
            if chosen < 0 or (lane_loads[prefix_lane], prefix) < (lane_loads[lane], chosen):
                chosen, lane = prefix, prefix_lane
        if chosen < 0:
            if not rootable:
                raise ScoreboardError(
                    f"node {index} has no placed prefix among {tuple(options)}"
                )
            chosen = 0
            lane = min(range(num_lanes), key=lane_loads.__getitem__)
        lane_loads[lane] += _node_workload(count)
        lane_of[index] = lane
        prefixes.append(chosen)
        lanes.append(lane)
    return prefixes, lanes


def build_balanced_forest(
    graph: HasseGraph,
    nodes: Sequence[ForestCandidate],
    num_lanes: Optional[int] = None,
) -> Forest:
    """Greedily assign every executed node a prefix and a lane.

    Nodes are visited in Hamming order so a node's candidate prefixes have
    already been placed, and :func:`balance_lanes` picks each node's prefix
    and lane; this wrapper groups the result into trees.
    """
    num_lanes = num_lanes if num_lanes is not None else graph.width
    if num_lanes < 1:
        raise ScoreboardError(f"num_lanes must be >= 1, got {num_lanes}")
    if any(candidate.index == 0 for candidate in nodes):
        raise ScoreboardError("node 0 never executes and cannot join the forest")

    ordered = sorted(nodes, key=lambda c: (graph.level(c.index), c.index))
    prefixes, lanes = balance_lanes(
        [c.index for c in ordered],
        [c.count for c in ordered],
        [c.candidates for c in ordered],
        num_lanes,
    )
    trees: List[Tree] = []
    tree_of_node: Dict[int, Tree] = {}
    for candidate, prefix, lane in zip(ordered, prefixes, lanes):
        if prefix == 0:
            tree = Tree(root=candidate.index, lane=lane)
            trees.append(tree)
        else:
            tree = tree_of_node[prefix]
        tree.nodes.append(candidate.index)
        tree.workload += _node_workload(candidate.count)
        tree_of_node[candidate.index] = tree

    return Forest(
        width=graph.width,
        num_lanes=num_lanes,
        trees=trees,
        node_prefix={c.index: p for c, p in zip(ordered, prefixes)},
        node_lane={c.index: lane for c, lane in zip(ordered, lanes)},
    )
