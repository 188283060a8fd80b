"""Core scoreboarding algorithm: forward pass, backward pass, balanced forest.

This module is a direct implementation of Algorithms 1 and 2 of the paper,
generalised from the 4-bit exposition to any TransRow width.  Given the bag of
TransRow values of one sub-tile (or of a whole tensor, for the static
scoreboard) it produces a :class:`ScoreboardResult` containing, for every node
that will execute:

* the node's occurrence count,
* its distance to the nearest *present* ancestor in the Hasse graph,
* the single prefix chosen for it (after load balancing),
* its lane assignment, and
* whether it is a relay-only (Transitive Reuse) node.

Present nodes whose shortest prefix chain exceeds ``max_distance`` are reported
as *outliers*; the TransArray dispatches them at the end of the other
operations and computes them from scratch (paper Sec. 5.2).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ScoreboardError
from ..hasse import Forest, ForestCandidate, build_balanced_forest
from ..hasse.graph import hasse_graph

#: Sentinel distance for nodes that never received a prefix candidate.
UNREACHED: int = 1 << 30


@dataclass
class NodeState:
    """Mutable per-node working state of the scoreboarding passes (Fig. 6)."""

    index: int
    count: int = 0
    distance: int = UNREACHED
    prefix_bitmaps: List[set] = field(default_factory=list)
    suffixes: set = field(default_factory=set)

    def candidates_at(self, distance: int) -> Tuple[int, ...]:
        """Prefix candidates recorded at exactly ``distance`` (sorted)."""
        if distance < 1 or distance > len(self.prefix_bitmaps):
            return ()
        return tuple(sorted(self.prefix_bitmaps[distance - 1]))


@dataclass(frozen=True)
class ExecutedNode:
    """Final record of one node that the TransArray will execute."""

    index: int
    count: int
    distance: int
    prefix: int
    lane: int
    is_relay: bool


@dataclass(frozen=True)
class OutlierNode:
    """A present node with no valid prefix chain within ``max_distance``."""

    index: int
    count: int

    @property
    def popcount(self) -> int:
        """Hamming weight — the number of raw accumulations the node needs."""
        return bin(self.index).count("1")


@dataclass
class ScoreboardResult:
    """Output of :func:`run_scoreboard` for one bag of TransRows."""

    width: int
    max_distance: int
    num_lanes: int
    counts: Dict[int, int]
    nodes: Dict[int, ExecutedNode]
    outliers: List[OutlierNode]
    forest: Forest

    @property
    def total_transrows(self) -> int:
        """Number of TransRows fed to the scoreboard, zero rows included."""
        return sum(self.counts.values())

    @property
    def zero_rows(self) -> int:
        """TransRows whose value is 0 (ZR: skipped entirely)."""
        return self.counts.get(0, 0)

    @property
    def relay_nodes(self) -> List[int]:
        """Absent nodes executed only to forward partial sums (TR nodes)."""
        return sorted(idx for idx, node in self.nodes.items() if node.is_relay)


def _validate_inputs(values: Sequence[int], width: int, max_distance: int) -> None:
    if width < 1 or width > 16:
        raise ScoreboardError(f"TransRow width must be in [1, 16], got {width}")
    if max_distance < 1:
        raise ScoreboardError(f"max_distance must be >= 1, got {max_distance}")
    limit = 1 << width
    for value in values:
        if not 0 <= int(value) < limit:
            raise ScoreboardError(
                f"TransRow value {value} out of range for width {width}"
            )


def run_scoreboard(
    values: Iterable[int],
    width: int,
    max_distance: int = 4,
    num_lanes: Optional[int] = None,
) -> ScoreboardResult:
    """Run the full scoreboarding flow on a bag of TransRow values.

    Parameters
    ----------
    values:
        TransRow values (duplicates allowed, zeros allowed).
    width:
        TransRow width ``T``.
    max_distance:
        Longest prefix chain the scoreboard will build (paper default: 4).
        Present nodes farther from any present ancestor become outliers.
    num_lanes:
        Number of parallel lanes for the balanced forest; defaults to ``width``.

    Returns
    -------
    ScoreboardResult
    """
    values = [int(v) for v in values]
    _validate_inputs(values, width, max_distance)
    graph = hasse_graph(width)
    lanes = num_lanes if num_lanes is not None else width
    counts: Dict[int, int] = dict(Counter(values))

    states = {
        idx: NodeState(index=idx, count=counts.get(idx, 0),
                       prefix_bitmaps=[set() for _ in range(max_distance)])
        for idx in range(graph.num_nodes)
    }
    states[0].distance = 0

    _forward_pass(graph, states, max_distance)
    relay_parent, relay_nodes = _backward_pass(graph, states, max_distance)

    executed, outliers = _collect_executed(
        graph, states, relay_parent, relay_nodes, counts, max_distance
    )
    forest = build_balanced_forest(graph, executed, num_lanes=lanes)

    nodes: Dict[int, ExecutedNode] = {}
    for candidate in executed:
        state = states[candidate.index]
        nodes[candidate.index] = ExecutedNode(
            index=candidate.index,
            count=candidate.count,
            distance=state.distance,
            prefix=forest.prefix_of(candidate.index),
            lane=forest.lane_of(candidate.index),
            is_relay=candidate.is_relay,
        )

    return ScoreboardResult(
        width=width,
        max_distance=max_distance,
        num_lanes=lanes,
        counts=counts,
        nodes=nodes,
        outliers=outliers,
        forest=forest,
    )


def _forward_pass(graph, states: Dict[int, NodeState], max_distance: int) -> None:
    """Alg. 1: propagate candidate prefixes level by level in Hamming order."""
    for idx in graph.hamming_order(include_top=False):
        state = states[idx]
        distance = state.distance
        if distance >= max_distance and idx != 0:
            continue
        if state.count > 0 or idx == 0:
            distance = 0
        for suffix in graph.direct_suffixes(idx):
            suffix_state = states[suffix]
            suffix_state.prefix_bitmaps[distance].add(idx)
            suffix_state.distance = min(suffix_state.distance, distance + 1)


def _backward_pass(
    graph, states: Dict[int, NodeState], max_distance: int
) -> Tuple[Dict[int, int], set]:
    """Alg. 2: trace relay chains for present nodes with distance > 1.

    Returns ``(relay_parent, relay_nodes)``: a mapping ``node -> immediate
    parent on its prefix chain`` for every node whose path was built by the
    backward pass (the first candidate in its smallest prefix bitmap, as in the
    paper), plus the set of absent nodes recruited as relays.  Recruiting a
    relay sets its count to 1 in the paper; here membership in ``relay_nodes``
    plays that role so the chain keeps extending when the relay itself is
    visited later in the reverse Hamming order.
    """
    relay_parent: Dict[int, int] = {}
    relay_nodes: set = set()
    for idx in graph.reverse_hamming_order(include_zero=False):
        state = states[idx]
        distance = state.distance
        if 1 < distance < max_distance and (state.count > 0 or idx in relay_nodes):
            candidates = state.candidates_at(distance)
            if not candidates:
                continue
            prefix = candidates[0]
            relay_parent[idx] = prefix
            prefix_state = states[prefix]
            prefix_state.suffixes.add(idx)
            if prefix_state.count == 0:
                relay_nodes.add(prefix)
    return relay_parent, relay_nodes


def _collect_executed(
    graph,
    states: Dict[int, NodeState],
    relay_parent: Dict[int, int],
    relay_nodes: set,
    counts: Dict[int, int],
    max_distance: int,
) -> Tuple[List[ForestCandidate], List[OutlierNode]]:
    """Derive forest candidates and outliers from the post-pass node states."""
    executed: List[ForestCandidate] = []
    outliers: List[OutlierNode] = []
    for idx, state in states.items():
        if idx == 0:
            continue
        original_count = counts.get(idx, 0)
        is_relay = idx in relay_nodes and original_count == 0
        if original_count == 0 and not is_relay:
            continue
        distance = state.distance
        if original_count > 0 and distance >= max_distance:
            outliers.append(OutlierNode(index=idx, count=original_count))
            continue
        if idx in relay_parent:
            candidates: Tuple[int, ...] = (relay_parent[idx],)
        else:
            candidates = state.candidates_at(1)
        if not candidates:
            if original_count > 0:
                outliers.append(OutlierNode(index=idx, count=original_count))
            continue
        executed.append(
            ForestCandidate(
                index=idx,
                count=original_count,
                candidates=candidates,
                is_relay=is_relay,
            )
        )
    return executed, outliers
