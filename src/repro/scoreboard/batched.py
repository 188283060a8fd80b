"""Vectorized, batched scoreboarding over many TransRow bags at once.

:func:`repro.scoreboard.algorithm.run_scoreboard` walks the ``2**T``-node Hasse
lattice with per-node Python objects; fine for one bag, hopeless for the
hundreds of column chunks of an LLM-scale GEMM.  This module re-expresses the
same Algorithms 1 and 2 as *level-synchronous array passes*: every chunk's
``2**T`` node states live in one row of a ``(chunks, 2**T)`` NumPy array, the
per-level bitwise adjacency comes from the cached index tables of
:class:`~repro.hasse.graph.HasseGraph`, and all chunks advance through a level
together.  Both passes are exact — the scalar algorithm is level-synchronous
by construction (a node's distance is only ever written by its direct
prefixes, which live one level down), so batching introduces no reordering.

:func:`run_scoreboard_batch` returns the raw state arrays plus per-chunk /
merged :class:`~repro.core.metrics.OpCounts`-compatible tallies and per-chunk
balanced-forest lane loads — all the GEMM engine, the density sweeps and the
accelerator's sampled profile need.  No per-chunk
:class:`~repro.scoreboard.algorithm.ScoreboardResult` is built; the scalar
``run_scoreboard`` is the reference those tallies are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..bitslice.packing import pack_transrow_chunks
from ..errors import ScoreboardError
from ..hasse import balance_lanes
from ..hasse.graph import HasseGraph, hasse_graph
from .algorithm import UNREACHED

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from ..core.metrics import OpCounts

#: Sentinel larger than any reachable distance but safe to add 1 to (int32).
_FAR = UNREACHED

#: Default cap (bytes) on the scoreboard state of one block of chunks.
_BLOCK_BYTES = 64 * 1024 * 1024

#: Weight rows packed per step by :func:`weight_op_counts`.
_ROW_BLOCK = 256


def _counts_matrix(
    values: Union[np.ndarray, Sequence[Sequence[int]]],
    width: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-chunk node occurrence counts plus per-chunk TransRow totals.

    ``values`` is either a rectangular ``(chunks, rows)`` integer array or a
    ragged sequence of per-chunk bags.  Returns ``(counts, totals)`` with
    ``counts`` of shape ``(chunks, 2**width)``.
    """
    num_nodes = 1 << width
    if isinstance(values, np.ndarray) and values.ndim == 2:
        flat = np.ascontiguousarray(values, dtype=np.int64)
        if flat.size and (flat.min() < 0 or flat.max() >= num_nodes):
            raise ScoreboardError(
                f"TransRow values out of range for width {width}"
            )
        chunks = flat.shape[0]
        totals = np.full(chunks, flat.shape[1], dtype=np.int64)
        if flat.size == 0:
            return np.zeros((chunks, num_nodes), dtype=np.int64), totals
        offsets = np.arange(chunks, dtype=np.int64)[:, None] * num_nodes
        counts = np.bincount(
            (flat + offsets).ravel(), minlength=chunks * num_nodes
        ).reshape(chunks, num_nodes)
        return counts, totals

    bags = [np.asarray(bag, dtype=np.int64).ravel() for bag in values]
    chunks = len(bags)
    counts = np.zeros((chunks, num_nodes), dtype=np.int64)
    totals = np.zeros(chunks, dtype=np.int64)
    for i, bag in enumerate(bags):
        if bag.size and (bag.min() < 0 or bag.max() >= num_nodes):
            raise ScoreboardError(
                f"TransRow values out of range for width {width}"
            )
        totals[i] = bag.size
        if bag.size:
            counts[i] = np.bincount(bag, minlength=num_nodes)
    return counts, totals


@dataclass
class BatchedScoreboard:
    """Array-form scoreboard state of many TransRow bags (one row per chunk).

    Attributes
    ----------
    width, max_distance:
        Scoreboard parameters shared by every chunk.
    counts:
        ``(chunks, 2**width)`` node occurrence counts.
    totals:
        TransRows per chunk (zero rows included).
    distance:
        Forward-pass distances; entries ``>= max_distance`` mean "no valid
        prefix chain" (matches the scalar algorithm's semantics, though the
        numeric value of unreachable entries differs from ``UNREACHED``).
    relay:
        Boolean mask of absent nodes recruited as TR relays by the backward
        pass.
    relay_parent:
        Backward-pass chain parent per node (``-1`` where the backward pass
        assigned none).
    """

    width: int
    max_distance: int
    counts: np.ndarray
    totals: np.ndarray
    distance: np.ndarray
    relay: np.ndarray
    relay_parent: np.ndarray

    # ----------------------------------------------------------------- masks
    @property
    def num_chunks(self) -> int:
        return self.counts.shape[0]

    @property
    def present(self) -> np.ndarray:
        """Distinct non-zero values observed per chunk (node 0 excluded)."""
        mask = self.counts > 0
        if mask.size:
            mask[:, 0] = False
        return mask

    @property
    def executed_present(self) -> np.ndarray:
        """Present nodes with a valid prefix chain (the PR nodes)."""
        return self.present & (self.distance < self.max_distance)

    @property
    def outliers(self) -> np.ndarray:
        """Present nodes whose chain exceeded ``max_distance``."""
        return self.present & (self.distance >= self.max_distance)

    # ---------------------------------------------------------------- tallies
    def op_count_fields(self, graph: Optional[HasseGraph] = None) -> Dict[str, np.ndarray]:
        """Per-chunk tallies matching :class:`~repro.core.metrics.OpCounts`.

        Returns arrays keyed exactly like the ``OpCounts`` constructor fields
        (minus ``width``); summing an array over chunks gives the merged
        figure.  The tallies are provably identical to running the scalar
        scoreboard per chunk and merging, because every field is a function of
        the per-chunk value multiset and the pass outcomes replicated here.
        """
        graph = graph if graph is not None else hasse_graph(self.width)
        popcounts = graph.level_table
        present = self.present
        executed = self.executed_present
        outliers = self.outliers
        nonzero_rows = self.totals - self.counts[:, 0] if self.counts.size else self.totals
        return {
            "total_transrows": self.totals,
            "zero_rows": self.counts[:, 0] if self.counts.size else np.zeros_like(self.totals),
            "pr_ops": executed.sum(axis=1),
            "fr_ops": nonzero_rows - present.sum(axis=1),
            "tr_ops": self.relay.sum(axis=1),
            "outlier_ops": (outliers * popcounts[None, :]).sum(axis=1),
            "set_bits": (self.counts * popcounts[None, :]).sum(axis=1),
        }

    def lane_node_counts(self, num_lanes: int) -> List[List[int]]:
        """Executed nodes on each lane of every chunk's balanced forest.

        Each lane's count of the executed nodes of a chunk's
        ``ScoreboardResult.nodes``, but computed by one
        :func:`~repro.hasse.balance_lanes` pass per chunk over plain lists: no
        result, candidate or forest object is built.
        """
        order = np.asarray(hasse_graph(self.width).hamming_order(include_zero=False))
        executed = (self.executed_present | self.relay)[:, order]
        eff_zero = ((self.counts > 0) & (self.distance < self.max_distance)).tolist()
        counts = self.counts.tolist()
        parents = self.relay_parent.tolist()
        prefixes = _sorted_prefixes(self.width)
        loads: List[List[int]] = []
        for chunk in range(self.num_chunks):
            nodes = order[executed[chunk]].tolist()
            chunk_counts, chunk_parents, chunk_eff = counts[chunk], parents[chunk], eff_zero[chunk]
            _, lanes = balance_lanes(
                nodes,
                [chunk_counts[node] for node in nodes],
                [_forest_candidates(node, chunk_parents, chunk_eff, prefixes) for node in nodes],
                num_lanes,
            )
            per_lane = [0] * num_lanes
            for lane in lanes:
                per_lane[lane] += 1
            loads.append(per_lane)
        return loads

    def total_op_count_fields(self) -> Dict[str, int]:
        """Merged tallies over every chunk, as plain ints."""
        return {key: int(arr.sum()) for key, arr in self.op_count_fields().items()}

    def total_op_counts(self) -> "OpCounts":
        """Merged tallies over every chunk as one ``OpCounts`` record.

        Provably equal to scoreboarding every chunk scalar-wise and merging
        the per-chunk counts.
        """
        from ..core.metrics import OpCounts  # deferred: core imports this module

        return OpCounts(width=self.width, **self.total_op_count_fields())


def run_scoreboard_batch(
    values: Union[np.ndarray, Sequence[Sequence[int]]],
    width: int,
    max_distance: int = 4,
) -> BatchedScoreboard:
    """Run Algorithms 1 and 2 on every chunk at once, entirely in NumPy.

    Parameters
    ----------
    values:
        ``(chunks, rows)`` array of TransRow values, or a ragged sequence of
        per-chunk bags (duplicates and zeros allowed).
    width:
        TransRow width ``T``.
    max_distance:
        Longest prefix chain before a present node becomes an outlier.
    """
    _check_parameters(width, max_distance)
    counts, totals = _counts_matrix(values, width)
    return scoreboard_from_counts(counts, totals, width, max_distance)


def scoreboard_from_counts(
    counts: np.ndarray,
    totals: np.ndarray,
    width: int,
    max_distance: int = 4,
) -> BatchedScoreboard:
    """Batched scoreboard passes over precomputed per-chunk node counts."""
    graph = hasse_graph(width)
    num_nodes = graph.num_nodes
    chunks = counts.shape[0]
    present = counts > 0

    # Forward pass (Alg. 1), level-synchronous: a node's distance is
    # ``1 + min`` over its direct prefixes' *effective* distances, where a
    # prefix propagates distance 0 when it is present (or node 0) and its raw
    # distance when absent — and does not propagate at all once its raw
    # distance reaches ``max_distance``.
    distance = np.full((chunks, num_nodes), _FAR, dtype=np.int32)
    dist_eff = np.full((chunks, num_nodes), _FAR, dtype=np.int32)
    if chunks:
        distance[:, 0] = 0
        dist_eff[:, 0] = 0  # node 0 always propagates distance 0
        for level in range(1, width + 1):
            idx = graph.level_nodes_array(level)
            prefixes = graph.prefix_index_table(level)
            distance[:, idx] = 1 + dist_eff[:, prefixes].min(axis=2)
            if level < width:  # the top node has no suffixes to feed
                raw = distance[:, idx]
                eff = np.where(present[:, idx], 0, raw)
                dist_eff[:, idx] = np.where(raw < max_distance, eff, _FAR)

    # Backward pass (Alg. 2), level-synchronous in descending order: every
    # present-or-relay node at distance 1 < d < max_distance adopts its
    # smallest distance-(d-1) candidate prefix; absent adoptees become relays
    # before their own level is visited.
    relay = np.zeros((chunks, num_nodes), dtype=bool)
    relay_parent = np.full((chunks, num_nodes), -1, dtype=np.int32)
    for level in range(width, 1, -1):
        idx = graph.level_nodes_array(level)
        if not chunks:
            break
        node_distance = distance[:, idx]
        active = (
            (node_distance > 1)
            & (node_distance < max_distance)
            & (present[:, idx] | relay[:, idx])
        )
        if not active.any():
            continue
        prefixes = graph.prefix_index_table(level)
        candidate = np.where(
            dist_eff[:, prefixes] == node_distance[:, :, None] - 1,
            prefixes[None, :, :],
            num_nodes,
        ).min(axis=2)
        chosen = active & (candidate < num_nodes)
        chunk_ids, local_ids = np.nonzero(chosen)
        parents = candidate[chunk_ids, local_ids]
        relay_parent[chunk_ids, idx[local_ids]] = parents
        absent = counts[chunk_ids, parents] == 0
        relay[chunk_ids[absent], parents[absent]] = True

    return BatchedScoreboard(
        width=width,
        max_distance=max_distance,
        counts=counts,
        totals=totals,
        distance=distance,
        relay=relay,
        relay_parent=relay_parent,
    )


def batched_total_op_counts(
    values: Union[np.ndarray, Sequence[Sequence[int]]],
    width: int,
    max_distance: int = 4,
    block_bytes: int = _BLOCK_BYTES,
) -> "OpCounts":
    """Merged ``OpCounts`` over all chunks with bounded scratch memory.

    Unlike :func:`run_scoreboard_batch` — whose state arrays grow as
    ``chunks * 2**width`` and are kept in full for reconstruction — this
    scoreboards the chunks in blocks sized to keep the per-block state under
    ``block_bytes`` and only accumulates the operation tallies.  At ``T = 16``
    (65536 lattice nodes) an LLM-scale GEMM would otherwise need gigabytes of
    scoreboard state; the merged counts are identical either way.
    """
    num_chunks = len(values)
    block = _chunks_per_block(num_chunks, width, block_bytes)
    merged: Optional["OpCounts"] = None
    for start in range(0, num_chunks, block):
        batch = run_scoreboard_batch(
            values[start:start + block], width=width, max_distance=max_distance
        )
        counts = batch.total_op_counts()
        merged = counts if merged is None else merged.merge(counts)
    if merged is None:
        merged = run_scoreboard_batch([], width=width, max_distance=max_distance
                                      ).total_op_counts()
    return merged


def weight_op_counts(
    weight: np.ndarray,
    weight_bits: int,
    width: int,
    max_distance: int = 4,
) -> "OpCounts":
    """Merged ``OpCounts`` of an ``(N, K)`` weight matrix's TransRows.

    Equal to :func:`batched_total_op_counts` of the ``(chunks, N * S)`` bags
    of ``pack_transrow_chunks(weight, weight_bits, width)``, but the whole
    matrix is never packed.  Column chunks go in the blocks that function
    uses by default; within a block, 256 weight rows at a time are
    packed and their node occurrences added to the block's
    ``(chunks, 2**width)`` count matrix, which is then scoreboarded.  Scratch
    memory is bounded by those blocks, not by the layer.
    """
    _check_parameters(width, max_distance)
    n_rows, n_cols = weight.shape
    num_chunks = -(-n_cols // width)
    block = _chunks_per_block(num_chunks, width, _BLOCK_BYTES)
    merged: Optional["OpCounts"] = None
    for start in range(0, num_chunks, block):
        columns = weight[:, start * width:(start + block) * width]
        span = -(-columns.shape[1] // width)
        counts = np.zeros((span, 1 << width), dtype=np.int64)
        totals = np.zeros(span, dtype=np.int64)
        # At least one row block, so an empty weight is still validated.
        for row in range(0, max(n_rows, 1), _ROW_BLOCK):
            packed = pack_transrow_chunks(columns[row:row + _ROW_BLOCK], weight_bits, width)
            row_counts, row_totals = _counts_matrix(packed.reshape(span, -1), width)
            counts += row_counts
            totals += row_totals
        block_counts = scoreboard_from_counts(
            counts, totals, width, max_distance
        ).total_op_counts()
        merged = block_counts if merged is None else merged.merge(block_counts)
    if merged is None:
        merged = run_scoreboard_batch([], width=width, max_distance=max_distance
                                      ).total_op_counts()
    return merged


def _check_parameters(width: int, max_distance: int) -> None:
    if width < 1 or width > 16:
        raise ScoreboardError(f"TransRow width must be in [1, 16], got {width}")
    if max_distance < 1:
        raise ScoreboardError(f"max_distance must be >= 1, got {max_distance}")


def _chunks_per_block(num_chunks: int, width: int, block_bytes: int) -> int:
    """Chunks scoreboarded together so their state stays under ``block_bytes``."""
    per_chunk_bytes = (1 << width) * 32  # counts + distances + relay state
    return max(1, min(num_chunks, block_bytes // per_chunk_bytes))


# ------------------------------------------------------------ lane balance
@lru_cache(maxsize=None)
def _sorted_prefixes(width: int) -> Tuple[Tuple[int, ...], ...]:
    """Every node's direct prefixes, ascending, indexed by node."""
    graph = hasse_graph(width)
    return tuple(tuple(sorted(graph.direct_prefixes(node))) for node in range(graph.num_nodes))


def _forest_candidates(
    node: int,
    parents: Sequence[int],
    eff_zero: Sequence[bool],
    prefixes: Sequence[Tuple[int, ...]],
) -> Tuple[int, ...]:
    """Prefixes an executed ``node`` may adopt in the balanced forest.

    Its backward-pass chain parent if it has one; otherwise every direct
    prefix with effective distance 0 (node 0, or a present node that still
    propagates), which is what a distance-1 node may adopt.
    """
    parent = parents[node]
    if parent >= 0:
        return (parent,)
    return tuple(p for p in prefixes[node] if p == 0 or eff_zero[p])
