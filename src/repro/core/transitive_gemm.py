"""Functional transitive-sparsity GEMM engine.

This is the algorithmic heart of the paper in executable form: a GEMM that
never multiplies.  The weight matrix is bit-sliced into TransRows, the
scoreboard organises them into prefix-reuse trees, and every TransRow's partial
result is obtained from its prefix's result plus a single extra input row
(or, for outliers, a handful of raw additions).  Because integer addition is
associative, the result is bit-identical to ``weight @ activation`` — the
engine asserts nothing silently and exposes exact operation counts so the
architectural simulator and the design-space exploration share one source of
truth.

Two execution paths produce identical outputs and identical
:class:`~repro.core.metrics.OpCounts`:

* the **scalar oracle** (``fast=False``) walks every chunk's Hasse lattice
  with per-node Python objects — slow, but a direct transcription of the
  paper's algorithms and the reference everything else is tested against;
* the **vectorized fast path** (``fast=True``, the default) packs all column
  chunks at once, scoreboards them in one batched array pass
  (:mod:`repro.scoreboard.batched`), materialises every prefix-reuse partial
  sum level-by-level with fancy-indexed gather-adds across chunks, and folds
  the TransRow results into the output with array reductions.  A small LRU
  cache keyed on the weight matrix ("static scoreboard" serving mode) lets
  repeated inference over new activations skip bit-slicing and scoreboarding
  entirely.

On top of both, :meth:`TransitiveGemmEngine.plan` compiles a weight matrix
**once, offline** into a :class:`GemmPlan`: its scoreboard's exact operation
counts plus an :class:`~repro.core.executor.ExactExecutor`.  Because
transitive reuse only re-associates integer additions, planned execution
(:meth:`TransitiveGemmEngine.multiply_planned`) computes the product through
that executor — exact float64 BLAS — and carries the plan's operation counts; it
is bit-identical to the scalar oracle.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..bitslice.slicer import bit_plane_weights, bit_slice
from ..bitslice.packing import pack_bits_to_uint, pack_transrow_chunks
from ..errors import SimulationError
from ..hasse.graph import hasse_graph
from ..scoreboard.algorithm import ScoreboardResult, run_scoreboard
from ..scoreboard.batched import (
    BatchedScoreboard,
    batched_total_op_counts,
    results_from_batch,
    run_scoreboard_batch,
)
from ..exact import as_exact_int64
from .executor import ExactExecutor
from .metrics import OpCounts, op_counts_from_result

#: Soft cap (bytes) on the fast path's per-block scratch arrays; chunks are
#: processed in blocks sized so the node-result tensor and the per-plane
#: gathers stay within this budget.
_FAST_BLOCK_BUDGET_BYTES = 64 * 1024 * 1024

#: Signed code dtypes, narrowest first (see :func:`narrow_codes`).
_CODE_DTYPES = (np.int8, np.int16, np.int32, np.int64)


def narrow_codes(weight: np.ndarray) -> np.ndarray:
    """``weight`` in the narrowest signed integer dtype holding its values.

    The one place weight codes are narrowed: a plan pins them in this form
    and the static-scoreboard cache fingerprints it, so equal values share a
    cache entry whatever dtype they arrive in.  Returns ``weight`` itself
    when it already has that dtype; non-integer arrays, and values no signed
    64-bit type holds, are returned unchanged for the bit-slicer's range
    check to reject.
    """
    weight = np.asarray(weight)
    if weight.dtype.kind not in "iu":
        return weight
    lo = int(weight.min()) if weight.size else 0
    hi = int(weight.max()) if weight.size else 0
    for dtype in _CODE_DTYPES:
        info = np.iinfo(dtype)
        if info.min <= lo and hi <= info.max:
            return weight.astype(dtype, copy=False)
    return weight


@dataclass
class TransitiveGemmReport:
    """Result and statistics of one transitive GEMM execution."""

    output: np.ndarray
    op_counts: OpCounts
    chunk_results: List[ScoreboardResult] = field(default_factory=list)

    @property
    def density(self) -> float:
        """Overall density (fraction of bit-serial dense adds executed)."""
        return self.op_counts.density


@dataclass(frozen=True)
class ScoreboardCacheInfo:
    """Hit/miss statistics of the engine's static-scoreboard cache."""

    hits: int
    misses: int
    entries: int
    max_entries: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass(frozen=True, eq=False)
class GemmPlan:
    """Precompiled scoreboard state of one weight matrix.

    This is the offline half of the paper's *static scoreboard* serving mode
    made explicit: the weights are bit-sliced, packed and scoreboarded exactly
    once, and the merged :class:`~repro.core.metrics.OpCounts` are pinned in
    this handle next to ``kernel``, the layer's
    :class:`~repro.core.executor.ExactExecutor`.  Online execution against
    the plan (:meth:`TransitiveGemmEngine.multiply_planned`) skips weight
    fingerprinting, bit-slicing and scoreboarding entirely, which is what a
    serving runtime needs on its per-request hot path.
    """

    #: The compiled weight codes, read-only, in the narrowest signed integer
    #: dtype holding them (:func:`narrow_codes`: int8 for INT4/INT8 layers).
    #: ``kernel`` keeps the only other copy, in float64.  Widen the codes
    #: before multiplying them yourself: ``int8 @ int8`` wraps in numpy.
    weight: np.ndarray
    weight_bits: int
    transrow_bits: int
    max_distance: int
    op_counts: OpCounts
    kernel: ExactExecutor

    @property
    def n(self) -> int:
        """Output rows (weight rows)."""
        return int(self.weight.shape[0])

    @property
    def k(self) -> int:
        """Reduction dimension (weight columns / activation rows)."""
        return int(self.weight.shape[1])


class _StaticScoreboardCache:
    """LRU cache of (packed TransRows, merged OpCounts) per weight matrix.

    The key fingerprints the bytes of the narrowed weight codes
    (:func:`narrow_codes`) plus every parameter that affects scoreboarding,
    so a hit is guaranteed to reproduce the exact chunk values and operation
    counts of a fresh run.  This is the serving scenario of the
    paper's *static* scoreboard: weights are fixed, activations stream by.
    """

    def __init__(self, max_entries: int) -> None:
        self.max_entries = max_entries
        self._entries: "OrderedDict[tuple, tuple]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        # The serving runtime shares one engine across worker threads; the
        # lock keeps lookup/insert/evict transitions atomic.
        self._lock = threading.Lock()

    @staticmethod
    def key(weight: np.ndarray, weight_bits: int, width: int, max_distance: int) -> tuple:
        digest = hashlib.blake2b(
            np.ascontiguousarray(weight).tobytes(), digest_size=16
        ).hexdigest()
        return (digest, weight.shape, weight.dtype.str, weight_bits, width, max_distance)

    def get(self, key: tuple):
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: tuple, entry: tuple) -> None:
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def info(self) -> ScoreboardCacheInfo:
        with self._lock:
            return ScoreboardCacheInfo(
                hits=self.hits,
                misses=self.misses,
                entries=len(self._entries),
                max_entries=self.max_entries,
            )


class TransitiveGemmEngine:
    """Multiplication-free GEMM through transitive result reuse.

    Parameters
    ----------
    transrow_bits:
        TransRow width ``T`` (the paper's final design uses 8).
    max_distance:
        Longest prefix chain before a TransRow is treated as an outlier.
    num_lanes:
        Lanes of the balanced forest; defaults to ``transrow_bits``.
    fast:
        Use the vectorized batched execution path (default).  ``False`` runs
        the scalar per-chunk reference implementation; both produce identical
        outputs and operation counts.
    scoreboard_cache_entries:
        Capacity of the static-scoreboard LRU cache used by the fast path.
        ``0`` disables caching (every call re-scoreboards the weights).
    """

    def __init__(
        self,
        transrow_bits: int = 8,
        max_distance: int = 4,
        num_lanes: Optional[int] = None,
        fast: bool = True,
        scoreboard_cache_entries: int = 4,
    ) -> None:
        if transrow_bits < 1 or transrow_bits > 16:
            raise SimulationError(
                f"transrow_bits must be in [1, 16], got {transrow_bits}"
            )
        if scoreboard_cache_entries < 0:
            raise SimulationError(
                f"scoreboard_cache_entries must be >= 0, got {scoreboard_cache_entries}"
            )
        self.transrow_bits = transrow_bits
        self.max_distance = max_distance
        self.num_lanes = num_lanes if num_lanes is not None else transrow_bits
        self.fast = fast
        self._cache = _StaticScoreboardCache(scoreboard_cache_entries)

    # ------------------------------------------------------------------ API
    def multiply(
        self,
        weight: np.ndarray,
        activation: np.ndarray,
        weight_bits: int,
        collect_chunks: bool = False,
    ) -> TransitiveGemmReport:
        """Compute ``weight @ activation`` through transitive sparsity.

        Parameters
        ----------
        weight:
            Signed integer matrix of shape ``(N, K)`` fitting in ``weight_bits``.
        activation:
            Integer matrix of shape ``(K, M)``.
        weight_bits:
            Two's-complement precision ``S`` of the weights.
        collect_chunks:
            Keep the per-column-chunk scoreboard results (useful for tests and
            the design-space analysis, costly for large GEMMs).
        """
        weight = narrow_codes(weight)
        activation = as_exact_int64(activation)
        if weight.ndim != 2 or activation.ndim != 2:
            raise SimulationError("weight and activation must both be 2-D matrices")
        if weight.shape[1] != activation.shape[0]:
            raise SimulationError(
                f"shape mismatch: weight {weight.shape} x activation {activation.shape}"
            )
        if self.fast:
            return self._multiply_fast(weight, activation, weight_bits, collect_chunks)
        return self._multiply_scalar(weight, activation, weight_bits, collect_chunks)

    def scoreboard_cache_info(self) -> ScoreboardCacheInfo:
        """Hit/miss statistics of the static-scoreboard cache."""
        return self._cache.info()

    # ---------------------------------------------------------- plan serving
    def plan(self, weight: np.ndarray, weight_bits: int) -> GemmPlan:
        """Precompute the static scoreboard of one weight matrix, offline.

        Bit-slices, packs and scoreboards the weights exactly once and returns
        a :class:`GemmPlan` handle carrying the weights as narrow read-only
        codes (:func:`narrow_codes`), the exact operation counts and the
        layer's :class:`~repro.core.executor.ExactExecutor`.  Executions
        against the handle (:meth:`multiply_planned`) skip the per-call
        weight fingerprint and all weight-side work; the LRU cache is warmed
        as a side effect so plain :meth:`multiply` calls with the same
        weights also hit.
        """
        weight = np.asarray(weight)
        codes = narrow_codes(weight)
        # Pin the compiled codes: a caller-side mutation after plan() must
        # not desynchronise plan.weight from its counts and executor.
        if np.may_share_memory(codes, weight):
            codes = codes.copy()
        codes.setflags(write=False)
        if codes.ndim != 2:
            raise SimulationError("weight must be a 2-D matrix")
        if codes.shape[1] == 0 or codes.shape[0] == 0:
            raise SimulationError("cannot plan a weight matrix with a zero dimension")
        _, counts, _ = self._packed_transrows_cached(codes, weight_bits)
        return GemmPlan(
            weight=codes,
            weight_bits=weight_bits,
            transrow_bits=self.transrow_bits,
            max_distance=self.max_distance,
            op_counts=counts,
            kernel=ExactExecutor(codes),
        )

    def multiply_planned(
        self, plan: GemmPlan, activation: np.ndarray
    ) -> TransitiveGemmReport:
        """Compute ``plan.weight @ activation`` from the precompiled plan.

        The per-request hot path of the serving runtime: no hashing, no
        bit-slicing, no scoreboarding — one call into the plan's executor.
        Bit-identical to :meth:`multiply` on the same operands, with the
        plan's operation counts.
        """
        self._check_plan(plan)
        activation = as_exact_int64(activation)
        if activation.ndim != 2:
            raise SimulationError("activation must be a 2-D matrix")
        if activation.shape[0] != plan.k:
            raise SimulationError(
                f"shape mismatch: plan weight {plan.weight.shape} x "
                f"activation {activation.shape}"
            )
        output = plan.kernel.execute(activation)
        return TransitiveGemmReport(output=output, op_counts=plan.op_counts)

    def _check_plan(self, plan: GemmPlan) -> None:
        if (
            plan.transrow_bits != self.transrow_bits
            or plan.max_distance != self.max_distance
        ):
            raise SimulationError(
                f"plan was compiled for T={plan.transrow_bits}, "
                f"max_distance={plan.max_distance}; this engine runs "
                f"T={self.transrow_bits}, max_distance={self.max_distance}"
            )

    # ------------------------------------------------------------ fast path
    def _multiply_fast(
        self,
        weight: np.ndarray,
        activation: np.ndarray,
        weight_bits: int,
        collect_chunks: bool,
    ) -> TransitiveGemmReport:
        """Batched array execution: one scoreboard pass for all chunks."""
        n_rows = weight.shape[0]
        n_cols = weight.shape[1]
        n_out_cols = activation.shape[1]
        width = self.transrow_bits
        num_chunks = (n_cols + width - 1) // width
        if num_chunks == 0:
            # Degenerate GEMM: validate the operands exactly like the scalar
            # path would, then return the empty report.
            bit_slice(weight, weight_bits)
            return TransitiveGemmReport(
                output=np.zeros((n_rows, n_out_cols), dtype=np.int64),
                op_counts=self._empty_op_counts(),
            )

        packed, counts, batch = self._packed_transrows_cached(
            weight, weight_bits, want_batch=collect_chunks
        )

        chunk_results: List[ScoreboardResult] = []
        if collect_chunks:
            chunk_results = results_from_batch(batch, num_lanes=self.num_lanes)

        act_full = np.zeros((num_chunks * width, n_out_cols), dtype=np.int64)
        act_full[:n_cols] = activation
        act = act_full.reshape(num_chunks, width, n_out_cols)
        output = self._batched_node_results_and_accumulate(
            packed, act, bit_plane_weights(weight_bits), n_rows, n_out_cols
        )
        return TransitiveGemmReport(
            output=output, op_counts=counts, chunk_results=chunk_results
        )

    def _packed_transrows_cached(
        self, weight: np.ndarray, weight_bits: int, want_batch: bool = False
    ) -> Tuple[np.ndarray, OpCounts, Optional[BatchedScoreboard]]:
        """Packed ``(chunks, N, S)`` TransRow values and merged OpCounts.

        Both depend only on the weight matrix, so they are served from the
        static-scoreboard LRU cache whenever the same weights (same bytes,
        same parameters) are multiplied again — the serving fast path.  With
        ``want_batch`` the full batched scoreboard state is returned as well
        (rebuilt from the cached packed values on a hit), so callers needing
        per-chunk results never scoreboard twice.
        """
        use_cache = self._cache.max_entries > 0
        key: Optional[tuple] = None
        packed: Optional[np.ndarray] = None
        counts: Optional[OpCounts] = None
        if use_cache:
            key = self._cache.key(
                weight, weight_bits, self.transrow_bits, self.max_distance
            )
            entry = self._cache.get(key)
            if entry is not None:
                if not want_batch:
                    return entry + (None,)
                packed, counts = entry
        if packed is None:
            packed = pack_transrow_chunks(weight, weight_bits, self.transrow_bits)
        bags = packed.reshape(packed.shape[0], -1).astype(np.int64)
        batch: Optional[BatchedScoreboard] = None
        if want_batch:
            batch = run_scoreboard_batch(
                bags, width=self.transrow_bits, max_distance=self.max_distance
            )
            if counts is None:
                counts = batch.total_op_counts()
        elif counts is None:
            # Counts-only pass: scoreboard in bounded blocks so wide lattices
            # (T = 16 -> 65536 nodes) never materialise per-chunk state for
            # the whole GEMM at once.
            counts = batched_total_op_counts(
                bags, width=self.transrow_bits, max_distance=self.max_distance
            )
        if use_cache and key is not None:
            self._cache.put(key, (packed, counts))
        return packed, counts, batch

    def _batched_node_results_and_accumulate(
        self,
        packed: np.ndarray,
        act: np.ndarray,
        plane_weights: np.ndarray,
        n_rows: int,
        n_out: int,
    ) -> np.ndarray:
        """PPE + APE stages as array passes, blocked over chunks.

        For each block of chunks the partial sum of **every** lattice node is
        materialised level-by-level: a node's result is one gather of its
        clear-lowest-bit parent's result plus one broadcast add of the input
        row that bit addresses — the prefix-reuse recurrence, batched across
        chunks.  The APE stage then gathers each TransRow's node result and
        reduces the shifted contributions into the output rows.
        """
        width = self.transrow_bits
        graph = hasse_graph(width)
        num_nodes = graph.num_nodes
        num_chunks = packed.shape[0]
        bits = packed.shape[2]
        parent, bit_position = graph.reuse_parent_table()
        # Packed values place the first input row at the most-significant bit,
        # so bit position b (LSB = 0) addresses input row T - 1 - b.
        input_row = width - 1 - bit_position

        output = np.zeros((n_rows, n_out), dtype=np.int64)
        bytes_per_chunk = (num_nodes + max(n_rows, 1)) * max(n_out, 1) * 8
        block = max(1, min(num_chunks, _FAST_BLOCK_BUDGET_BYTES // bytes_per_chunk))
        for start in range(0, num_chunks, block):
            stop = min(start + block, num_chunks)
            span = stop - start
            act_block = act[start:stop]
            results = np.zeros((span, num_nodes, n_out), dtype=np.int64)
            for level in range(1, width + 1):
                idx = graph.level_nodes_array(level)
                results[:, idx] = (
                    results[:, parent[idx]] + act_block[:, input_row[idx]]
                )
            vals = packed[start:stop]
            block_index = np.arange(span)[:, None]
            for s in range(bits):
                gathered = results[block_index, vals[:, :, s]]
                output += int(plane_weights[s]) * gathered.sum(axis=0)
        return output

    def _empty_op_counts(self) -> OpCounts:
        return OpCounts(
            width=self.transrow_bits, total_transrows=0, zero_rows=0, pr_ops=0,
            fr_ops=0, tr_ops=0, outlier_ops=0, set_bits=0,
        )

    # ---------------------------------------------------------- scalar path
    def _multiply_scalar(
        self,
        weight: np.ndarray,
        activation: np.ndarray,
        weight_bits: int,
        collect_chunks: bool,
    ) -> TransitiveGemmReport:
        """Reference oracle: per-chunk scalar scoreboard and accumulation."""
        n_rows, n_cols = weight.shape
        n_out_cols = activation.shape[1]
        width = self.transrow_bits
        planes = bit_slice(weight, weight_bits)
        plane_weights = bit_plane_weights(weight_bits)

        output = np.zeros((n_rows, n_out_cols), dtype=np.int64)
        total_counts: Optional[OpCounts] = None
        chunk_results: List[ScoreboardResult] = []

        num_chunks = (n_cols + width - 1) // width
        for chunk in range(num_chunks):
            start = chunk * width
            stop = min(start + width, n_cols)
            act_chunk = np.zeros((width, n_out_cols), dtype=np.int64)
            act_chunk[: stop - start] = activation[start:stop]

            values, sources = self._chunk_transrows(planes.planes, start, stop)
            result = run_scoreboard(
                values,
                width=width,
                max_distance=self.max_distance,
                num_lanes=self.num_lanes,
            )
            node_results = self._compute_node_results(result, act_chunk)
            self._accumulate(output, values, sources, plane_weights, node_results)

            counts = op_counts_from_result(result)
            total_counts = counts if total_counts is None else total_counts.merge(counts)
            if collect_chunks:
                chunk_results.append(result)

        if total_counts is None:
            total_counts = self._empty_op_counts()
        return TransitiveGemmReport(
            output=output, op_counts=total_counts, chunk_results=chunk_results
        )

    def _chunk_transrows(
        self, planes: np.ndarray, start: int, stop: int
    ) -> Tuple[List[int], List[Tuple[int, int]]]:
        """Packed TransRow values and their (weight row, bit plane) sources."""
        width = self.transrow_bits
        bits, n_rows, _ = planes.shape
        chunk_planes = np.zeros((bits, n_rows, width), dtype=np.uint8)
        chunk_planes[:, :, : stop - start] = planes[:, :, start:stop]
        packed = pack_bits_to_uint(chunk_planes.reshape(bits * n_rows, width))
        packed = packed.reshape(bits, n_rows)

        values: List[int] = []
        sources: List[Tuple[int, int]] = []
        for row in range(n_rows):
            for plane in range(bits):
                values.append(int(packed[plane, row]))
                sources.append((row, plane))
        return values, sources

    def _compute_node_results(
        self, result: ScoreboardResult, act_chunk: np.ndarray
    ) -> Dict[int, np.ndarray]:
        """Materialise the partial sum of every executed node via prefix reuse."""
        graph = hasse_graph(result.width)
        n_out = act_chunk.shape[1]
        node_results: Dict[int, np.ndarray] = {0: np.zeros(n_out, dtype=np.int64)}

        ordered = sorted(
            result.nodes.values(), key=lambda node: (graph.level(node.index), node.index)
        )
        for node in ordered:
            prefix_result = node_results.get(node.prefix)
            if prefix_result is None:
                raise SimulationError(
                    f"prefix {node.prefix} of node {node.index} was not computed first"
                )
            difference = node.index ^ node.prefix
            if bin(difference).count("1") != 1:
                raise SimulationError(
                    f"forest edge {node.prefix} -> {node.index} is not a single bit flip"
                )
            input_row = self._input_row_for_bit(act_chunk, difference)
            node_results[node.index] = prefix_result + input_row

        for outlier in result.outliers:
            total = np.zeros(n_out, dtype=np.int64)
            for bit_position in range(result.width):
                mask = 1 << bit_position
                if outlier.index & mask:
                    total = total + self._input_row_for_bit(act_chunk, mask)
            node_results[outlier.index] = total
        return node_results

    def _input_row_for_bit(self, act_chunk: np.ndarray, mask: int) -> np.ndarray:
        """Input row addressed by a single-bit TranSparsity mask.

        Packed values place the first input row at the most-significant bit, so
        bit position ``b`` (LSB = 0) addresses input row ``T - 1 - b``.
        """
        bit_position = mask.bit_length() - 1
        return act_chunk[self.transrow_bits - 1 - bit_position]

    def _accumulate(
        self,
        output: np.ndarray,
        values: List[int],
        sources: List[Tuple[int, int]],
        plane_weights: np.ndarray,
        node_results: Dict[int, np.ndarray],
    ) -> None:
        """APE stage: shift-and-accumulate every TransRow result into its row."""
        for value, (row, plane) in zip(values, sources):
            if value == 0:
                continue
            result = node_results.get(value)
            if result is None:
                raise SimulationError(f"TransRow value {value} was never computed")
            output[row] += int(plane_weights[plane]) * result


def transitive_gemm(
    weight: np.ndarray,
    activation: np.ndarray,
    weight_bits: int,
    transrow_bits: int = 8,
    max_distance: int = 4,
    fast: bool = True,
) -> np.ndarray:
    """Convenience wrapper returning only the GEMM result.

    Equivalent to ``weight @ activation`` for any integer inputs; the
    computation path goes through bit-slicing, scoreboarding and prefix reuse
    (vectorized by default; ``fast=False`` selects the scalar oracle).
    """
    engine = TransitiveGemmEngine(
        transrow_bits=transrow_bits, max_distance=max_distance, fast=fast
    )
    return engine.multiply(weight, activation, weight_bits).output
