"""Offline model compilation: workload → :class:`ModelPlan`.

The paper's *static scoreboard* exists precisely for serving: the weights are
fixed, so the SI can be computed once offline and reused for every activation
that streams by.  :func:`compile_workload` makes that mode concrete for whole
models — every layer of a :class:`~repro.workloads.gemm.GemmWorkload` gets its
weights materialised, bit-sliced and scoreboarded exactly once through
:meth:`~repro.core.TransitiveGemmEngine.plan`, and the resulting
:class:`ModelPlan` is the immutable artifact the online server executes
requests against.  A plan keeps only what serving reads: per layer the narrow
weight codes, the executor's float64 copy, the ``OpCounts`` and the optional
cycle profile.  Compilation samples and counts in blocks of 256 weight rows,
so no int64 draw and no packed TransRows of a layer's size are built on the
way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.metrics import OpCounts
from ..core.transitive_gemm import GemmPlan, TransitiveGemmEngine, narrow_codes
from ..errors import ServingError
from ..quant.schemes import SCHEME_REGISTRY
from ..transarray.accelerator import GemmProfile, TransitiveArrayAccelerator
from ..workloads.gemm import GemmShape, GemmWorkload
from ..workloads.synthetic import outlier_weight_matrix
from .graph import ModelGraph

#: Weight provider signature: given a layer's GEMM shape, return its (N, K)
#: integer weights (same contract as the accelerator's provider).
WeightProvider = Callable[[GemmShape], np.ndarray]


@dataclass(frozen=True)
class CompileStats:
    """Offline-compilation statistics of one :class:`ModelPlan`.

    Aggregated over every compiled layer at :func:`compile_workload` time and
    carried on the plan; the serving report embeds them so an operator can see
    what the offline phase cost and which executor serves the model.
    """

    #: Compiled layer count.
    num_layers: int
    #: Total wall-clock seconds of offline compilation (scoreboard + executor).
    compile_s: float
    #: Seconds of ``compile_s`` spent building the layers' executors.
    lowering_s: float
    #: Bytes of executor state pinned across all layers.
    kernel_bytes: int
    #: Sorted distinct executor backend names serving the model's layers.
    kernel_backends: Tuple[str, ...]
    #: Per-layer compile seconds, in compilation order.
    per_layer_compile_s: Dict[str, float]
    #: Per-layer effective weight bit widths, in compilation order.  With a
    #: ``quant_schemes`` mapping this reflects the scheme's emitted codes
    #: (widened when a scheme such as OliVe emits outlier codes past the
    #: nominal range); plain layers report their shape's ``weight_bits``.
    per_layer_bits: Dict[str, int] = field(default_factory=dict)
    #: Quant scheme name per layer compiled through ``quant_schemes``
    #: (absent layers kept their workload-native synthetic weights).
    per_layer_scheme: Dict[str, str] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (embedded in serving reports/benches)."""
        return {
            "num_layers": self.num_layers,
            "compile_s": self.compile_s,
            "lowering_s": self.lowering_s,
            "kernel_bytes": self.kernel_bytes,
            "kernel_backends": list(self.kernel_backends),
            "per_layer_compile_s": dict(self.per_layer_compile_s),
            "per_layer_bits": dict(self.per_layer_bits),
            "per_layer_scheme": dict(self.per_layer_scheme),
        }


@dataclass(frozen=True)
class LayerPlan:
    """One compiled layer: shape, engine plan and optional cycle profile."""

    shape: GemmShape
    gemm_plan: GemmPlan
    profile: Optional[GemmProfile] = None

    @property
    def name(self) -> str:
        """Layer name (unique within the model plan)."""
        return self.shape.name

    @property
    def weight(self) -> np.ndarray:
        """The compiled weight codes, pinned read-only by the engine plan.

        Narrow (int8 for INT4/INT8 layers, see
        :func:`~repro.core.transitive_gemm.narrow_codes`): widen them before
        a reference product with a narrow activation, e.g.
        ``layer.weight.astype(np.int64) @ activation`` — ``int8 @ int8``
        wraps in numpy.
        """
        return self.gemm_plan.weight

    @property
    def op_counts(self) -> OpCounts:
        """Scoreboard operation counts of one pass over the layer weights."""
        return self.gemm_plan.op_counts


class ModelPlan:
    """A compiled model: per-layer static scoreboards, ready to serve.

    Produced by :func:`compile_workload` and immutable afterwards, so any
    number of servers (and direct :meth:`run` callers) can share one plan;
    serving-run statistics are tracked by the
    :class:`~repro.serving.server.Server` that executes against it.
    """

    def __init__(
        self,
        workload: GemmWorkload,
        layers: Sequence[LayerPlan],
        *,
        accelerator: Optional[TransitiveArrayAccelerator] = None,
        compile_stats: Optional[CompileStats] = None,
        graph: Optional[ModelGraph] = None,
    ) -> None:
        self.workload = workload
        self.accelerator = accelerator
        self.compile_stats = compile_stats
        self._layers: Dict[str, LayerPlan] = {}
        for layer in layers:
            if layer.name in self._layers:
                raise ServingError(
                    f"duplicate layer name '{layer.name}' in workload "
                    f"'{workload.name}'; serving requires unique layer names"
                )
            self._layers[layer.name] = layer
        #: Each layer's executor call, for :meth:`run`.
        self._execute = {name: layer.gemm_plan.kernel.execute
                         for name, layer in self._layers.items()}
        if graph is not None:
            missing = [name for name in graph.layers if name not in self._layers]
            if missing:
                raise ServingError(
                    f"model graph references layer(s) {missing} not compiled "
                    f"into plan '{workload.name}'; available: {list(self._layers)}"
                )
            graph.validate_shapes(lambda name: self._layers[name].shape)
        self.graph = graph

    # ------------------------------------------------------------- lookups
    @property
    def name(self) -> str:
        """Name of the compiled workload."""
        return self.workload.name

    def layer_names(self) -> List[str]:
        """Compiled layer names in compilation order."""
        return list(self._layers)

    def layer(self, name: str) -> LayerPlan:
        """Look up one compiled layer by name."""
        try:
            return self._layers[name]
        except KeyError as exc:
            raise self._unknown(name) from exc

    def _unknown(self, name: str) -> ServingError:
        return ServingError(
            f"model plan '{self.name}' has no layer '{name}'; "
            f"available: {list(self._layers)}"
        )

    def __contains__(self, name: str) -> bool:
        return name in self._layers

    def __len__(self) -> int:
        return len(self._layers)

    # ----------------------------------------------------------- graph views
    def _require_graph(self) -> ModelGraph:
        if self.graph is None:
            raise ServingError(
                f"model plan '{self.name}' was compiled without a model graph; "
                f"pass graph='chain' (or an explicit ModelGraph) to "
                f"compile_workload() to serve it as a whole model"
            )
        return self.graph

    @property
    def input_dim(self) -> int:
        """Activation height the model-level input must have (graph required)."""
        graph = self._require_graph()
        return self._layers[graph.layers[0]].shape.k

    @property
    def output_dim(self) -> int:
        """Row count of the final stage's output (graph required)."""
        graph = self._require_graph()
        return self._layers[graph.layers[-1]].shape.n

    @property
    def streamable(self) -> bool:
        """Whether decode streams can feed the output back as the next input."""
        if self.graph is None:
            return False
        return self.output_dim == self.input_dim

    @property
    def op_counts(self) -> OpCounts:
        """Merged scoreboard counts of one pass over every compiled layer."""
        merged: Optional[OpCounts] = None
        for layer in self._layers.values():
            counts = layer.op_counts
            merged = counts if merged is None else merged.merge(counts)
        assert merged is not None  # a ModelPlan always has >= 1 layer
        return merged

    # ----------------------------------------------------------- execution
    def run(self, layer_name: str, activation: np.ndarray) -> np.ndarray:
        """Execute one activation against a compiled layer.

        Bit-identical to ``layer.weight @ activation``; the per-call work is
        one call of the layer's
        :meth:`~repro.core.executor.ExactExecutor.execute`, which refuses a
        wrong shape or value — the static scoreboard was paid at compile time.
        """
        try:
            execute = self._execute[layer_name]
        except KeyError as exc:
            raise self._unknown(layer_name) from exc
        return execute(activation)

    def run_model(self, activation: np.ndarray) -> np.ndarray:
        """Run one activation through every graph stage, sequentially.

        The sequential reference execution: stage outputs are produced one
        at a time on the calling thread, each by :meth:`run`.  The server is
        bit-identical to this by construction — a worker claim makes the
        same per-stage :meth:`run` calls over the concatenated columns of
        several requests.
        """
        for layer in self._require_graph():
            activation = self.run(layer, activation)
        return activation


def _bits_needed(values: np.ndarray) -> int:
    """Smallest signed two's-complement width holding every value."""
    lo = int(values.min()) if values.size else 0
    hi = int(values.max()) if values.size else 0
    bits = 2
    while not (-(1 << (bits - 1)) <= lo and hi <= (1 << (bits - 1)) - 1):
        bits += 1
    return bits


def compile_workload(
    workload: GemmWorkload,
    *,
    engine: Optional[TransitiveGemmEngine] = None,
    weight_provider: Optional[WeightProvider] = None,
    layer_names: Optional[Sequence[str]] = None,
    accelerator: Optional[TransitiveArrayAccelerator] = None,
    seed: int = 2025,
    graph: Union[ModelGraph, str, None] = None,
    quant_schemes: Optional[Mapping[str, str]] = None,
) -> ModelPlan:
    """Compile a workload into a servable :class:`ModelPlan`, offline.

    Parameters (all keyword-only past ``workload``)
    ----------
    workload:
        Any :class:`~repro.workloads.gemm.GemmWorkload` (LLaMA FC block,
        attention layer, ResNet-18, synthetic) — compilation walks its
        :meth:`~repro.workloads.gemm.GemmWorkload.layers`.
    engine:
        Functional engine to compile with, which sets the TransRow width and
        maximum prefix distance; a default ``TransitiveGemmEngine()`` (T = 8)
        otherwise.  The plan does not keep it.
    weight_provider:
        Optional callable returning real ``(N, K)`` weights per layer;
        synthetic quantized weights are sampled otherwise (seeded, so a plan
        is reproducible).  With ``quant_schemes`` it may return *float*
        weights for the scheme-quantized layers (quantization produces the
        integer codes that are actually compiled).
    layer_names:
        Optional subset of layers to compile (e.g. just ``["q_proj"]`` of a
        Transformer block); the full workload is compiled by default.
    accelerator:
        Optional :class:`~repro.transarray.TransitiveArrayAccelerator`; when
        given, every compiled layer's weight codes are also profiled through
        the cycle/energy model, in compile order, so the server can price
        the columns each layer serves.
    seed:
        RNG seed for synthetic weight sampling.
    graph:
        The layer chain for whole-model serving: a
        :class:`~repro.serving.graph.ModelGraph` of compiled layer names, or
        the string ``"chain"`` to pipe every compiled layer in order (each
        stage consumes the previous stage's output).  Without a graph the
        plan serves single-layer requests only.
    quant_schemes:
        Per-layer mixed precision: maps layer names to quant scheme names
        from :data:`repro.quant.schemes.SCHEME_REGISTRY` (e.g.
        ``{"gate_proj": "transarray-int4", "down_proj": "olive-8"}``).
        Mapped layers get outlier-heavy float weights (provider or
        synthetic) quantized through their scheme; the integer codes are
        compiled at the *effective* width actually needed and
        :class:`CompileStats` records per-layer bits and scheme names.
    """
    shapes = list(workload.layers())
    if layer_names is not None:
        wanted = list(layer_names)
        if not wanted:
            raise ServingError("layer_names must name at least one layer")
        by_name = {shape.name: shape for shape in shapes}
        missing = [name for name in wanted if name not in by_name]
        if missing:
            raise ServingError(
                f"workload '{workload.name}' has no layer(s) {missing}; "
                f"available: {list(by_name)}"
            )
        shapes = [by_name[name] for name in wanted]
    if engine is None:
        engine = TransitiveGemmEngine()
    schemes = dict(quant_schemes) if quant_schemes else {}
    known = {shape.name for shape in shapes}
    unknown_layers = sorted(name for name in schemes if name not in known)
    if unknown_layers:
        raise ServingError(
            f"quant_schemes names layer(s) {unknown_layers} not in workload "
            f"'{workload.name}'; available: {sorted(known)}"
        )
    unknown_schemes = sorted(
        name for name in schemes.values() if name not in SCHEME_REGISTRY
    )
    if unknown_schemes:
        raise ServingError(
            f"unknown quant scheme(s) {unknown_schemes}; "
            f"available: {sorted(SCHEME_REGISTRY)}"
        )
    rng = np.random.default_rng(seed)
    layers: List[LayerPlan] = []
    per_layer_compile_s: Dict[str, float] = {}
    per_layer_bits: Dict[str, int] = {}
    per_layer_scheme: Dict[str, str] = {}
    compile_start = time.perf_counter()
    for shape in shapes:
        # Every weight is narrowed (narrow_codes) as soon as it exists, so
        # no int64 copy of a layer outlives this iteration.
        scheme_name = schemes.get(shape.name)
        if scheme_name is not None:
            # Mixed precision: quantize a float weight tensor through the
            # requested scheme and compile its integer codes.  Outlier-aware
            # schemes (OliVe, ANT) may emit codes wider than the nominal
            # width, so the compiled width is whatever the codes need.
            if weight_provider is not None:
                source = np.asarray(weight_provider(shape), dtype=np.float64)
                if source.shape != (shape.n, shape.k):
                    raise ServingError(
                        f"weight provider returned shape {source.shape} for "
                        f"layer '{shape.name}', expected {(shape.n, shape.k)}"
                    )
            else:
                source = outlier_weight_matrix(
                    shape.n, shape.k, seed=int(rng.integers(0, 2**31))
                )
            quantized = SCHEME_REGISTRY[scheme_name](source)
            weight = narrow_codes(np.asarray(quantized.values, dtype=np.int64))
            effective_bits = max(quantized.bits, _bits_needed(weight))
            shape = shape.with_precision(effective_bits)
            per_layer_scheme[shape.name] = scheme_name
        else:
            if weight_provider is not None:
                weight = narrow_codes(weight_provider(shape))
                if weight.shape != (shape.n, shape.k):
                    raise ServingError(
                        f"weight provider returned shape {weight.shape} for "
                        f"layer '{shape.name}', expected {(shape.n, shape.k)}"
                    )
            else:
                weight = narrow_codes(workload.sample_weight(shape, rng))
        per_layer_bits[shape.name] = shape.weight_bits
        layer_start = time.perf_counter()
        gemm_plan = engine.plan(weight, shape.weight_bits)
        per_layer_compile_s[shape.name] = time.perf_counter() - layer_start
        profile = (
            accelerator.simulate_gemm(shape, weight=weight)
            if accelerator is not None else None
        )
        layers.append(
            LayerPlan(shape=shape, gemm_plan=gemm_plan, profile=profile)
        )
    kernels = [layer.gemm_plan.kernel for layer in layers]
    stats = CompileStats(
        num_layers=len(layers),
        compile_s=time.perf_counter() - compile_start,
        lowering_s=sum(k.build_s for k in kernels),
        kernel_bytes=sum(k.kernel_bytes for k in kernels),
        kernel_backends=tuple(sorted({k.backend for k in kernels})),
        per_layer_compile_s=per_layer_compile_s,
        per_layer_bits=per_layer_bits,
        per_layer_scheme=per_layer_scheme,
    )
    if isinstance(graph, str):
        if graph != "chain":
            raise ServingError(
                f"graph must be a ModelGraph, 'chain' or None, got {graph!r}"
            )
        graph = ModelGraph.chain(layer.name for layer in layers)
    return ModelPlan(
        workload=workload,
        layers=layers,
        accelerator=accelerator,
        compile_stats=stats,
        graph=graph,
    )
