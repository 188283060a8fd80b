"""Declared inter-layer dataflow of a compiled model: the :class:`ModelGraph`.

A :class:`~repro.serving.plan.ModelPlan` on its own is a *bag* of compiled
layers; serving a whole model needs the edges between them.  A
:class:`ModelGraph` declares, per pipeline stage, which compiled layer runs
and where its activation comes from — the model input (:data:`INPUT`) or the
output of an earlier stage.  The server walks this graph to route one
model-level request through every stage, and the graph's shape validation
guarantees up front that each stage's output width matches the next stage's
reduction dimension, so a pipelined request can never die on a mid-model
shape mismatch.

The common case is a straight chain (LLaMA block QKV→score→output→FC,
ResNet stacks), built with :meth:`ModelGraph.chain` or by passing
``graph="chain"`` to :func:`~repro.serving.plan.compile_workload`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Sequence, Tuple, Union

from ..errors import ServingError
from ..workloads.gemm import GemmShape

#: Sentinel source meaning "this stage consumes the model-level input
#: activation" (step ``t``'s input in a decode stream).
INPUT = "__input__"


@dataclass(frozen=True)
class StageSpec:
    """One pipeline stage: a compiled layer plus where its activation comes from.

    ``source`` is either :data:`INPUT` (the model-level request activation)
    or the name of an *earlier* stage's layer, whose output this stage
    consumes.
    """

    layer: str
    source: str = INPUT

    @property
    def reads_input(self) -> bool:
        """Whether this stage consumes the model-level input activation."""
        return self.source == INPUT


class ModelGraph:
    """Ordered pipeline stages with declared dataflow between them.

    Construction validates the wiring (first stage reads the input, every
    source names an earlier stage, no layer serves twice); the *shape*
    compatibility of the edges is checked against the compiled layers via
    :meth:`validate_shapes` when the graph is attached to a
    :class:`~repro.serving.plan.ModelPlan`.
    """

    def __init__(self, stages: Sequence[Union[StageSpec, str]]) -> None:
        specs: List[StageSpec] = []
        for index, stage in enumerate(stages):
            if isinstance(stage, str):
                # Bare layer names wire up as a chain: each stage consumes
                # the previous stage's output.
                source = INPUT if index == 0 else specs[index - 1].layer
                stage = StageSpec(layer=stage, source=source)
            specs.append(stage)
        if not specs:
            raise ServingError("a model graph needs at least one stage")
        seen: List[str] = []
        for index, spec in enumerate(specs):
            if spec.layer == INPUT:
                raise ServingError(
                    f"stage {index} cannot use the reserved input sentinel as "
                    f"a layer name"
                )
            if spec.layer in seen:
                raise ServingError(
                    f"layer '{spec.layer}' appears twice in the model graph; "
                    f"each stage must serve a distinct compiled layer"
                )
            if index == 0 and not spec.reads_input:
                raise ServingError(
                    f"the first stage ('{spec.layer}') must read the model "
                    f"input, got source '{spec.source}'"
                )
            if not spec.reads_input and spec.source not in seen:
                raise ServingError(
                    f"stage {index} ('{spec.layer}') sources from "
                    f"'{spec.source}', which is not an earlier stage; "
                    f"earlier stages: {seen or '[none]'}"
                )
            seen.append(spec.layer)
        self._stages: Tuple[StageSpec, ...] = tuple(specs)
        # One tuple per graph: every request of the model shares it.
        self._layers: Tuple[str, ...] = tuple(spec.layer for spec in specs)

    # ---------------------------------------------------------- constructors
    @classmethod
    def chain(cls, layer_names: Iterable[str]) -> "ModelGraph":
        """Straight pipeline: each stage consumes the previous stage's output."""
        return cls(list(layer_names))

    # --------------------------------------------------------------- lookups
    @property
    def stages(self) -> Tuple[StageSpec, ...]:
        """The pipeline stages, in execution order."""
        return self._stages

    @property
    def layers(self) -> Tuple[str, ...]:
        """Stage layer names, in execution order."""
        return self._layers

    def stage(self, index: int) -> StageSpec:
        """Look up one stage by pipeline position."""
        if not 0 <= index < len(self._stages):
            raise ServingError(
                f"stage index must be in [0, {len(self._stages)}), got {index}"
            )
        return self._stages[index]

    def __len__(self) -> int:
        return len(self._stages)

    def __iter__(self) -> Iterator[StageSpec]:
        return iter(self._stages)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ModelGraph) and self._stages == other._stages

    def __repr__(self) -> str:
        return f"ModelGraph({self.describe()!r})"

    def describe(self) -> str:
        """Human-readable dataflow, e.g. ``input -> qkv_proj -> attn_score``."""
        parts = ["input"]
        previous = INPUT
        for spec in self._stages:
            if spec.source == previous:
                parts.append(f"-> {spec.layer}")
            else:
                source = "input" if spec.reads_input else spec.source
                parts.append(f"-({source})-> {spec.layer}")
            previous = spec.layer
        return " ".join(parts)

    # ------------------------------------------------------------ validation
    def validate_shapes(self, shape_of: Callable[[str], GemmShape]) -> None:
        """Check every edge's dimensions against the compiled layer shapes.

        ``shape_of`` maps a layer name to its :class:`GemmShape` (raising for
        unknown layers).  A stage sourcing from an earlier stage needs that
        stage's output rows ``n`` to equal its own reduction dimension ``k``;
        a stage reading the model input needs ``k`` equal to the first
        stage's ``k`` (all input readers see the same activation).
        """
        input_dim = shape_of(self._stages[0].layer).k
        for index, spec in enumerate(self._stages):
            shape = shape_of(spec.layer)
            feed = input_dim if spec.reads_input else shape_of(spec.source).n
            feed_name = "the model input" if spec.reads_input else f"'{spec.source}'"
            if shape.k != feed:
                raise ServingError(
                    f"stage {index} ('{spec.layer}') expects activations of "
                    f"height {shape.k} but {feed_name} produces {feed}; "
                    f"the declared dataflow is dimensionally inconsistent"
                )
