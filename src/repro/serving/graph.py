"""The layer chain of a compiled model: the :class:`ModelGraph`.

A :class:`~repro.serving.plan.ModelPlan` on its own is a *bag* of compiled
layers; serving a whole model needs their order.  A :class:`ModelGraph` is
that order: a chain of distinct layer names, where the first stage reads the
model input and every later stage reads the previous stage's output — the
way the Transitive Array streams each GEMM into the next layer (LLaMA block
QKV→score→output→FC, ResNet stacks).  Its shape validation guarantees up
front that each stage's output height matches the next stage's reduction
dimension, so a request can never die on a mid-model shape mismatch.

Build one with :meth:`ModelGraph.chain` or by passing ``graph="chain"`` to
:func:`~repro.serving.plan.compile_workload`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Tuple

from ..errors import ServingError
from ..workloads.gemm import GemmShape


class ModelGraph:
    """An ordered chain of distinct compiled layer names.

    Construction checks the chain is non-empty and serves no layer twice;
    the *shape* compatibility of the links is checked against the compiled
    layers via :meth:`validate_shapes` when the graph is attached to a
    :class:`~repro.serving.plan.ModelPlan`.
    """

    def __init__(self, layers: Iterable[str]) -> None:
        layers = tuple(layers)
        if not layers:
            raise ServingError("a model graph needs at least one stage")
        for index, layer in enumerate(layers):
            if layer in layers[:index]:
                raise ServingError(
                    f"layer '{layer}' appears twice in the model graph; "
                    f"each stage must serve a distinct compiled layer"
                )
        # One tuple per graph: every request of the model shares it.
        self._layers: Tuple[str, ...] = layers

    @classmethod
    def chain(cls, layer_names: Iterable[str]) -> "ModelGraph":
        """Straight pipeline: each stage consumes the previous stage's output."""
        return cls(layer_names)

    @property
    def layers(self) -> Tuple[str, ...]:
        """Stage layer names, in execution order."""
        return self._layers

    def __len__(self) -> int:
        return len(self._layers)

    def __iter__(self) -> Iterator[str]:
        return iter(self._layers)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ModelGraph) and self._layers == other._layers

    def __repr__(self) -> str:
        return f"ModelGraph({self.describe()!r})"

    def describe(self) -> str:
        """Human-readable dataflow, e.g. ``input -> qkv_proj -> attn_score``."""
        return " -> ".join(("input",) + self._layers)

    def validate_shapes(self, shape_of: Callable[[str], GemmShape]) -> None:
        """Check each stage's output rows ``n`` equal the next stage's ``k``.

        ``shape_of`` maps a layer name to its :class:`GemmShape` (raising for
        unknown layers).
        """
        links = zip(self._layers, self._layers[1:])
        for index, (source, layer) in enumerate(links, start=1):
            k, n = shape_of(layer).k, shape_of(source).n
            if k != n:
                raise ServingError(
                    f"stage {index} ('{layer}') expects activations of "
                    f"height {k} but '{source}' produces {n}; the declared "
                    f"dataflow is dimensionally inconsistent"
                )
