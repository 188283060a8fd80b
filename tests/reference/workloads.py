"""A second chainable workload for the serving and executor tests."""

from repro.errors import WorkloadError
from repro.workloads import GemmShape, GemmWorkload


def resnet_stack_gemms(
    *,
    weight_bits: int = 4,
    activation_bits: int = 8,
    batch: int = 1,
) -> GemmWorkload:
    """ResNet-18's channel-doubling spine as a chainable GEMM pipeline.

    The 1x1 downsample projections plus the classifier, the four points where
    ResNet-18 changes feature width: ``64 -> 128 -> 256 -> 512 -> 1000``.
    Each stage's output channel count equals the next stage's reduction
    dimension, so the stack compiles with ``graph="chain"``.  Spatial pooling
    between stages is elided, so each stage sees a ``batch``-column
    activation, one feature vector per image.
    """
    if batch < 1:
        raise WorkloadError("batch must be positive")
    shapes = [
        GemmShape("layer2.downsample", n=128, k=64, m=batch,
                  weight_bits=weight_bits, activation_bits=activation_bits),
        GemmShape("layer3.downsample", n=256, k=128, m=batch,
                  weight_bits=weight_bits, activation_bits=activation_bits),
        GemmShape("layer4.downsample", n=512, k=256, m=batch,
                  weight_bits=weight_bits, activation_bits=activation_bits),
        GemmShape("fc", n=1000, k=512, m=batch, weight_bits=8,
                  activation_bits=activation_bits),
    ]
    return GemmWorkload(name="resnet18-stack", gemms=shapes)
