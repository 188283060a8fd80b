"""ResNet-18 convolution layers lowered to GEMM via im2col (Fig. 14).

Following the paper (and ANT), every convolution is lowered with im2col so the
accelerators only ever execute GEMMs.  The layer list covers the 20
convolutions plus the final fully-connected classifier of the standard
ResNet-18 for 224x224 ImageNet inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..errors import WorkloadError
from .gemm import GemmShape, GemmWorkload


@dataclass(frozen=True)
class ConvLayer:
    """One convolution layer in NCHW convention."""

    name: str
    in_channels: int
    out_channels: int
    kernel: int
    stride: int
    input_size: int
    padding: int = 1

    def __post_init__(self) -> None:
        if min(self.in_channels, self.out_channels, self.kernel, self.stride, self.input_size) < 1:
            raise WorkloadError(f"conv layer '{self.name}' has a non-positive dimension")

    @property
    def output_size(self) -> int:
        """Spatial output size after the strided convolution."""
        return (self.input_size + 2 * self.padding - self.kernel) // self.stride + 1


def im2col_gemm_shape(layer: ConvLayer, weight_bits: int = 4, activation_bits: int = 8) -> GemmShape:
    """Lower a convolution to the GEMM executed after im2col.

    The weight operand becomes ``(out_channels, in_channels * k * k)`` and the
    activation operand ``(in_channels * k * k, output_h * output_w)``.
    """
    n = layer.out_channels
    k = layer.in_channels * layer.kernel * layer.kernel
    m = layer.output_size * layer.output_size
    return GemmShape(layer.name, n=n, k=k, m=m, weight_bits=weight_bits,
                     activation_bits=activation_bits)


#: The 20 convolutions + classifier of ResNet-18 (224x224 ImageNet input).
RESNET18_LAYERS: List[ConvLayer] = [
    ConvLayer("conv1", 3, 64, 7, 2, 224, padding=3),
    ConvLayer("layer1.0.conv1", 64, 64, 3, 1, 56),
    ConvLayer("layer1.0.conv2", 64, 64, 3, 1, 56),
    ConvLayer("layer1.1.conv1", 64, 64, 3, 1, 56),
    ConvLayer("layer1.1.conv2", 64, 64, 3, 1, 56),
    ConvLayer("layer2.0.conv1", 64, 128, 3, 2, 56),
    ConvLayer("layer2.0.conv2", 128, 128, 3, 1, 28),
    ConvLayer("layer2.0.downsample", 64, 128, 1, 2, 56, padding=0),
    ConvLayer("layer2.1.conv1", 128, 128, 3, 1, 28),
    ConvLayer("layer2.1.conv2", 128, 128, 3, 1, 28),
    ConvLayer("layer3.0.conv1", 128, 256, 3, 2, 28),
    ConvLayer("layer3.0.conv2", 256, 256, 3, 1, 14),
    ConvLayer("layer3.0.downsample", 128, 256, 1, 2, 28, padding=0),
    ConvLayer("layer3.1.conv1", 256, 256, 3, 1, 14),
    ConvLayer("layer3.1.conv2", 256, 256, 3, 1, 14),
    ConvLayer("layer4.0.conv1", 256, 512, 3, 2, 14),
    ConvLayer("layer4.0.conv2", 512, 512, 3, 1, 7),
    ConvLayer("layer4.0.downsample", 256, 512, 1, 2, 14, padding=0),
    ConvLayer("layer4.1.conv1", 512, 512, 3, 1, 7),
    ConvLayer("layer4.1.conv2", 512, 512, 3, 1, 7),
]


def resnet18_gemms(
    weight_bits: int = 4,
    activation_bits: int = 8,
    first_last_bits: int = 8,
    batch: int = 1,
) -> GemmWorkload:
    """GEMM workload of ResNet-18 as evaluated in Fig. 14.

    Following the paper, the first convolution and the final classifier are
    kept at 8-bit; every other layer uses ``weight_bits`` (4-bit in the paper,
    quantized with MQBench).  ``batch`` scales the ``m`` dimension.
    """
    if batch < 1:
        raise WorkloadError("batch must be positive")
    shapes: List[GemmShape] = []
    for index, layer in enumerate(RESNET18_LAYERS):
        bits = first_last_bits if index == 0 else weight_bits
        shape = im2col_gemm_shape(layer, weight_bits=bits, activation_bits=activation_bits)
        if batch > 1:
            shape = GemmShape(shape.name, shape.n, shape.k, shape.m * batch,
                              shape.weight_bits, shape.activation_bits)
        shapes.append(shape)
    shapes.append(
        GemmShape("fc", n=1000, k=512, m=batch, weight_bits=first_last_bits,
                  activation_bits=activation_bits)
    )
    return GemmWorkload(name="resnet18", gemms=shapes)
