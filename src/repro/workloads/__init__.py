"""Workload descriptors and synthetic data for the paper's evaluation."""

from .gemm import GemmShape, GemmWorkload
from .llama import (
    LLAMA_MODELS,
    LlamaConfig,
    llama_attention_gemms,
    llama_block_gemms,
    llama_fc_gemms,
    llama_model,
)
from .resnet import (
    RESNET18_LAYERS,
    ConvLayer,
    im2col_gemm_shape,
    resnet18_gemms,
)
from .synthetic import (
    outlier_weight_matrix,
    random_binary_matrix,
    synthetic_gemm_workload,
)

__all__ = [
    "GemmShape",
    "GemmWorkload",
    "LLAMA_MODELS",
    "LlamaConfig",
    "llama_attention_gemms",
    "llama_block_gemms",
    "llama_fc_gemms",
    "llama_model",
    "RESNET18_LAYERS",
    "ConvLayer",
    "im2col_gemm_shape",
    "resnet18_gemms",
    "outlier_weight_matrix",
    "random_binary_matrix",
    "synthetic_gemm_workload",
]
