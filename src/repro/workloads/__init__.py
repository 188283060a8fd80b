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
    resnet_stack_gemms,
)
from .attention import attention_gemms
from .synthetic import (
    outlier_weight_matrix,
    quantized_activation_matrix,
    random_binary_matrix,
    random_transrow_values,
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
    "resnet_stack_gemms",
    "attention_gemms",
    "outlier_weight_matrix",
    "quantized_activation_matrix",
    "random_binary_matrix",
    "random_transrow_values",
    "synthetic_gemm_workload",
]
