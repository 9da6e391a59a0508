"""Numpy-backed tensor / neural-network substrate.

This package provides everything the Switch-Transformer and Pre-gated MoE
models are built from: a small reverse-mode autograd engine
(:mod:`repro.tensor.autograd`), neural-network layers
(:mod:`repro.tensor.layers`, :mod:`repro.tensor.attention`), functional ops
(:mod:`repro.tensor.functional`) and optimisers (:mod:`repro.tensor.optim`).

Every op is a primitive with a forward and a VJP in one registry
(:mod:`repro.tensor.primitives`); the eager engine executes each op as it
is issued.
"""

from .autograd import (
    Tensor,
    concatenate,
    embedding_lookup,
    no_grad,
    ones,
    randn,
    stack,
    tensor,
    where,
    zeros,
)
from .precision import (
    PrecisionPolicy,
    current_precision,
    current_precision_name,
    use_precision,
)
from .attention import CrossKVCache, DecodeCache, FeedForward, KVCache, MultiHeadAttention
from .layers import Dropout, Embedding, LayerNorm, Linear
from .module import Module, ModuleList, Parameter, Sequential
from .optim import SGD, Adam, ConstantLR, WarmupInverseSqrtLR, clip_grad_norm
from . import functional

__all__ = [
    "Tensor",
    "concatenate",
    "embedding_lookup",
    "no_grad",
    "ones",
    "randn",
    "stack",
    "tensor",
    "where",
    "zeros",
    "PrecisionPolicy",
    "current_precision",
    "current_precision_name",
    "use_precision",
    "CrossKVCache",
    "DecodeCache",
    "FeedForward",
    "KVCache",
    "MultiHeadAttention",
    "Dropout",
    "Embedding",
    "LayerNorm",
    "Linear",
    "Module",
    "ModuleList",
    "Parameter",
    "Sequential",
    "SGD",
    "Adam",
    "ConstantLR",
    "WarmupInverseSqrtLR",
    "clip_grad_norm",
    "functional",
]
