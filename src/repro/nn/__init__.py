"""Numpy-based neural network substrate: autograd, layers, Transformer, optim.

This subpackage replaces PyTorch + HuggingFace transformers in the original
DODUO implementation (see DESIGN.md, substitution table).
"""

from . import functional
from .layers import Dropout, Embedding, LayerNorm, Linear, Module, deferred_init
from .optim import (
    Adam,
    LinearDecayScheduler,
    Optimizer,
)
from .serialization import copy_parameters, load_checkpoint, save_checkpoint
from .tensor import Tensor, concatenate
from .transformer import (
    MultiHeadSelfAttention,
    TransformerBlock,
    TransformerConfig,
    TransformerEncoder,
)

__all__ = [
    "Adam",
    "Dropout",
    "Embedding",
    "LayerNorm",
    "Linear",
    "LinearDecayScheduler",
    "Module",
    "MultiHeadSelfAttention",
    "Optimizer",
    "Tensor",
    "TransformerBlock",
    "TransformerConfig",
    "TransformerEncoder",
    "concatenate",
    "copy_parameters",
    "deferred_init",
    "functional",
    "load_checkpoint",
    "save_checkpoint",
]
