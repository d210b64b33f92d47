"""Numeric core: tensors, reverse-mode gradients, Adam, PCA, seeded generators."""

from .optim import AdamState, adam_step
from .pca import pca_project
from .rng import spawn_rng
from .tensor import (
    DimensionError,
    OuterGrad,
    Tape,
    Tensor,
    add,
    backward,
    channel_dot,
    channel_gemv,
    channel_product,
    get_default_dtype,
    linear_relu,
    matmul,
    moving_average,
    mse,
    mul,
    no_grad,
    reshape,
    set_default_dtype,
)

__all__ = [
    "DimensionError",
    "OuterGrad",
    "Tape",
    "Tensor",
    "AdamState",
    "adam_step",
    "add",
    "backward",
    "channel_dot",
    "channel_gemv",
    "channel_product",
    "get_default_dtype",
    "linear_relu",
    "matmul",
    "moving_average",
    "mse",
    "mul",
    "no_grad",
    "pca_project",
    "reshape",
    "set_default_dtype",
    "spawn_rng",
]
