"""Numeric core: tensors, reverse-mode gradients, Adam, PCA, grad checking."""

from .gradcheck import finite_diff_check
from .optim import AdamState, adam_step
from .pca import pca_project
from .rng import make_rng, spawn_rng
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
    "finite_diff_check",
    "get_default_dtype",
    "linear_relu",
    "make_rng",
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
