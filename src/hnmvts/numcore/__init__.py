"""Numeric core: tensors, reverse-mode gradients, Adam, PCA, grad checking."""

from .gradcheck import finite_diff_check
from .optim import AdamState, adam_step
from .pca import pca_project
from .rng import make_rng, spawn_rng
from .tensor import (
    DimensionError,
    Tape,
    Tensor,
    add,
    backward,
    channel_dot,
    get_default_dtype,
    matmul,
    moving_average,
    moving_average_adjoint,
    mul,
    no_grad,
    relu,
    reshape,
    set_default_dtype,
    square,
    sub,
    tmean,
    tsum,
)

__all__ = [
    "DimensionError",
    "Tape",
    "Tensor",
    "AdamState",
    "adam_step",
    "add",
    "backward",
    "channel_dot",
    "finite_diff_check",
    "get_default_dtype",
    "make_rng",
    "matmul",
    "moving_average",
    "moving_average_adjoint",
    "mul",
    "no_grad",
    "pca_project",
    "relu",
    "reshape",
    "set_default_dtype",
    "spawn_rng",
    "square",
    "sub",
    "tmean",
    "tsum",
]
