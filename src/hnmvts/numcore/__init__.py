"""Numeric core: tensors, reverse-mode gradients, Adam, PCA, seeded generators.

It re-exports `tensor`'s public names, which that module's `__all__` lists.
"""

from . import tensor
from .optim import AdamState, adam_step
from .pca import pca_project
from .rng import spawn_rng
from .tensor import *  # noqa: F403

__all__ = ["AdamState", "adam_step", "pca_project", "spawn_rng", *tensor.__all__]
