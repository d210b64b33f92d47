"""Seedable counter-based random number generation.

Every stochastic choice in the package (weight init, shuffles, synthetic
data) flows from an explicitly seeded Philox generator. Philox is a
counter-based algorithm, so identical seeds give identical streams on every
platform and run; there is no ambient global state anywhere.
"""

from __future__ import annotations

import numpy as np

__all__ = ["spawn_rng"]


def spawn_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for (seed, stream), e.g. one per training phase."""
    return np.random.Generator(np.random.Philox([int(seed), int(stream)]))
