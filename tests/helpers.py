"""Test-only helpers: seeded generators, a finite-difference gradient check and
the reference order of `Tape.trace`.

The package itself draws from `numcore.spawn_rng`; these stay with the tests
that use them.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from hnmvts.numcore import Tensor, backward, no_grad


def make_rng(seed: int) -> np.random.Generator:
    """A fresh Philox-backed generator for the given seed."""
    return np.random.Generator(np.random.Philox(int(seed)))


def finite_diff_check(
    f: Callable[[], Tensor],
    params: Sequence[Tensor],
    step: float = 1e-5,
) -> float:
    """Max relative disagreement between autodiff and central differences.

    `f` takes no arguments, reads the given parameter tensors, and returns a
    scalar loss. Each parameter coordinate is perturbed by +-step in place
    (and restored) to form the central-difference estimate. The returned
    value is

        max over coordinates of |g_ad - g_fd| / max(1e-8, |g_ad| + |g_fd|)
    """
    loss = f()
    grads = backward(loss, params)
    worst = 0.0
    for p in params:
        g_ad = grads[p].data
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            with no_grad():
                flat[i] = orig + step
                up = f().item()
                flat[i] = orig - step
                down = f().item()
            flat[i] = orig
            g_fd = (up - down) / (2.0 * step)
            g_val = g_ad.reshape(-1)[i]
            err = abs(g_val - g_fd) / max(1e-8, abs(g_val) + abs(g_fd))
            worst = max(worst, err)
    return worst


def trace_reference(root: Tensor) -> list[Tensor]:
    """The node order `Tape.trace` must return, by the walk it was first written
    as: a stack of (node, expanded) pairs keyed by `id()`. A node popped
    unexpanded pushes itself expanded and then its unvisited parents that need a
    gradient, in order; popped expanded it is appended. `backward` visits the
    nodes in the reverse of this order, which fixes the order in which the
    contributions to a shared node are summed."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    return order
