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


def numeric_grads(f: Callable[[], float], arrays: Sequence[np.ndarray],
                  step: float = 1e-5) -> list[np.ndarray]:
    """Central differences of the scalar `f()` in each coordinate of `arrays`,
    each perturbed by +-step in place and restored."""
    out = []
    for a in arrays:
        flat, g = a.reshape(-1), np.empty(a.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = f()
            flat[i] = orig - step
            down = f()
            flat[i] = orig
            g[i] = (up - down) / (2.0 * step)
        out.append(g.reshape(a.shape))
    return out


def grad_error(g_ad: np.ndarray, g_fd: np.ndarray) -> float:
    """Max over coordinates of |g_ad - g_fd| / max(floor, |g_ad| + |g_fd|),
    with floor = max(1e-8, 0.01 * max |g_ad|).

    The central difference errs by rounding in proportion to the loss, not
    to the coordinate's own gradient, so an exact gradient near 0 is scored
    against a hundredth of its array's largest one. Over 400 reseeded float32
    draws of the two-slot `channel_dot` check (bound 1e-3), a fixed 1e-8
    floor scored 54 above the bound; this floor's worst was 2.5e-4.
    """
    g_ad = np.asarray(g_ad, dtype=np.float64)
    floor = max(1e-8, 0.01 * float(np.max(np.abs(g_ad), initial=0.0)))
    return float(np.max(np.abs(g_ad - g_fd) / np.maximum(floor, np.abs(g_ad) + np.abs(g_fd)),
                        initial=0.0))


def finite_diff_check(f: Callable[[], Tensor], params: Sequence[Tensor],
                      step: float = 1e-5) -> float:
    """Max `grad_error` between `backward`'s gradients of the loss node `f()`
    and central differences of it, over every coordinate of `params`; the
    perturbed losses are taken under `no_grad`."""
    grads = backward(f(), params)
    with no_grad():
        fd = numeric_grads(lambda: f().item(), [p.data for p in params], step)
    return max(grad_error(grads[p].data, g) for p, g in zip(params, fd))


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
