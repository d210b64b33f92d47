"""Principal-component projection for small row matrices.

Used to turn per-channel correlation rows into initial channel embeddings.
The eigendecomposition is delegated to numpy's symmetric solver; output is
made deterministic by ordering eigenvalues descending and fixing each
eigenvector's sign so its largest-magnitude entry is positive.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pca_project"]


def pca_project(rows: np.ndarray, d: int) -> np.ndarray:
    """Project N rows in R^p onto their top-d principal components.

    Columns are centered first; the p x p covariance is eigendecomposed and
    rows are projected onto the d leading eigenvectors (descending
    eigenvalue). Rank deficiency is fine: trailing eigenvalues may be ~0.
    """
    x = np.asarray(rows, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"pca_project expects a 2-d input, got shape {x.shape}")
    n, p = x.shape
    if not 1 <= d <= min(n, p):
        raise ValueError(f"d={d} out of range for input {n}x{p} (need 1 <= d <= {min(n, p)})")
    centered = x - x.mean(axis=0, keepdims=True)
    denom = max(n - 1, 1)
    cov = (centered.T @ centered) / denom
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    vecs = eigvecs[:, order[:d]]
    # Deterministic sign: largest-magnitude entry of each eigenvector positive.
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            vecs[:, j] = -col
    return centered @ vecs
