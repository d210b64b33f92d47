import numpy as np
import pytest

from hnmvts.numcore import pca_project


def pairwise_dists(x):
    return np.linalg.norm(x[:, None, :] - x[None, :, :], axis=-1)


def test_full_rank_projection_preserves_distances(rng):
    rows = rng.standard_normal((6, 4))
    rows -= rows.mean(axis=0, keepdims=True)
    proj = pca_project(rows, 4)
    np.testing.assert_allclose(pairwise_dists(proj), pairwise_dists(rows), atol=1e-9)


def test_identical_rows_project_identically(rng):
    rows = rng.standard_normal((5, 3))
    rows[2] = rows[0]
    proj = pca_project(rows, 2)
    np.testing.assert_allclose(proj[2], proj[0], atol=1e-12)


def test_reconstruction_from_all_components(rng):
    # independent oracle: with d = p, projecting then back-projecting must
    # reproduce the centered input exactly (orthogonal change of basis).
    x = rng.standard_normal((5, 5))
    x = (x + x.T) / 2
    centered = x - x.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / 4
    vals, vecs = np.linalg.eigh(cov)
    order = np.argsort(vals)[::-1]
    vecs = vecs[:, order]
    for j in range(5):
        if vecs[np.argmax(np.abs(vecs[:, j])), j] < 0:
            vecs[:, j] = -vecs[:, j]
    proj = pca_project(x, 5)
    np.testing.assert_allclose(proj @ vecs.T, centered, atol=1e-9)


def test_columns_capture_descending_variance(rng):
    rows = rng.standard_normal((40, 6)) * np.array([5.0, 3.0, 1.0, 0.5, 0.2, 0.1])
    proj = pca_project(rows, 6)
    variances = proj.var(axis=0)
    assert all(a >= b - 1e-12 for a, b in zip(variances, variances[1:]))


def test_deterministic_sign_convention(rng):
    rows = rng.standard_normal((7, 4))
    p1 = pca_project(rows, 3)
    p2 = pca_project(rows.copy(), 3)
    assert (p1 == p2).all()


def test_rank_deficiency_allowed(rng):
    row = rng.standard_normal(4)
    rows = np.tile(row, (5, 1)) + 0.0
    rows[0] += 1.0
    proj = pca_project(rows, 4)  # rank 1 input, d = 4 still fine
    assert proj.shape == (5, 4)


@pytest.mark.parametrize("d", [0, 6])
def test_d_out_of_range(rng, d):
    with pytest.raises(ValueError):
        pca_project(rng.standard_normal((5, 5)), d)
