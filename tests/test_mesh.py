"""Delaunay triangulation against the empty-circumcircle rule.

The oracle is the in-circle determinant (Guibas & Stolfi 1985): for a
counter-clockwise triangle abc, a point p lies strictly inside the
circumcircle exactly when

    | ax-px  ay-py  (ax-px)^2 + (ay-py)^2 |
    | bx-px  by-py  (bx-px)^2 + (by-py)^2 |  >  0.
    | cx-px  cy-py  (cx-px)^2 + (cy-py)^2 |

It is evaluated for every triangle against every input point that is not one
of its vertices, without any spatial structure.
"""

import numpy as np
import pytest

from roadsurf.mesh import delaunay

# in-circle determinants carry length^4; slack relative to the squared-squared span
INCIRCLE_TOL = 1e-9


def orientation(points, triangles):
    """Twice the signed area of each triangle; positive is counter-clockwise."""
    a, b, c = (points[triangles[:, k]] for k in range(3))
    return (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])


def incircle(points, triangles):
    """(T, N) in-circle determinants of every point against every triangle."""
    rel = points[triangles][:, :, None, :] - points[None, None, :, :]  # (T, 3, N, 2)
    lift = (rel ** 2).sum(axis=-1)
    m = np.concatenate([rel, lift[..., None]], axis=-1)  # (T, 3, N, 3)
    return np.linalg.det(np.moveaxis(m, 2, 1))  # (T, N)


def assert_delaunay(points):
    tri = delaunay(points)
    n = len(points)
    assert tri.ndim == 2 and tri.shape[1] == 3 and len(tri) > 0
    assert tri.min() >= 0 and tri.max() < n
    # every row counter-clockwise
    assert (orientation(points, tri) > 0).all()
    # canonical order: smallest index first, rows sorted, none repeated
    assert (tri[:, 0] < tri[:, 1]).all() and (tri[:, 0] < tri[:, 2]).all()
    assert [tuple(r) for r in tri] == sorted({tuple(r) for r in tri})
    # empty circumcircles, the triangles' own vertices excluded
    det = incircle(points, tri)
    det[np.arange(len(tri))[:, None], tri] = -np.inf
    span = np.ptp(points, axis=0).max()
    assert det.max() <= INCIRCLE_TOL * span ** 4
    return tri


def test_random_points_are_delaunay():
    rng = np.random.default_rng(7)
    for n in (3, 4, 10, 57, 200):
        points = rng.uniform(-50.0, 150.0, (n, 2))
        assert_delaunay(points)


def test_lattice_with_cocircular_quads_is_delaunay():
    # every unit square of the lattice is a cocircular quad
    jj, ii = np.mgrid[0:9, 0:11]
    points = np.column_stack([ii.ravel() * 2.5 + 300.0, jj.ravel() * 2.5 - 40.0])
    tri = assert_delaunay(points)
    # any diagonal choice splits each of the 80 squares into two triangles
    assert len(tri) == 2 * 10 * 8


def test_jittered_lattice_is_delaunay():
    rng = np.random.default_rng(11)
    jj, ii = np.mgrid[0:8, 0:8]
    points = np.column_stack([ii.ravel(), jj.ravel()]).astype(float)
    points += rng.uniform(-1e-3, 1e-3, points.shape)
    assert_delaunay(points)


@pytest.mark.parametrize("points, message", [
    ([[0.0, 0.0], [1.0, 0.0]], "need at least 3 points"),
    ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]], "duplicate points"),
    ([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]], "collinear"),
])
def test_degenerate_inputs_raise(points, message):
    with pytest.raises(ValueError, match=message):
        delaunay(np.array(points))
