"""Point-to-mesh distance, coverage and smoothness against independent oracles.

The distance oracle projects a point onto each triangle's plane and keeps
the projection when it falls inside the triangle, otherwise the nearest of
the three edge segments; it takes the minimum over every triangle of the
mesh, without any spatial index.
"""

import numpy as np
import pytest

from roadsurf.grid import Mask, Raster
from roadsurf.mesh import TinMesh, delaunay
from roadsurf.metrics import evaluate_all, point_mesh_distances


def barycentric(p, a, b, c):
    """Coordinates of p in the triangle abc (any dimension, p in its plane)."""
    v0, v1, v2 = b - a, c - a, p - a
    d00, d01, d11 = v0 @ v0, v0 @ v1, v1 @ v1
    d20, d21 = v2 @ v0, v2 @ v1
    den = d00 * d11 - d01 * d01
    s = (d11 * d20 - d01 * d21) / den
    t = (d00 * d21 - d01 * d20) / den
    return np.array([1.0 - s - t, s, t])


def segment_distance(p, a, b):
    t = np.clip((p - a) @ (b - a) / ((b - a) @ (b - a)), 0.0, 1.0)
    return np.linalg.norm(p - (a + t * (b - a)))


def triangle_distance(p, a, b, c):
    n = np.cross(b - a, c - a)
    projected = p - ((p - a) @ n) / (n @ n) * n
    if (barycentric(projected, a, b, c) >= 0).all():
        return np.linalg.norm(p - projected)
    return min(segment_distance(p, a, b), segment_distance(p, b, c),
               segment_distance(p, c, a))


@pytest.fixture(scope="module")
def mesh():
    rng = np.random.default_rng(7)
    xy = rng.uniform(0.0, 20.0, (40, 2))
    z = rng.normal(0.0, 2.0, 40)
    return TinMesh(np.column_stack([xy, z]), delaunay(xy))


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(8)
    # some plan positions fall outside the mesh footprint
    return np.column_stack([rng.uniform(-5.0, 25.0, (300, 2)), rng.normal(0.0, 4.0, 300)])


def test_distances_match_brute_force(mesh, queries):
    dist, _ = point_mesh_distances(mesh, queries)
    tri = mesh.vertices[mesh.triangles]
    expected = [min(triangle_distance(p, *t) for t in tri) for p in queries]
    np.testing.assert_allclose(dist, expected, rtol=0, atol=1e-12)


def test_coverage_is_plan_view_containment(mesh, queries):
    _, covered = point_mesh_distances(mesh, queries)
    tri = mesh.vertices[mesh.triangles][:, :, :2]
    expected = [any((barycentric(p[:2], *t) >= 0).all() for t in tri) for p in queries]
    assert covered.tolist() == expected
    assert 0 < covered.sum() < len(queries)


@pytest.mark.parametrize("angle", [0.0, 12.5, 40.0, 90.0])
def test_mad_of_a_fold_is_its_angle(angle):
    a = np.radians(angle)
    # two triangles hinged on the y axis: one flat, one tilted up by the angle
    vertices = np.array([[0.0, 0.0, 0.0], [0.0, 2.0, 0.0], [-2.0, 1.0, 0.0],
                         [2.0 * np.cos(a), 1.0, 2.0 * np.sin(a)]])
    mesh = TinMesh(vertices, np.array([[0, 1, 2], [0, 3, 1]]))
    georef = dict(width=3, height=3, cell_size_x=1.0, cell_size_y=1.0,
                  origin_x=-1.0, origin_y=0.0)
    points = Raster(**georef, values=np.zeros((3, 3)))
    report = evaluate_all(mesh, points, points, Mask(**georef, bits=np.ones((3, 3))))
    assert report.mad_road == pytest.approx(angle, abs=1e-9)
    assert report.mad_terrain == 0.0  # no terrain triangles, so no pairs
