"""Point-to-mesh distance, coverage and smoothness against independent oracles.

The distance oracle projects a point onto each triangle's plane and keeps
the projection when it falls inside the triangle, otherwise the nearest of
the three edge segments; it takes the minimum over every triangle of the
mesh, without any spatial index.  The exactness oracle runs the module's own
closest-point routine one point at a time over every triangle, so the binned
search must match it bit for bit.  Edge adjacency is checked against an
O(T^2) scan of shared edges.
"""

import numpy as np
import pytest

from roadsurf.grid import Mask, Raster
from roadsurf.mesh import PlaneModel, TinMesh, delaunay, plane_mesh, rgt_mesh
from roadsurf.metrics import (_adjacent_pairs, _closest_point_batch, evaluate_all,
                              point_mesh_distances)


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


def indexless_distances(mesh, points):
    """Minimum of _closest_point_batch over every triangle, point by point."""
    tri = mesh.vertices[mesh.triangles]
    return np.array([np.sqrt(((_closest_point_batch(p, tri) - p) ** 2).sum(1)).min()
                     for p in points])


def shared_edge_pairs(triangles):
    """(i, j) for every i < j and every edge both faces have, ordered by
    (edge, i, j)."""
    edges = [{tuple(sorted((t[k], t[(k + 1) % 3]))) for k in range(3)}
             for t in np.asarray(triangles).tolist()]
    rows = sorted((e, i, j) for i in range(len(edges)) for j in range(i + 1, len(edges))
                  for e in edges[i] & edges[j])
    return np.array([(i, j) for _, i, j in rows], dtype=np.int64).reshape(-1, 2)


@pytest.fixture(scope="module")
def lattice():
    """Regular-grid mesh of a 9x9 raster at 1 m: its 128 triangles make 1 m
    bins, so each quad is one bin and each triangle's bounding box touches 4
    bins (fewer on the upper and right borders)."""
    rng = np.random.default_rng(9)
    raster = Raster(width=9, height=9, cell_size_x=1.0, cell_size_y=1.0, origin_x=0.0,
                    origin_y=0.0, values=rng.normal(0.0, 0.3, (9, 9)))
    return rgt_mesh(raster)


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


def test_distances_are_exact_outside_the_footprint(mesh, queries):
    # far points keep widening their rings until they cover every bin
    far = np.array([[200.0, 200.0, 0.0], [-150.0, 10.0, 3.0], [10.0, -80.0, -5.0]])
    points = np.concatenate([queries, far])
    dist, _ = point_mesh_distances(mesh, points)
    assert np.array_equal(dist, indexless_distances(mesh, points))


def test_distances_are_exact_over_scattered_triangles():
    # small triangles far apart leave many bins empty, so the nearest
    # triangle of a query often lies in a later ring, on any of its sides
    rng = np.random.default_rng(12)
    corners = rng.uniform(0.0, 30.0, (60, 1, 3)) + rng.uniform(-0.3, 0.3, (60, 3, 3))
    mesh = TinMesh(corners.reshape(-1, 3), np.arange(180).reshape(60, 3))
    points = np.column_stack([rng.uniform(-5.0, 35.0, (500, 2)), rng.uniform(0.0, 30.0, 500)])
    dist, _ = point_mesh_distances(mesh, points)
    assert np.array_equal(dist, indexless_distances(mesh, points))


def test_triangles_with_a_repeated_vertex():
    # zero-length edges divide by zero inside the closest-point routine;
    # the warnings filter in pyproject.toml turns any warning into a failure
    vertices = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.5], [2.0, 2.0, 1.0]])
    mesh = TinMesh(vertices, np.array([[0, 0, 1], [1, 2, 2], [0, 1, 2], [3, 3, 3]]))
    points = np.array([[0.2, 0.2, 1.0], [0.5, -1.0, 0.0], [2.0, 2.0, 0.0], [3.0, 0.0, 2.0]])
    dist, _ = point_mesh_distances(mesh, points)
    assert np.array_equal(dist, indexless_distances(mesh, points))


def test_distances_are_exact_on_a_lattice(lattice):
    rng = np.random.default_rng(10)
    lo, hi = lattice.vertices[:, :2].min(0), lattice.vertices[:, :2].max(0)
    points = np.column_stack([rng.uniform(lo - 1.0, hi + 1.0, (400, 2)),
                              rng.normal(0.0, 0.5, 400)])
    dist, _ = point_mesh_distances(lattice, points)
    assert np.array_equal(dist, indexless_distances(lattice, points))


def test_distances_are_exact_on_a_plane():
    mesh = plane_mesh(PlaneModel(0.01, -0.02, 3.0), (0.0, 50.0), (0.0, 30.0))
    rng = np.random.default_rng(11)
    points = np.column_stack([rng.uniform(-10.0, 60.0, (300, 2)), rng.normal(3.0, 1.0, 300)])
    dist, covered = point_mesh_distances(mesh, points)
    assert np.array_equal(dist, indexless_distances(mesh, points))
    inside = ((points[:, :2] >= 0.0) & (points[:, :2] <= [50.0, 30.0])).all(1)
    assert covered.tolist() == inside.tolist()


def test_points_on_shared_vertices_and_edges(lattice):
    v = lattice.vertices
    edges = np.concatenate([lattice.triangles[:, [0, 1]], lattice.triangles[:, [1, 2]],
                            lattice.triangles[:, [2, 0]]])
    points = np.concatenate([v, 0.5 * (v[edges[:, 0]] + v[edges[:, 1]])])
    dist, covered = point_mesh_distances(lattice, points)
    assert np.array_equal(dist, indexless_distances(lattice, points))
    assert covered.all()
    assert (dist[:len(v)] == 0.0).all()
    np.testing.assert_allclose(dist, 0.0, rtol=0, atol=1e-12)


def test_no_points_and_no_triangles(mesh):
    dist, covered = point_mesh_distances(mesh, np.empty((0, 3)))
    assert dist.shape == covered.shape == (0,)
    assert (dist.dtype, covered.dtype) == (float, bool)
    with pytest.raises(ValueError, match="mesh has no triangles"):
        point_mesh_distances(TinMesh(mesh.vertices, np.empty((0, 3), dtype=int)), np.zeros((1, 3)))


@pytest.mark.parametrize("triangles", [
    # edge (0, 1) is the last edge of face 0, the second of face 1 and the
    # first of face 2; edge (1, 2) is shared by faces 0 and 3
    pytest.param([[1, 2, 0], [3, 0, 1], [0, 1, 4], [2, 1, 5]], id="non_manifold_edge"),
    pytest.param([[0, 1, 2], [2, 1, 3], [1, 2, 0], [3, 4, 2]], id="duplicated_triangle"),
    pytest.param(np.empty((0, 3), dtype=np.int64), id="empty"),
])
def test_adjacent_pairs_match_shared_edge_scan(triangles):
    pairs = _adjacent_pairs(np.asarray(triangles, dtype=np.int64).reshape(-1, 3))
    expected = shared_edge_pairs(triangles)
    assert pairs.shape == expected.shape and pairs.dtype == expected.dtype
    assert np.array_equal(pairs, expected)


def test_adjacent_pairs_of_meshes(mesh, lattice):
    for m in (mesh, lattice):
        assert np.array_equal(_adjacent_pairs(m.triangles), shared_edge_pairs(m.triangles))
