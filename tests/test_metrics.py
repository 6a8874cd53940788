"""Point-to-mesh distance, coverage and smoothness against independent oracles.

The distance oracle projects a point onto each triangle's plane and keeps
the projection when it falls inside the triangle, otherwise the nearest of
the three edge segments; it takes the minimum over every triangle of the
mesh, without any spatial index.  The exactness oracle runs the module's own
closest-point routine one point at a time over every triangle, so the binned
search must match it bit for bit, also where only rounding separates a
pruned triangle from the best one and on faces of either winding or of zero
area.  Coverage is checked against barycentric coordinates in plan, and the
search's work is counted on regular grids and dual-rate TINs; its memory
peak is bounded per point, and its pass sizes change no distance.  Edge
adjacency is checked against an O(T^2) scan of shared edges.  Per-class
smoothness is checked against the mesh split into a road and a terrain
submesh, each scored on its own.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadsurf import metrics
from roadsurf.grid import GridGeoref, Mask, Raster
from roadsurf.mesh import (SamplingConfig, TinMesh, build_tin, delaunay, edge_pairs, export_mesh,
                           plane_mesh, rgt_mesh)
from roadsurf.metrics import (_bilinear, _closest_point_batch, evaluate_all,
                              point_mesh_distances, vertex_errors)
from roadsurf.nurbs import NurbsSurface, evaluate_grid


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


def sequential_closest_points(p, tri):
    """Ericson's closest-point regions tested in order on (K, 3) rows, each
    point taking the first region that holds."""
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    ab, ac = b - a, c - a
    d1, d2 = ((ab * (p - a)).sum(1), (ac * (p - a)).sum(1))
    d3, d4 = ((ab * (p - b)).sum(1), (ac * (p - b)).sum(1))
    d5, d6 = ((ab * (p - c)).sum(1), (ac * (p - c)).sum(1))
    va, vb, vc = d3 * d6 - d5 * d4, d5 * d2 - d1 * d6, d1 * d4 - d3 * d2
    out = np.empty_like(a)
    done = np.zeros(len(tri), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_ab = np.where(d1 - d3 != 0, d1 / (d1 - d3), 0.0)
        t_ac = np.where(d2 - d6 != 0, d2 / (d2 - d6), 0.0)
        den_bc = (d4 - d3) + (d5 - d6)
        t_bc = np.where(den_bc != 0, (d4 - d3) / den_bc, 0.0)
        s = va + vb + vc
        s = np.where(s != 0, s, 1.0)
        for mask, value in [((d1 <= 0) & (d2 <= 0), a), ((d3 >= 0) & (d4 <= d3), b),
                            ((vc <= 0) & (d1 >= 0) & (d3 <= 0), a + t_ab[:, None] * ab),
                            ((d6 >= 0) & (d5 <= d6), c),
                            ((vb <= 0) & (d2 >= 0) & (d6 <= 0), a + t_ac[:, None] * ac),
                            ((va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0),
                             b + t_bc[:, None] * (c - b)),
                            (np.ones(len(tri), dtype=bool),
                             a + (vb / s)[:, None] * ab + (vc / s)[:, None] * ac)]:
            take = mask & ~done
            out[take] = value[take]
            done |= take
    return out


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
    raster = Raster(width=9, height=9, cell_size=1.0, origin_x=0.0,
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


def test_closest_points_match_the_sequential_regions():
    # random triangles at three scales and UTM-sized offsets, and small
    # integer triangles with repeated vertices, collinear corners and points
    # on their vertices, where several regions hold at once
    rng = np.random.default_rng(16)
    tri = (rng.normal(size=(3000, 3, 3)) * rng.choice([1e-6, 1.0, 1e3], (3000, 1, 1))
           + rng.choice([0.0, 5e5], (3000, 1, 3)))
    p = tri[:, 0] + rng.normal(0.0, 3.0, (3000, 3))
    small = rng.integers(-2, 3, (3000, 3, 3)).astype(float)
    small[:500, 1] = small[:500, 0]
    small[500:1000, 2] = small[500:1000, 1]
    small[1000:1200] = small[1000:1200, :1]
    small[1200:1700, 2] = 2.0 * small[1200:1700, 1] - small[1200:1700, 0]
    on = np.where(rng.random((3000, 1)) < 0.4, small[np.arange(3000), rng.integers(0, 3, 3000)],
                  rng.integers(-3, 4, (3000, 3)) * 0.5)
    for points, batch in ((p, tri), (on, small), (p[0], tri), (on[:1], small[:1])):
        assert np.array_equal(_closest_point_batch(points, batch),
                              sequential_closest_points(np.broadcast_to(points, batch[:, 0].shape),
                                                        batch))


def plan_containment(mesh, points):
    """Whether each point's plan position has barycentric coordinates all
    >= 0 in some triangle, whichever way the triangle is wound."""
    tri = mesh.vertices[mesh.triangles][:, :, :2]
    return [any((barycentric(p[:2], *t) >= 0).all() for t in tri) for p in points]


def face_reversed(mesh):
    return TinMesh(mesh.vertices, mesh.triangles[:, ::-1].copy())


def test_coverage_is_plan_view_containment(mesh, queries):
    _, covered = point_mesh_distances(mesh, queries)
    assert covered.tolist() == plan_containment(mesh, queries)
    assert 0 < covered.sum() < len(queries)


def test_clockwise_faces_keep_coverage_and_distances(mesh, queries):
    # every face wound clockwise; the plane's first two points, (10, 10) and
    # (25, 5), lie inside its two faces, which used to leave them uncovered
    plane = plane_mesh((0.01, -0.02, 3.0), (0.0, 50.0), (0.0, 30.0))
    rng = np.random.default_rng(21)
    plane_points = np.column_stack([rng.uniform(-10.0, 60.0, (100, 2)), rng.normal(3.0, 1.0, 100)])
    plane_points[:2] = [[10.0, 10.0, 3.0], [25.0, 5.0, 3.0]]
    for tin, points in ((mesh, queries), (plane, plane_points)):
        clockwise = face_reversed(tin)
        dist, covered = point_mesh_distances(clockwise, points)
        assert covered.tolist() == plan_containment(clockwise, points)
        assert covered.tolist() == point_mesh_distances(tin, points)[1].tolist()
        assert np.array_equal(dist, indexless_distances(clockwise, points))
    assert point_mesh_distances(face_reversed(plane), plane_points[:2])[1].all()


@pytest.mark.parametrize("angle", [0.0, 12.5, 40.0, 90.0])
def test_mad_of_a_fold_is_its_angle(angle):
    a = np.radians(angle)
    # two triangles hinged on the y axis: one flat, one tilted up by the angle
    vertices = np.array([[0.0, 0.0, 0.0], [0.0, 2.0, 0.0], [-2.0, 1.0, 0.0],
                         [2.0 * np.cos(a), 1.0, 2.0 * np.sin(a)]])
    mesh = TinMesh(vertices, np.array([[0, 1, 2], [0, 3, 1]]))
    georef = dict(width=3, height=3, cell_size=1.0,
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
    mesh = plane_mesh((0.01, -0.02, 3.0), (0.0, 50.0), (0.0, 30.0))
    rng = np.random.default_rng(11)
    points = np.column_stack([rng.uniform(-10.0, 60.0, (300, 2)), rng.normal(3.0, 1.0, 300)])
    dist, covered = point_mesh_distances(mesh, points)
    assert np.array_equal(dist, indexless_distances(mesh, points))
    inside = ((points[:, :2] >= 0.0) & (points[:, :2] <= [50.0, 30.0])).all(1)
    assert covered.tolist() == inside.tolist()


def test_points_beside_the_mesh_close_without_a_full_search(time_limit):
    # 10 to 40 m beside each side of a 101 x 101 regular grid (20k
    # triangles), off its corners, and far below it; no triangle lies beyond
    # the bin grid, so points beside it stop widening their rings early
    rng = np.random.default_rng(13)
    raster = Raster(width=101, height=101, cell_size=1.0, origin_x=0.0,
                    origin_y=0.0, values=rng.normal(0.0, 0.3, (101, 101)))
    grid_mesh = rgt_mesh(raster)
    along, off = rng.uniform(0.0, 100.0, 60), rng.uniform(10.0, 40.0, 60)
    beside = np.concatenate([np.column_stack([-off, along]), np.column_stack([100.0 + off, along]),
                             np.column_stack([along, -off]), np.column_stack([along, 100.0 + off])])
    signs = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]]).repeat(15, axis=0)
    corners = 50.0 + signs * (50.0 + rng.uniform(5.0, 30.0, (60, 2)))
    below = np.column_stack([rng.uniform(0.0, 100.0, (6, 2)), np.full(6, -500.0)])
    points = np.concatenate([np.column_stack([np.concatenate([beside, corners]),
                                              rng.normal(0.0, 0.3, 300)]), below])
    with time_limit(5, "points beside the mesh searched every bin"):
        dist, covered = point_mesh_distances(grid_mesh, points)
    assert np.array_equal(dist, indexless_distances(grid_mesh, points))
    assert covered.tolist() == [False] * 300 + [True] * 6


@pytest.mark.parametrize("turns", range(4))
def test_bound_beyond_a_side_ignores_the_offset_along_it(turns):
    # 8 triangles on a 60 m by 1 m strip make two 30 m bins.  A point 40 m
    # beyond the strip's end first meets, in its own bin, triangles 65 m
    # below it (76.3 m away); the band of the other bin starts 70 m away, so
    # the search must go on and find the level triangles there (70.1 m).  Its
    # 40 m offset from the grid runs along that band and must not enter the
    # bound, which would close the point at 76.3 m.
    level = [[27.0, 0.0, 0.0], [29.9, 0.0, 0.0], [29.9, 1.0, 0.0]]
    low = [[58.0, 0.0, -65.0], [60.0, 0.0, -65.0], [60.0, 1.0, -65.0]]
    filler = [[0.0, 0.0, 500.0], [2.0, 0.0, 500.0], [1.0, 1.0, 500.0]]
    corners = np.array([filler] * 2 + [level] * 3 + [low] * 3).reshape(-1, 3)
    point = np.array([[100.0, 0.5, 0.0]])
    c, s = np.round(np.cos(turns * np.pi / 2)), np.round(np.sin(turns * np.pi / 2))
    turn = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    mesh = TinMesh(corners @ turn.T, np.arange(24).reshape(8, 3))
    dist, _ = point_mesh_distances(mesh, point @ turn.T)
    assert np.array_equal(dist, indexless_distances(mesh, point @ turn.T))
    assert dist[0] == pytest.approx(70.1)


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


@pytest.mark.parametrize("origin", [0.0, 5e5])
def test_pruning_is_sound_on_mixed_windings_and_degenerate_faces(origin):
    # a flat 1 m lattice with half its faces clockwise, two collinear faces
    # and two with a repeated vertex; over every other vertex a level roof
    # face, of either winding, whose near edge passes 0.4 m from the vertex
    # in plan.  A point 0.4 m above that vertex is 0.4 m from the lattice
    # face that contains it and from the roof's edge, so only rounding tells
    # the two apart, and the roof's plan bound is as large as its distance.
    # The other points lie on the lattice's shared vertices and edges.
    rng = np.random.default_rng(22)
    lattice = rgt_mesh(Raster(width=13, height=13, cell_size=1.0, origin_x=origin,
                              origin_y=origin, values=np.zeros((13, 13))))
    v, tri = lattice.vertices, lattice.triangles.copy()
    turned = rng.random(len(tri)) < 0.5
    tri[turned] = tri[turned, ::-1]
    centres = v.reshape(13, 13, 3)[::2, ::2].reshape(-1, 3)
    angle = rng.uniform(0.0, 2.0 * np.pi, len(centres))
    out = np.column_stack([np.cos(angle), np.sin(angle)])
    along = np.column_stack([-out[:, 1], out[:, 0]])
    foot = centres[:, :2] + 0.4 * out
    roofs = np.stack([foot - 0.7 * along, foot + 0.9 * along, foot + 0.6 * out + 0.1 * along],
                     axis=1)
    roofs = np.concatenate([roofs, np.full((len(centres), 3, 1), 0.4)], axis=2)
    turned = rng.random(len(roofs)) < 0.5
    roofs[turned] = roofs[turned, ::-1]
    degenerate = [[0, 1, 2], [0, 13, 26], [30, 30, 31], [40, 40, 40]]
    mesh = TinMesh(np.concatenate([v, roofs.reshape(-1, 3)]),
                   np.concatenate([tri, len(v) + np.arange(roofs.size // 3).reshape(-1, 3),
                                   degenerate]))
    edges = np.unique(np.sort(np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]]),
                              axis=1), axis=0)
    mid = 0.5 * (v[edges[:, 0]] + v[edges[:, 1]])
    points = np.concatenate([centres + [0.0, 0.0, 0.4], v, v + [0.0, 0.0, 0.25], mid,
                             mid + [0.0, 0.0, -0.3]])
    dist, covered = point_mesh_distances(mesh, points)
    assert np.array_equal(dist, indexless_distances(mesh, points))
    assert covered.all()


def test_regular_grid_points_meet_each_triangle_once(monkeypatch):
    # ground truth sits on the raster lattice, and the 1 m bins are centred
    # on its points, so every vertex lies at a bin centre and every edge
    # midpoint on a bin edge, and each triangle's box spans up to four bins;
    # still every (point, triangle) pair goes through the closest-point
    # routine at most once, and few do
    rng = np.random.default_rng(14)
    raster = Raster(width=31, height=31, cell_size=1.0, origin_x=0.0,
                    origin_y=0.0, values=rng.normal(0.0, 0.3, (31, 31)))
    grid_mesh = rgt_mesh(raster)
    v = grid_mesh.vertices
    edges = np.unique(np.sort(np.concatenate([grid_mesh.triangles[:, [0, 1]],
                                              grid_mesh.triangles[:, [1, 2]],
                                              grid_mesh.triangles[:, [2, 0]]]), axis=1), axis=0)
    points = np.concatenate([v + [0.0, 0.0, 0.02], 0.5 * (v[edges[:, 0]] + v[edges[:, 1]])])
    pairs = []

    def recording(p, tri):
        pairs.append(np.column_stack([p, tri.reshape(len(tri), 9)]))
        return _closest_point_batch(p, tri)

    monkeypatch.setattr(metrics, "_closest_point_batch", recording)
    dist, covered = point_mesh_distances(grid_mesh, points)
    monkeypatch.undo()
    assert np.array_equal(dist, indexless_distances(grid_mesh, points))
    assert covered.all()
    pairs = np.concatenate(pairs)
    assert len(np.unique(pairs, axis=0)) == len(pairs)
    # 2.90 pairs per point (7.61 when every triangle of the home bin was
    # scored, 7.74 with bin edges on the lattice points as well; the search
    # that expanded every ring bin met 29.9)
    assert len(pairs) <= 7.7 * len(points)


def test_lattice_points_open_few_bins(monkeypatch):
    # ground truth on the vertices of a 101² regular grid, as in a run's RGT
    # baseline: one point in twenty stands 1 m above the mesh, the rest within
    # centimetres.  Work is counted, not timed: rows through the plan box
    # test and (point, triangle) pairs through the closest-point routine
    rng = np.random.default_rng(15)
    raster = Raster(width=101, height=101, cell_size=1.0, origin_x=0.0,
                    origin_y=0.0, values=rng.normal(0.0, 0.3, (101, 101)))
    grid_mesh = rgt_mesh(raster)
    points = grid_mesh.vertices + np.column_stack(
        [np.zeros((len(grid_mesh.vertices), 2)), rng.normal(0.0, 0.02, len(grid_mesh.vertices))])
    points[::20, 2] += 1.0
    rows = {"box": 0, "pairs": 0}
    box_distance = metrics._box_distance

    def box_rows(xy, lo, hi):
        rows["box"] += len(xy)
        return box_distance(xy, lo, hi)

    def pair_rows(p, tri):
        rows["pairs"] += len(tri)
        return _closest_point_batch(p, tri)

    monkeypatch.setattr(metrics, "_box_distance", box_rows)
    monkeypatch.setattr(metrics, "_closest_point_batch", pair_rows)
    dist, covered = point_mesh_distances(grid_mesh, points)
    monkeypatch.undo()
    # the brute-force minimum over every triangle, on one point in fifty
    assert np.array_equal(dist[::50], indexless_distances(grid_mesh, points[::50]))
    assert covered.all()
    # 1.53 box rows and 6.10 pairs per point, most of them the six faces
    # around a point's vertex (2.53 box rows when the home bin was windowed
    # too; 7.96 pairs when every triangle of the home bin was scored; 18.73
    # box rows and 8.04 pairs with bin edges on the lattice points as well,
    # where every point opened its first ring)
    assert rows["box"] <= 4.0 * len(points)
    assert rows["pairs"] <= 8.7 * len(points)


def road_tin(rates):
    """A dual-rate TIN as a run or an ablation builds it, over a 6 m wide
    curved road on a 61 x 41 tile at 1 m, and ground truth on the raster
    lattice within centimetres of the surface, one point in twenty 1 m
    above it."""
    rng = np.random.default_rng(23)
    surface = NurbsSurface((0.0, 60.0, 0.0, 40.0), 3, rng.normal(0.0, 0.5, (8, 10)))
    jj, ii = np.mgrid[0:41, 0:61]
    bits = (np.abs(jj - 20.0 - 8.0 * np.sin(ii / 9.0)) < 3.0).astype(np.uint8)
    tin = build_tin(surface, Mask(width=61, height=41, cell_size=1.0, origin_x=0.0,
                                  origin_y=0.0, bits=bits), SamplingConfig(*rates))
    xs, ys = np.arange(61.0), np.arange(41.0)
    z = evaluate_grid(surface, xs, ys)
    gx, gy = np.meshgrid(xs, ys)
    points = np.column_stack([gx.ravel(), gy.ravel(), z.ravel() + rng.normal(0.0, 0.02, z.size)])
    points[::20, 2] += 1.0
    return tin, points


@pytest.mark.parametrize("rates", [(1.0, 10.0), (0.5, 5.0)])
def test_tin_points_score_few_triangles(monkeypatch, rates):
    # work is counted: (point, triangle) pairs through the closest-point
    # routine
    tin, points = road_tin(rates)
    pairs = [0]

    def counted(p, tri):
        pairs[0] += len(tri)
        return _closest_point_batch(p, tri)

    monkeypatch.setattr(metrics, "_closest_point_batch", counted)
    dist, covered = point_mesh_distances(tin, points)
    monkeypatch.undo()
    assert np.array_equal(dist[::25], indexless_distances(tin, points[::25]))
    assert covered.all()
    # 2.06 and 2.48 pairs per point (9.0 and 8.8 when every triangle of the
    # home bin was scored)
    assert pairs[0] <= 2.6 * len(points)


@pytest.mark.parametrize("shift", [0.0, 37.0])
@pytest.mark.parametrize("kind", ["rgt", "tin", "plane"])
def test_pass_sizes_do_not_change_a_distance(monkeypatch, kind, shift):
    # passes of 13 home-bin pairs, batches of 7 pairs that split one point's
    # pairs, and ring passes of one point give the same distances and
    # coverage as the default sizes, over the mesh and 37 m beside it
    rng = np.random.default_rng(41)
    if kind == "rgt":
        mesh = rgt_mesh(Raster(width=25, height=25, cell_size=1.0, origin_x=0.0,
                               origin_y=0.0, values=rng.normal(0.0, 0.3, (25, 25))))
        points = mesh.vertices + np.column_stack([np.zeros((625, 2)), rng.normal(0.0, 0.1, 625)])
    elif kind == "tin":
        mesh, points = road_tin((0.5, 5.0))
        points = points[::3]
    else:
        mesh = plane_mesh((0.01, -0.02, 3.0), (0.0, 50.0), (0.0, 30.0))
        points = np.column_stack([rng.uniform(-10.0, 60.0, (300, 2)),
                                  rng.normal(3.0, 1.0, 300)])
    points = points + [shift, shift, 0.0]
    dist, covered = point_mesh_distances(mesh, points)
    monkeypatch.setattr(metrics, "_PAIR_CHUNK", 7)
    monkeypatch.setattr(metrics, "_HELD_PAIRS", 13)
    small_dist, small_covered = point_mesh_distances(mesh, points)
    assert np.array_equal(small_dist, dist)
    assert np.array_equal(small_covered, covered)
    assert not covered.all() if shift else covered.any()


def test_search_memory_is_bounded_by_its_passes():
    # 60,025 lattice points over a regular grid of 800 triangles at 5 m, all
    # searched at once: the search keeps 21 bytes of state a point and each
    # pass a working set of fixed size, so one call peaked at 47.7 bytes a
    # point of tracemalloc (39.3 in blocks of 2,048 points); closing every
    # open point of a ring at once, not each pass's own, peaked at 179.7
    rng = np.random.default_rng(31)
    grid_mesh = rgt_mesh(Raster(width=21, height=21, cell_size=5.0, origin_x=0.0,
                                origin_y=0.0, values=rng.normal(0.0, 0.3, (21, 21))))
    gx, gy = np.meshgrid(np.linspace(0.0, 100.0, 245), np.linspace(0.0, 100.0, 245))
    points = np.column_stack([gx.ravel(), gy.ravel(), rng.normal(0.0, 0.5, gx.size)])
    point_mesh_distances(grid_mesh, points[:100])  # numpy's lazy imports are not counted
    tracemalloc.start()
    try:
        point_mesh_distances(grid_mesh, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80 * len(points)


def random_meshes(rng):
    """Delaunay meshes of random sets and of jittered dual-rate lattices, and
    regular grids, with random heights; some lie at UTM-sized coordinates."""
    for n in (3, 12, 150, 600):
        xy = rng.uniform(0.0, rng.uniform(1.0, 60.0), (n, 2))
        yield TinMesh(np.column_stack([xy, rng.normal(0.0, 2.0, n)]), delaunay(xy))
    for fine, coarse, origin in ((0.5, 2.0, 0.0), (1.0, 5.0, 5e5), (0.4, 2.5, -300.0)):
        xy = np.unique(np.concatenate([lattice_xy((0.0, 30.0), (0.0, 20.0), coarse),
                                       lattice_xy((6.0, 24.0), (8.0, 12.0), fine)]).round(9),
                       axis=0)
        xy += origin + rng.uniform(-1e-3, 1e-3, xy.shape)
        yield TinMesh(np.column_stack([xy, rng.normal(0.0, 0.5, len(xy))]), delaunay(xy))
    for size, cell, origin in ((5, 1.0, 0.0), (23, 0.4, 5.4e6), (17, 2.5, -40.0)):
        yield rgt_mesh(Raster(width=size, height=size + 3, cell_size=cell,
                              origin_x=origin, origin_y=origin + 7.0,
                              values=rng.normal(0.0, 0.3, (size + 3, size))))


def lattice_xy(x_range, y_range, step):
    x, y = (np.arange(lo, hi + step / 2, step) for lo, hi in (x_range, y_range))
    return np.stack(np.meshgrid(x, y), axis=-1).reshape(-1, 2)


def test_random_meshes_match_the_indexless_minimum():
    # per mesh: plan positions inside its extent at mesh heights and above,
    # beside each side, far away, exactly on vertices, and far below
    rng = np.random.default_rng(15)
    for tin in random_meshes(rng):
        v = tin.vertices
        lo, hi = v[:, :2].min(0), v[:, :2].max(0)
        span = (hi - lo).max()
        inside = np.column_stack([rng.uniform(lo, hi, (40, 2)), rng.normal(0.0, 2.0, 40)])
        side = rng.integers(0, 2, (20, 2))
        beside = np.where(side, hi + rng.uniform(0.0, 0.3 * span, (20, 2)),
                          lo - rng.uniform(0.0, 0.3 * span, (20, 2)))
        beside[:5, 0] = rng.uniform(lo[0], hi[0], 5)
        beside[5:10, 1] = rng.uniform(lo[1], hi[1], 5)
        far = lo + rng.choice([-1.0, 1.0], (6, 2)) * rng.uniform(3.0, 10.0, (6, 2)) * span
        below = np.column_stack([rng.uniform(lo, hi, (6, 2)), np.full(6, -40.0 * span)])
        points = np.concatenate([
            inside,
            np.column_stack([beside, rng.normal(0.0, 2.0, 20)]),
            np.column_stack([far, rng.normal(0.0, 2.0, 6)]),
            v[rng.choice(len(v), min(len(v), 20), replace=False)],
            below])
        dist, _ = point_mesh_distances(tin, points)
        assert np.array_equal(dist, indexless_distances(tin, points))


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
    # 40 faces on 6 vertices: most edges are non-manifold, some faces repeat
    pytest.param(np.argsort(np.random.default_rng(19).random((40, 6)), axis=1)[:, :3],
                 id="random_non_manifold"),
])
def test_adjacent_pairs_match_shared_edge_scan(triangles):
    pairs = edge_pairs(np.asarray(triangles, dtype=np.int64).reshape(-1, 3)) // 3
    expected = shared_edge_pairs(triangles)
    assert pairs.shape == expected.shape and pairs.dtype == expected.dtype
    assert np.array_equal(pairs, expected)


def test_adjacent_pairs_of_meshes(mesh, lattice):
    for m in (mesh, lattice):
        assert np.array_equal(edge_pairs(m.triangles) // 3, shared_edge_pairs(m.triangles))


def submesh_mads(mesh, mask_plus):
    """(road, terrain) mean normal angles, each class's triangles split off
    by the mask cell nearest their plan centroid into a submesh of their
    own, which is paired, given normals and averaged alone (0 without
    pairs)."""
    centroids = mesh.vertices[mesh.triangles].mean(axis=1)
    on_road = mask_plus.contains(centroids[:, 0], centroids[:, 1])
    mads = []
    for triangles in (mesh.triangles[on_road], mesh.triangles[~on_road]):
        pairs = edge_pairs(triangles) // 3
        if len(pairs) == 0:
            mads.append(0.0)
            continue
        tri = mesh.vertices[triangles]
        normals = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        norms = np.linalg.norm(normals, axis=1)
        if (norms == 0).any():
            raise ValueError("mesh contains degenerate triangles")
        normals = normals / norms[:, None]
        dots = np.abs((normals[pairs[:, 0]] * normals[pairs[:, 1]]).sum(1))
        mads.append(float(np.degrees(np.arccos(np.clip(dots, 0.0, 1.0))).mean()))
    return tuple(mads)


def mask_where(road, lo=(-3.0, -3.0), size=61, cell=0.1):
    """A mask over [lo, lo + (size - 1) * cell]^2 set where road(x, y) holds."""
    georef = dict(width=size, height=size, cell_size=cell, origin_x=lo[0], origin_y=lo[1])
    ii, jj = np.meshgrid(np.arange(size), np.arange(size))
    x, y = GridGeoref(**georef).cell_to_world(ii, jj)
    return Mask(**georef, bits=road(x, y).astype(np.uint8))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), width=st.integers(2, 12), height=st.integers(2, 12),
       holes=st.sampled_from([0.0, 0.15]), road=st.floats(0.0, 1.0),
       mask_cell=st.sampled_from([0.5, 1.0, 2.5]))
def test_mad_matches_the_submesh_split(seed, width, height, holes, road, mask_cell):
    rng = np.random.default_rng(seed)
    values = rng.normal(0.0, 0.5, (height, width))
    values[rng.random((height, width)) < holes] = np.nan
    values[:2, :2] = rng.normal(0.0, 0.5, (2, 2))  # at least one quad
    raster = Raster(width=width, height=height, cell_size=1.0, origin_x=0.0, origin_y=0.0,
                    values=values)
    mesh = rgt_mesh(raster)
    size = int(max(width, height) / mask_cell) + 2
    mask = Mask(width=size, height=size, cell_size=mask_cell,
                origin_x=rng.uniform(-1.0, 0.0), origin_y=rng.uniform(-1.0, 0.0),
                bits=rng.random((size, size)) < road)
    report = evaluate_all(mesh, raster, raster, mask)
    assert (report.mad_road, report.mad_terrain) == submesh_mads(mesh, mask)


def test_mad_of_random_meshes_matches_the_submesh_split():
    rng = np.random.default_rng(17)
    for mesh in random_meshes(rng):
        lo = mesh.vertices[:, :2].min(0)
        span = (mesh.vertices[:, :2].max(0) - lo).max()
        size = 12
        mask = Mask(width=size, height=size, cell_size=span / (size - 1), origin_x=lo[0],
                    origin_y=lo[1], bits=rng.random((size, size)) < 0.4)
        assert metrics._smoothness(mesh, mask) == submesh_mads(mesh, mask)


# edge (0, 1) is shared by faces 0 and 1 and by fin face 2 above face 0;
# faces 0, 2 and 3 have centroids at y > 0, faces 1 and 4 below, and face 4
# shares edge (1, 3) with face 1 alone
NON_MANIFOLD = TinMesh(
    np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 1.0, 0.3], [0.5, -1.0, 0.2],
              [0.5, 0.8, -0.5], [1.5, 1.2, 0.1], [1.5, -1.2, -0.3]]),
    np.array([[1, 2, 0], [3, 0, 1], [0, 1, 4], [2, 1, 5], [3, 1, 6]]))


# (road, terrain) expected: 0.0, or None for a class with pairs, which
# scores above 0 since no two of these faces are parallel
@pytest.mark.parametrize("mesh, road, expected", [
    pytest.param(NON_MANIFOLD, lambda x, y: y > 0, (None, None), id="non_manifold_edge"),
    pytest.param(NON_MANIFOLD, lambda x, y: y < -0.5, (0.0, None), id="road_without_pairs"),
    pytest.param(NON_MANIFOLD, lambda x, y: y > -0.5, (None, 0.0), id="terrain_without_pairs"),
    pytest.param(TinMesh(NON_MANIFOLD.vertices, NON_MANIFOLD.triangles[:2]),
                 lambda x, y: y > 0, (0.0, 0.0), id="pair_across_classes"),
    pytest.param(NON_MANIFOLD, lambda x, y: x < 10, (None, 0.0), id="all_road"),
])
def test_mad_of_small_meshes_matches_the_submesh_split(mesh, road, expected):
    mask = mask_where(road)
    mads = metrics._smoothness(mesh, mask)
    assert mads == submesh_mads(mesh, mask)
    for mad, want in zip(mads, expected, strict=True):
        assert mad > 0.0 if want is None else mad == want


def test_degenerate_triangle_in_a_paired_class_raises():
    # face 5 repeats vertex 0 and shares edge (0, 2) with face 0
    mesh = TinMesh(NON_MANIFOLD.vertices, np.concatenate([NON_MANIFOLD.triangles, [[0, 2, 0]]]))
    mask = mask_where(lambda x, y: y > 0)
    for score in (metrics._smoothness, submesh_mads):
        with pytest.raises(ValueError, match="mesh contains degenerate triangles"):
            score(mesh, mask)


def tilted_plane(width=9, height=7, nan=()):
    """A raster of z = 0.5 x - 0.25 y + 10 at 1 m cells, NaN at the (j, i)
    cells in nan; bilinear samples of it at half-cell positions are exact."""
    jj, ii = np.mgrid[:height, :width]
    values = 0.5 * ii - 0.25 * jj + 10.0
    for cell in nan:
        values[cell] = np.nan
    return Raster(width=width, height=height, cell_size=1.0, origin_x=0.0, origin_y=0.0,
                  values=values)


def half_cell_tin(plane, offset=0.0):
    xy = lattice_xy((0.0, plane.width - 1.0), (0.0, plane.height - 1.0), 0.5)
    z = 0.5 * xy[:, 0] - 0.25 * xy[:, 1] + 10.0 + offset
    return TinMesh(np.column_stack([xy, z]), delaunay(xy))


def test_a_tin_on_its_ground_truth_plane_has_no_error():
    plane = tilted_plane()
    tin = half_cell_tin(plane)
    mask = mask_where(lambda x, y: x < 3.2, lo=(0.0, 0.0), size=9, cell=1.0)
    errors = vertex_errors(tin, plane, plane, mask)
    assert errors.tolist() == [0.0] * len(tin.vertices)
    colors = {" ".join(line.split()[4:]) for line in export_mesh(tin, errors)
              if line.startswith("v ")}
    assert colors == {"0.000000 0.100000 1.000000"}


def test_a_constant_offset_is_the_error():
    plane = tilted_plane()
    tin = half_cell_tin(plane, offset=0.25)
    mask = mask_where(lambda x, y: y > 2.6, lo=(0.0, 0.0), size=9, cell=1.0)
    assert vertex_errors(tin, plane, plane, mask).tolist() == [0.25] * len(tin.vertices)


def test_bilinear_skips_a_nan_corner():
    plane = tilted_plane(nan=[(1, 1)])
    # (0.5, 0.5): corners 10, 10.5, 9.75 and NaN at quarter weight each
    ref = _bilinear(plane, np.array([0.5, 0.25, 1.0]), np.array([0.5, 0.5, 0.0]))
    assert ref[0] == (10.0 + 10.5 + 9.75) / 3
    assert ref[1] == (0.375 * 10.0 + 0.125 * 10.5 + 0.375 * 9.75) / 0.875
    assert ref[2] == 10.5


def test_a_vertex_without_finite_support_has_no_error():
    plane = tilted_plane(nan=[(2, 3), (2, 4), (3, 3), (3, 4)])
    vertices = np.array([[3.5, 2.5, 50.0], [1.0, 1.0, 10.0], [6.0, 1.0, 12.0]])
    tin = TinMesh(vertices, np.array([[0, 1, 2]]))
    for bits in (np.zeros((7, 9)), np.ones((7, 9))):
        mask = Mask(width=9, height=7, cell_size=1.0, origin_x=0.0, origin_y=0.0, bits=bits)
        assert vertex_errors(tin, plane, plane, mask).tolist() == [0.0, 0.25, 0.75]
