"""Delaunay triangulation against the empty-circumcircle rule.

The oracle is the in-circle determinant (Guibas & Stolfi 1985): for a
counter-clockwise triangle abc, a point p lies strictly inside the
circumcircle exactly when

    | ax-px  ay-py  (ax-px)^2 + (ay-py)^2 |
    | bx-px  by-py  (bx-px)^2 + (by-py)^2 |  >  0.
    | cx-px  cy-py  (cx-px)^2 + (cy-py)^2 |

It is evaluated for every triangle against every input point that is not one
of its vertices, without any spatial structure.  Larger sets are checked edge
by edge instead: the far vertex of one triangle against the other, with the
determinant divided by its permanent (the same expansion over the products'
absolute values), so the rule reads the same at every scale.  Coverage is
checked against scipy's convex hull: the triangles' areas sum to the hull's
area, and their count is the Euler count 2n - 2 - h, with h the points on the
hull boundary, collinear ones included.

The flip loop, which keeps its half-edge twins from round to round, is
checked array for array against the loop it replaced, which pairs every
half-edge again by an argsort each round: both flip the same edges in the
same rounds, so from the same start they must give equal arrays, and the
start must already be counter-clockwise.  The flips test their edges in
blocks, and the triangulation must not depend on the block size, down to
one edge at a time.  The half-edge pairs the flips start from are checked
against a dictionary of each triangulation's edges.  A memory guard bounds
the tracemalloc peaks of sampling and Delaunay per sample on a dual-rate
set of about 20,000 samples, and Delaunay's also on the 7,399 samples of
the reference tile's 0.5/5 TIN, and a sampling lattice too large for memory
must fail before its dense bases are built.  The sampler is checked node by
node against its documented rules, on nested and non-nested rates and on
terrain nodes 5e-8 m and 2e-6 m beside a road node.

The OBJ writer is checked byte for byte against a formatter that converts
one numpy scalar at a time, and the reader must skip blank lines.  The
plane fit must recover the plane its points were sampled from.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from roadsurf import mesh as meshmod
from roadsurf import nurbs as nurbsmod
from roadsurf.filtering import FilterParams, run_filter
from roadsurf.fit import initialize_surface
from roadsurf.grid import Mask, Raster
from roadsurf.mesh import (_TOL, SamplingConfig, TinMesh, _flip_to_delaunay, _incircle,
                           _strip_start, delaunay, dynamic_sample, edge_pairs, export_mesh,
                           fit_plane, load_mesh, plane_mesh, rgt_mesh)
from roadsurf.nurbs import NurbsSurface
from roadsurf.synth import SceneSpec, generate

# in-circle determinants carry length^4; slack relative to the squared-squared span
INCIRCLE_TOL = 1e-9
# slack of an edge's in-circle determinant relative to its permanent
EDGE_TOL = 1e-10


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
    assert_tiles_hull(points, tri)
    return tri


def edge_incircle(points, triangles):
    """In-circle determinant over permanent for every interior edge: the far
    vertex of the edge's twin triangle against the counter-clockwise one."""
    far = {}
    for a, b, c in triangles.tolist():
        far[a, b], far[b, c], far[c, a] = c, a, b
    quads = np.array([(u, v, w, far[v, u]) for (u, v), w in far.items()
                      if u < v and (v, u) in far])
    rel = points[quads[:, :3]] - points[quads[:, 3:]]  # (E, 3, 2)
    m = np.concatenate([rel, (rel ** 2).sum(axis=-1, keepdims=True)], axis=-1)
    permanent = sum(np.abs(m[:, 0, i] * m[:, 1, j] * m[:, 2, k])
                    for i, j, k in itertools.permutations(range(3)))
    return np.linalg.det(m) / permanent


def assert_tiles_hull(points, tri):
    """The triangles tile the convex hull, every point a vertex."""
    n = len(points)
    span = np.ptp(points, axis=0).max()
    hull = ConvexHull(points)
    assert orientation(points, tri).sum() / 2 == pytest.approx(hull.volume, rel=1e-12)
    on_hull = np.abs(points @ hull.equations[:, :2].T + hull.equations[:, 2]).min(axis=1)
    assert len(tri) == 2 * n - 2 - int((on_hull <= 1e-9 * span).sum())
    assert np.array_equal(np.unique(tri), np.arange(n))


def lattice_points(cols, rows, step=1.0, x0=0.0, y0=0.0):
    """Row-major lattice, the vertex order of rgt_mesh."""
    jj, ii = np.mgrid[0:rows, 0:cols]
    return np.column_stack([x0 + ii.ravel() * step, y0 + jj.ravel() * step])


def test_random_points_are_delaunay():
    rng = np.random.default_rng(7)
    for n in (3, 4, 10, 57, 200):
        points = rng.uniform(-50.0, 150.0, (n, 2))
        assert_delaunay(points)


# every unit square of the lattice is a cocircular quad
COCIRCULAR_LATTICE = lattice_points(11, 9, step=2.5, x0=300.0, y0=-40.0)


def test_lattice_with_cocircular_quads_is_delaunay():
    tri = assert_delaunay(COCIRCULAR_LATTICE)
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
    # first and last of the input, with points between them in both coordinates
    ([[5.0, 5.0], [0.0, 0.0], [1.0, 3.0], [2.0, 1.0], [9.0, 0.5], [5.0, 5.0]],
     "duplicate points"),
    ([[-0.0, 1.0], [2.0, 0.0], [1.0, 3.0], [0.0, 1.0]], "duplicate points"),
    # the duplicate check comes before the collinear one
    ([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [1.0, 1.0]], "duplicate points"),
    # one ulp apart: distinct points, all of them vertices
    ([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0], [1.0, np.nextafter(1.0, 2.0)]], None),
    # NaN rows compare unequal, so no duplicate check would see them
    ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [np.nan, 1.0], [np.nan, 1.0]], "must be finite"),
    ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, np.nan]], "must be finite"),
    ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [np.inf, 1.0]], "must be finite"),
    ([[0.0, 0.0], [1.0, -np.inf], [0.0, 1.0]], "must be finite"),
])
def test_degenerate_inputs_raise(points, message):
    if message is None:
        assert np.array_equal(np.unique(delaunay(np.array(points))), np.arange(len(points)))
        return
    with pytest.raises(ValueError, match=message):
        delaunay(np.array(points))


def random_sets():
    """40 uniform sets of 10 to 400 points in a 100 m square."""
    rng = np.random.default_rng(0)
    return [rng.uniform(0.0, 100.0, (int(rng.integers(10, 401)), 2)) for _ in range(40)]


def test_random_sets_cover_their_hull():
    for points in random_sets():
        assert_delaunay(points)


def clusters(spread, seed):
    """Twenty Gaussian clusters of 100 points over 500 uniform ones, in a
    100 m square."""
    rng = np.random.default_rng(seed)
    centres = rng.uniform(0.0, 100.0, (20, 1, 2))
    blobs = centres + rng.normal(0.0, spread, (20, 100, 2))
    return np.concatenate([blobs.reshape(-1, 2), rng.uniform(0.0, 100.0, (500, 2))])


def small_cluster_in_a_wide_set(seed):
    """300 points in a 5 cm square among 200 points spread over 500 m."""
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.uniform(250.0, 250.05, (300, 2)),
                           rng.uniform(0.0, 500.0, (200, 2))])


def dent_in_the_hull(seed):
    """200 points over 500 m above three on its bottom edge, 5 cm apart, the
    middle one 1 um above the line through the others."""
    rng = np.random.default_rng(seed)
    bottom = [[250.0, 0.0], [250.025, 1e-6], [250.05, 0.0]]
    return np.concatenate([bottom, rng.uniform([0.0, 1.0], [500.0, 500.0], (200, 2))])


EDGE_SETS = {
    "uniform": np.random.default_rng(1).uniform(0.0, 100.0, (3000, 2)),
    "clusters-0.1": clusters(1e-1, 2),
    "clusters-0.001": clusters(1e-3, 3),
    "clusters-0.0001": clusters(1e-4, 4),
    "small-cluster": small_cluster_in_a_wide_set(5),
    "hull-dent": dent_in_the_hull(6),
}


@pytest.mark.parametrize("points", EDGE_SETS.values(), ids=EDGE_SETS.keys())
def test_every_interior_edge_is_locally_delaunay(points):
    tri = delaunay(points)
    assert edge_incircle(points, tri).max() <= EDGE_TOL
    assert_tiles_hull(points, tri)


@pytest.mark.parametrize("points", [*random_sets()[:5], COCIRCULAR_LATTICE])
def test_edge_pairs_twin_each_interior_edge_once(points):
    tri = delaunay(points)
    tail, head = tri.ravel(), tri[:, [1, 2, 0]].ravel()
    halves = {}
    for h, edge in enumerate(zip(tail.tolist(), head.tolist())):
        halves.setdefault(frozenset(edge), []).append(h)
    assert max(map(len, halves.values())) == 2
    interior = sorted(tuple(hs) for hs in halves.values() if len(hs) == 2)
    pairs = edge_pairs(tri)
    assert sorted(map(tuple, pairs.tolist())) == interior
    # twins run opposite ways along their edge
    h1, h2 = pairs.T
    assert np.array_equal(tail[h1], head[h2]) and np.array_equal(head[h1], tail[h2])


def test_lattice_squares_take_the_rgt_diagonal():
    # every square is cocircular; the tie goes to the lower-left to
    # upper-right diagonal, triangle for triangle the split of rgt_mesh
    points = lattice_points(13, 7, step=0.4, x0=-3.0, y0=2.0)
    tri = assert_delaunay(points)
    raster = Raster(width=13, height=7, cell_size=0.4,
                    origin_x=-3.0, origin_y=2.0, values=np.zeros((7, 13)))
    expected = rgt_mesh(raster).triangles
    assert np.array_equal(tri, expected[np.lexsort(expected.T[::-1])])


def test_collinear_points_inside_a_lattice():
    # half-step points along an inner row and an inner column, and a run of
    # points along a diagonal, each making collinear triples inside the hull
    base = lattice_points(9, 9)
    row = np.column_stack([np.arange(8) + 0.5, np.full(8, 4.0)])
    column = np.column_stack([np.full(8, 3.0), np.arange(8) + 0.5])
    diagonal = np.column_stack([np.arange(1, 6) + 0.25, np.arange(1, 6) + 0.25])
    points = np.concatenate([base, row, column[column[:, 1] != 4.0], diagonal])
    rng = np.random.default_rng(5)
    assert_delaunay(points[rng.permutation(len(points))])


LATTICE = lattice_points(7, 6)
LINE = np.column_stack([np.zeros(6), np.arange(6.0)])


@pytest.mark.parametrize("points", [
    np.vstack([LATTICE, [[-1.0, 2.5]]]),               # left of the lattice
    np.vstack([LATTICE, [[7.0, -2.0]]]),               # right of it, below the bottom row
    np.vstack([LATTICE, [[-1.0, 2.5], [7.0, 6.5]]]),   # one at each end
    np.vstack([LATTICE, [[3.5, -1.0], [-2.0, 2.0]]]),  # below an inner column, and left
    np.vstack([LINE, [[2.0, 1.5]]]),                   # beside a single column
    np.vstack([LINE[:, ::-1], [[1.5, -2.0]]]),         # below a row of one-point columns
])
def test_one_point_column_on_the_hull(points):
    assert_delaunay(points)


@pytest.mark.parametrize("rates", [(1.0, 5.0), (0.5, 5.0), (1.0, 2.5)])
def test_dual_rate_samples_are_delaunay(rates):
    # a curved band of road cells sampled densely, terrain coarsely; 1/2.5
    # lattices do not nest
    surface = NurbsSurface((0.0, 20.0, 0.0, 15.0), 3,
                           np.random.default_rng(3).normal(0.0, 1.0, (6, 5)))
    jj, ii = np.mgrid[0:16, 0:21]
    bits = (np.abs(jj - 7.0 - 4.0 * np.sin(ii / 4.0)) < 2.0).astype(np.uint8)
    mask = Mask(width=21, height=16, cell_size=1.0,
                origin_x=0.0, origin_y=0.0, bits=bits)
    samples = dynamic_sample(surface, mask, SamplingConfig(*rates))
    assert_delaunay(samples[:, :2])


def patchy_road():
    """A random surface over a 20 x 15 m tile under a random road mask of
    1 m cells whose column 2 is road and column 3 is not, so a node on their
    border, x = 2.5, is road and a node just right of it is terrain."""
    surface = NurbsSurface((0.0, 20.0, 0.0, 15.0), 3,
                           np.random.default_rng(5).normal(0.0, 1.0, (6, 5)))
    bits = (np.random.default_rng(6).random((16, 21)) < 0.4).astype(np.uint8)
    bits[:, 2], bits[:, 3] = 1, 0
    return surface, Mask(width=21, height=16, cell_size=1.0, origin_x=0.0, origin_y=0.0, bits=bits)


def sample_oracle(surface, mask, config):
    """dynamic_sample's rules node by node: each lattice's nodes of its class
    in row-major order, road first, and a terrain node dropped when a road
    sample holds its plan position rounded to 6 decimals.  Returns the
    samples and the dropped nodes' plan positions."""
    def rounded(node):
        return float(np.round(node[0], 6)), float(np.round(node[1], 6))

    x0, x1, y0, y1 = surface.extent
    classes = []
    for rate, road in ((config.road_rate, True), (config.terrain_rate, False)):
        xs, ys = meshmod._lattice(x0, x1, rate), meshmod._lattice(y0, y1, rate)
        z = nurbsmod.evaluate_grid(surface, xs, ys)
        classes.append([(x, y, z[j, i]) for j, y in enumerate(ys.tolist())
                        for i, x in enumerate(xs.tolist()) if bool(mask.contains(x, y)) == road])
    road, terrain = classes
    held = {rounded(node) for node in road}
    kept = [node for node in terrain if rounded(node) not in held]
    return np.array(road + kept), [node[:2] for node in terrain if rounded(node) in held]


@pytest.mark.parametrize("rates, dropped, kept", [
    ((1.0, 10.0), None, None),
    ((0.5, 5.0), None, None),
    ((1.0, 2.5), None, None),
    ((0.3, 1.0), None, None),
    # a terrain node 5e-8 m right of the road node (2.5, 0), and one 2e-6 m
    ((0.5, 2.5 + 5e-8), (2.5 + 5e-8, 0.0), None),
    ((0.5, 2.5 + 2e-6), None, (2.5 + 2e-6, 0.0)),
])
def test_samples_follow_their_rules(rates, dropped, kept):
    surface, mask = patchy_road()
    samples = dynamic_sample(surface, mask, SamplingConfig(*rates))
    expected, dropped_nodes = sample_oracle(surface, mask, SamplingConfig(*rates))
    assert samples.dtype == np.float64 and np.array_equal(samples, expected)
    plan = {(float(np.round(x, 6)), float(np.round(y, 6))) for x, y in samples[:, :2].tolist()}
    assert len(plan) == len(samples)
    if dropped is not None:
        assert dropped in dropped_nodes
    if kept is not None:
        assert {kept, (2.5, 0.0)} <= set(map(tuple, samples[:, :2].tolist()))


@pytest.mark.parametrize("rates", [(1.0, math.inf), (math.inf, math.inf)])
def test_infinite_sampling_rates_are_rejected(rates):
    # 0 < road_rate <= terrain_rate holds for them, but a lattice of
    # infinite spacing has no size
    with pytest.raises(ValueError, match="must be finite, got inf"):
        SamplingConfig(*rates)


def test_a_lattice_too_large_for_memory_fails_before_its_bases(monkeypatch):
    # 5,000,001 nodes a side make a 182 TiB height grid, beyond the address
    # space of a process, while each dense basis of 4 control points would
    # take 160 MB; the height grid must fail first
    def no_basis(*args):
        raise AssertionError("a basis was built before the height grid")

    monkeypatch.setattr(nurbsmod, "grid_basis", no_basis)
    surface = NurbsSurface((0.0, 5e5, 0.0, 5e5), 3, np.zeros((4, 4)))
    mask = Mask(width=2, height=2, cell_size=5e5, origin_x=0.0, origin_y=0.0,
                bits=np.ones((2, 2), dtype=np.uint8))
    with pytest.raises(MemoryError):
        dynamic_sample(surface, mask, SamplingConfig(0.1, 0.1))


def sort_per_round_flips(p, tri):
    """The flip loop before its twins were kept: every round pairs all 3T
    half-edges again by a stable argsort of their edge keys, numbers the
    interior edges by their place in that order, and masks and claims over
    all T triangles."""
    n = len(p)
    changed = np.ones(len(tri), dtype=bool)
    for _ in range(n + 1):
        # half-edge 3 t + k runs u -> v in triangle t, opposite w
        u = tri.ravel()
        v = tri[:, [1, 2, 0]].ravel()
        w = tri[:, [2, 0, 1]].ravel()
        key = np.minimum(u, v) * n + np.maximum(u, v)
        order = np.argsort(key, kind="stable")
        twin = np.flatnonzero(key[order[1:]] == key[order[:-1]])
        h1, h2 = order[twin], order[twin + 1]
        edge = np.flatnonzero(changed[h1 // 3] | changed[h2 // 3])
        h1, h2 = h1[edge], h2[edge]
        a, b, c, d = u[h1], v[h1], w[h1], w[h2]
        det, permanent = _incircle(p[:, 0], p[:, 1], a, b, c, d)
        illegal = np.flatnonzero(det > _TOL * permanent)
        if len(illegal) == 0:
            return tri
        edge = edge[illegal]
        t1, t2 = h1[illegal] // 3, h2[illegal] // 3
        claim = np.full(len(tri), len(twin))
        np.minimum.at(claim, t1, edge)
        np.minimum.at(claim, t2, edge)
        go = (claim[t1] == edge) & (claim[t2] == edge)
        changed[:] = False
        changed[t1] = changed[t2] = True
        a, b, c, d = (x[illegal[go]] for x in (a, b, c, d))
        t1, t2 = t1[go], t2[go]
        tri[t1] = np.column_stack([a, d, c])
        tri[t2] = np.column_stack([d, b, c])
    raise RuntimeError(f"delaunay: edges still illegal after {n + 1} flip rounds")


def pipeline_scene(seed):
    """The start surface and filtered mask of a `run` reference tile (101 x
    101 cells at 1 m) at a seed.  Sample plan positions depend on the mask
    and the surface extent only, so the unfitted start surface serves."""
    scene = generate(SceneSpec(cell_size=1.0, vehicles=6, trees=8, facades=2,
                               corrupt_mask=True, jitter_sigma=0.02, seed=seed))
    _, mask_plus = run_filter(scene.dsm.subset(scene.mask.bits == 1), FilterParams())
    return initialize_surface(scene.dsm, scene.dtm, mask_plus), mask_plus


def pipeline_samples():
    """Plan positions of the pipeline's samples at the rate pairs 1/10,
    0.5/5, 0.4/4 and 2.5/10 on the reference tile's scene at seeds 1 and 2."""
    sets = []
    for seed in (1, 2):
        surface, mask_plus = pipeline_scene(seed)
        for rates in ((1.0, 10.0), (0.5, 5.0), (0.4, 4.0), (2.5, 10.0)):
            sets.append(dynamic_sample(surface, mask_plus, SamplingConfig(*rates))[:, :2])
    return sets


def line_under_parabola(count):
    """count points on a line below count on a parabola.  The strip start is
    far from Delaunay: the flips take about one round per column, and quads
    side by side flip in the same round."""
    x = np.linspace(0.0, 1.0, count)
    return np.concatenate([np.column_stack([x, np.zeros(count)]),
                           np.column_stack([x, 1.0 + (x - 0.5) ** 2])])


FLIP_SETS = {
    "pipeline": pipeline_samples,
    "random": random_sets,
    "edge-sets": lambda: list(EDGE_SETS.values()),
    "cocircular-lattice": lambda: [COCIRCULAR_LATTICE],
    "line-under-parabola": lambda: [line_under_parabola(300)],
}


@pytest.mark.parametrize("kind", FLIP_SETS)
def test_flips_equal_the_sort_per_round_loop(kind):
    for points in FLIP_SETS[kind]():
        # sorted by (x, y) and centred, as delaunay hands them over
        p = points[np.lexsort((points[:, 1], points[:, 0]))]
        p = p - (p.min(axis=0) + p.max(axis=0)) / 2.0
        start = _strip_start(p)
        # the start sets each vertex order without an orientation test
        assert (orientation(p, start) > 0).all()
        assert np.array_equal(_flip_to_delaunay(p, start.copy()),
                              sort_per_round_flips(p, start.copy()))


def sinuous_road(rates):
    """dynamic_sample's arguments: a random surface over a 100 x 80 m tile, a
    sinuous band of road cells 12 m wide, and the rates."""
    surface = NurbsSurface((0.0, 100.0, 0.0, 80.0), 3,
                           np.random.default_rng(4).normal(0.0, 1.0, (12, 10)))
    jj, ii = np.mgrid[0:81, 0:101]
    bits = (np.abs(jj - 40.0 - 15.0 * np.sin(ii / 10.0)) < 6.0).astype(np.uint8)
    mask = Mask(width=101, height=81, cell_size=1.0, origin_x=0.0, origin_y=0.0, bits=bits)
    return surface, mask, SamplingConfig(*rates)


BLOCK_SETS = {
    "random": lambda: [*random_sets()[:6], np.random.default_rng(9).uniform(0.0, 100.0, (600, 2))],
    "lattice": lambda: [COCIRCULAR_LATTICE, lattice_points(40, 30, step=0.5)],
    "dual-rate": lambda: [dynamic_sample(*sinuous_road((1.0, 5.0)))[:, :2]],
    "line-under-parabola": lambda: [line_under_parabola(60)],
    # no interior edge; one interior edge
    "three-points": lambda: [np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])],
    "convex-quad": lambda: [np.array([[0.0, 0.0], [2.0, -1.0], [3.0, 1.0], [1.0, 2.0]])],
}


@pytest.mark.parametrize("kind", BLOCK_SETS)
def test_flips_do_not_depend_on_the_edge_block(kind, monkeypatch):
    for points in BLOCK_SETS[kind]():
        expected = delaunay(points)
        for block in (1, 7, 64):
            monkeypatch.setattr(meshmod, "_EDGE_BLOCK", block)
            assert np.array_equal(delaunay(points), expected)
            monkeypatch.undo()


def traced_peak(call, *args):
    """The tracemalloc peak of one call, in bytes."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_meshing_memory_grows_with_what_it_keeps():
    # a Delaunay that tested every edge of its first round at once peaked at
    # about 730 bytes per sample, and sampling over full-lattice coordinate
    # grids at about 350; the blocked flips peak near 290 and sampling near
    # 115, and the bounds leave room for allocator and numpy differences.
    # A flip loop keeping three int64 tables per half-edge peaked at 406
    # bytes per sample on the sinuous set but at 483 on the reference tile's
    # 0.5/5 samples, where the fixed per-block arrays weigh more per sample
    args = sinuous_road((0.25, 2.5))
    samples = dynamic_sample(*args)
    assert len(samples) > 15_000
    assert traced_peak(dynamic_sample, *args) < 200 * len(samples)
    bench_set = dynamic_sample(*pipeline_scene(1), SamplingConfig(0.5, 5.0))
    for plan in (samples[:, :2], bench_set[:, :2]):
        assert traced_peak(delaunay, plan) < 350 * len(plan)


def reference_obj(mesh, attr):
    """OBJ text of export_mesh, formatted one numpy element at a time."""
    lines = []
    if attr is not None:
        finite = np.isfinite(attr)
        lo = float(attr[finite].min()) if finite.any() else 0.0
        hi = float(attr[finite].max()) if finite.any() else 0.0
        span = hi - lo
        t = np.zeros_like(attr) if span == 0 else np.clip((attr - lo) / span, 0.0, 1.0)
        t = np.where(np.isfinite(attr), t, 0.0)
    for k, (x, y, z) in enumerate(mesh.vertices):
        if attr is None:
            lines.append(f"v {float(x)!r} {float(y)!r} {float(z)!r}")
        else:
            r = t[k]
            lines.append(f"v {float(x)!r} {float(y)!r} {float(z)!r} "
                         f"{r:.6f} 0.100000 {1.0 - r:.6f}")
    for a, b, c in mesh.triangles:
        lines.append(f"f {a + 1} {b + 1} {c + 1}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("attr", ["none", "random", "nan", "constant", "all_nan"])
@pytest.mark.parametrize("origin", [(0.0, 0.0), (512345.678, 5412345.25)])
def test_export_matches_the_elementwise_formatter(attr, origin):
    rng = np.random.default_rng(21)
    xy = lattice_points(6, 5, step=0.7, x0=origin[0], y0=origin[1])
    xy = xy + rng.uniform(-0.05, 0.05, xy.shape)
    z = rng.normal(250.0, 30.0, len(xy))
    z[:3] = [-0.0, 1e-7, 1e16]
    if origin == (0.0, 0.0):
        xy[0] = [-0.0, 1e-7]
    values = {"none": None, "random": rng.normal(0.0, 0.2, len(xy)),
              "constant": np.full(len(xy), 0.3), "all_nan": np.full(len(xy), np.nan)}
    values["nan"] = np.where(np.arange(len(xy)) % 4 == 1, np.nan, values["random"])
    values["nan"][0] = -0.0
    mesh = TinMesh(np.column_stack([xy, z]), delaunay(xy))
    assert "\n".join(export_mesh(mesh, values[attr])) + "\n" == reference_obj(mesh, values[attr])


def test_load_mesh_skips_blank_lines(tmp_path):
    path = tmp_path / "mesh.obj"
    path.write_text("v 0.0 0.0 1.0\n\nv 1.0 0.0 2.0\n  \nv 0.0 1.0 3.5\n\nf 1 2 3\n")
    mesh = load_mesh(path)
    assert mesh.vertices.tolist() == [[0.0, 0.0, 1.0], [1.0, 0.0, 2.0], [0.0, 1.0, 3.5]]
    assert mesh.triangles.tolist() == [[0, 1, 2]]


def test_fit_plane_recovers_the_sampled_plane():
    rng = np.random.default_rng(23)
    jj, ii = np.mgrid[:12, :15]
    values = 0.03 * (100.0 + 0.5 * ii) - 0.07 * (250.0 + 0.5 * jj) + 412.5
    values[rng.random(values.shape) < 0.3] = np.nan
    points = Raster(width=15, height=12, cell_size=0.5, origin_x=100.0, origin_y=250.0,
                    values=values)
    coeffs = fit_plane(points)
    assert all(type(c) is float for c in coeffs)
    np.testing.assert_allclose(coeffs, (0.03, -0.07, 412.5), rtol=1e-9)
    x0, x1, y0, y1 = points.center_extent
    corners = plane_mesh(coeffs, (x0, x1), (y0, y1)).vertices
    a, b, c = coeffs
    assert corners[:, 2].tolist() == [a * x + b * y + c for x, y in corners[:, :2].tolist()]


def test_fit_plane_rejects_points_collinear_in_plan():
    values = np.full((4, 6), np.nan)
    values[2] = np.arange(6.0)
    points = Raster(width=6, height=4, cell_size=1.0, origin_x=0.0, origin_y=0.0, values=values)
    with pytest.raises(ValueError, match="rank deficient"):
        fit_plane(points)
