"""Mesh accuracy and smoothness measurements.

Accuracy is the mean unsigned Euclidean distance from ground-truth points to
the mesh, using exact closest-point-on-triangle queries (Ericson, Real-Time
Collision Detection, 5.1.5) accelerated by a plan-view bin grid.  The bins
are CSR arrays, triangle ids sorted by bin and a start offset per bin.  Bin
centres, not bin edges, lie on the lattice that starts at the smallest
vertex coordinates: ground truth comes from raster cells, and a regular-grid
mesh has its vertices on them, so such a point sits mid-bin rather than on a
bin corner, where three bins of its first ring touch it and must be opened.
The search runs over all points at once, ring by ring of bins around each
point's home bin, in passes of bounded size.  The home bin is searched in
two steps, locate and then bound: the triangles that contain a point in
plan, of either winding and however many overlap there, are scored first,
and their best is an upper bound on its distance; each other triangle there
is scored only if its plan half-plane bound, which no distance to it
undercuts, does not exceed that best by more than a rounding margin.  Later
rings expand only the (point, triangle) pairs that could still beat a
point's best.  Pairs go through the closest-point routine together (the
rules are in point_mesh_distances).  A pruned pair cannot beat the best, a
pair's float operations do not depend on its batch, and the minimum is
exact, so distances do not depend on batching, pruning, the order pairs are
scored in or where bin edges lie.
Smoothness is the mean angle between the normals of edge-adjacent
triangles, per class: each triangle is classified once, by the mask cell
nearest its plan-view centroid, and each class averages the pairs of one
edge-adjacency table whose two triangles are of that class (0 without any).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Mask, Raster, blocks, runs
from .mesh import TinMesh, edge_pairs

# (point, triangle) pairs per closest-point batch, and home-bin pairs per
# locate pass.  The passes bound the search's working memory: a locate pass
# holds each pair that waits for its plan bound, 16 bytes with the bound,
# until the pass is located, and each pass closes only its own points.  What
# grows with the point count is 21 bytes of state a point, so one search of
# the 63,001 points of a 251 x 251 tile peaks at 3.3 MB of tracemalloc on a
# NURBS TIN of 3,585 triangles.
_PAIR_CHUNK = 4096
_HELD_PAIRS = 4 * _PAIR_CHUNK
# the rounding margin of the plan bound, a share of the largest coordinate
# magnitude of mesh and points
_MARGIN = 1e-12


@dataclass
class MetricReport:
    l2_road: float
    l2_terrain: float
    mad_road: float
    mad_terrain: float
    triangles: int
    road_coverage: float
    terrain_coverage: float


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot products over axis 0, summed x, then y, then z, as ``sum`` does."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _closest_point_batch(p: np.ndarray, tri: np.ndarray) -> np.ndarray:
    """Closest points to p on each triangle of a (K, 3, 3) batch.

    The work runs on contiguous (3, K) coordinate rows; a region test that
    holds takes precedence over every later one."""
    a, b, c = np.ascontiguousarray(tri.transpose(1, 2, 0))
    p = np.ascontiguousarray(np.broadcast_to(p, (len(tri), 3)).T)
    ab = b - a
    ac = c - a
    ap = p - a
    d1, d2 = _dot(ab, ap), _dot(ac, ap)
    bp = p - b
    d3, d4 = _dot(ab, bp), _dot(ac, bp)
    cp = p - c
    d5, d6 = _dot(ab, cp), _dot(ac, cp)
    va = d3 * d6 - d5 * d4
    vb = d5 * d2 - d1 * d6
    vc = d1 * d4 - d3 * d2
    with np.errstate(divide="ignore", invalid="ignore"):
        t_ab = np.where(d1 - d3 != 0, d1 / (d1 - d3), 0.0)
        t_ac = np.where(d2 - d6 != 0, d2 / (d2 - d6), 0.0)
        den_bc = (d4 - d3) + (d5 - d6)
        t_bc = np.where(den_bc != 0, (d4 - d3) / den_bc, 0.0)
        s = va + vb + vc
        s = np.where(s != 0, s, 1.0)
        out = a + (vb / s) * ab + (vc / s) * ac                     # interior
        regions = (
            ((d1 <= 0) & (d2 <= 0), a),                              # vertex a
            ((d3 >= 0) & (d4 <= d3), b),                             # vertex b
            ((vc <= 0) & (d1 >= 0) & (d3 <= 0), a + t_ab * ab),
            ((d6 >= 0) & (d5 <= d6), c),                             # vertex c
            ((vb <= 0) & (d2 >= 0) & (d6 <= 0), a + t_ac * ac),
            ((va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0), b + t_bc * (c - b)),
        )
    for mask, value in regions[::-1]:
        np.copyto(out, value, where=mask)
    return out.T


class _Bins:
    """Plan-view bins over triangle bounding boxes, as CSR arrays: bin
    ``bi * nb[1] + bj`` holds triangles ``members[starts[b]:starts[b + 1]]``,
    in ascending id order.  Triangle t goes into every bin its plan bounding
    box ``box[t]`` (x min, y min, x max, y max) touches: bins (i, j) from
    ``first[t]`` to ``last[t]``, both included.  The grid starts half a bin
    below the smallest vertex coordinates, so the vertices of a lattice with
    the bin spacing lie at bin centres; where edges lie does not change the
    distances, only how many bins a search opens."""

    def __init__(self, mesh: TinMesh):
        """Bins for the triangles of mesh."""
        # take, unlike indexing by the transposed view, returns C-ordered (3, T)
        # rows, a row per vertex, which reduce over axis 0 about 40 times faster
        x, y = (mesh.vertices[:, i].take(mesh.triangles.T) for i in (0, 1))
        lo = np.array([x.min(), y.min()])
        hi = np.array([x.max(), y.max()])
        span = max(hi[0] - lo[0], hi[1] - lo[1], 1e-9)
        cell = span / max(1.0, np.sqrt(x.shape[1] / 2.0))
        lo = lo - cell / 2
        nb = (np.maximum(1, np.ceil((hi - lo) / cell))).astype(int)
        self.lo, self.cell, self.nb = lo, cell, nb
        self.box = np.column_stack([x.min(0), y.min(0), x.max(0), y.max(0)])
        del x, y  # the corners are not held while the bins are filled
        self.first, self.last = (np.clip(np.floor((self.box[:, k:k + 2] - lo) / cell), 0,
                                         nb - 1).astype(np.int32) for k in (0, 2))
        size = self.last - self.first + 1
        per_tri = size[:, 0] * size[:, 1]
        ids = np.repeat(np.arange(len(per_tri), dtype=np.int32), per_tri)
        step_i, step_j = np.divmod(runs(per_tri), size[ids, 1])
        nbj = int(nb[1])  # a Python int keeps the products in int32
        bins = (self.first[:, 0] * nbj + self.first[:, 1])[ids] + step_i * nbj + step_j
        del step_i, step_j
        counts = np.bincount(bins, minlength=nb[0] * nbj)
        self.starts = np.zeros(len(counts) + 1, dtype=np.int32)
        np.cumsum(counts, out=self.starts[1:])
        bins = bins.astype(np.min_scalar_type(len(counts) - 1))  # fewest unsigned bits: radix sort
        self.members = ids[np.argsort(bins, kind="stable")]


def _ring(k: int) -> np.ndarray:
    """(di, dj) bin offsets of the square ring at Chebyshev distance k."""
    d = np.arange(-k, k + 1, dtype=np.int32)
    di, dj = (g.ravel() for g in np.meshgrid(d, d, indexing="ij"))
    edge = np.maximum(abs(di), abs(dj)) == k
    return np.column_stack([di[edge], dj[edge]])


def _locate(p: np.ndarray, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Plan containment of each point p[m] in triangle batch[m], of either
    winding, and a lower bound on their distance: the largest distance of
    p[m] outside one of the triangle's edge lines, 0 for zero plan area.

    Edge u -> v scores t = (p - u) x (v - u), negated on a clockwise
    triangle, so that p lies t / |v - u| outside the edge's line where t > 0.
    Containment allows t up to 1e-9 times the larger squared plan length of
    edges ab and ac."""
    px, py = p[:, 0], p[:, 1]
    ax, ay, bx, by, cx, cy = (batch[:, i, j] for i in range(3) for j in range(2))
    abx, aby, bcx, bcy, cax, cay = bx - ax, by - ay, cx - bx, cy - by, ax - cx, ay - cy
    # (b - a) x (c - a), twice the signed plan area, is left - right
    left, right = aby * cax, abx * cay
    sign = np.where(left < right, 1.0, -1.0)
    t1 = sign * (abx * (py - ay) - aby * (px - ax))
    t2 = sign * (bcx * (py - by) - bcy * (px - bx))
    t3 = sign * (cax * (py - cy) - cay * (px - cx))
    l1, l2, l3 = abx ** 2 + aby ** 2, bcx ** 2 + bcy ** 2, cax ** 2 + cay ** 2
    eps = 1e-9 * np.maximum(l1, l3)
    inside = (t1 <= eps) & (t2 <= eps) & (t3 <= eps)
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = np.maximum(np.maximum(t1 / np.sqrt(l1), t2 / np.sqrt(l2)), t3 / np.sqrt(l3))
    bound[left == right] = 0.0  # zero area, a repeated vertex included: no inside to bound
    return inside, bound


def _box_distance(xy: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Plan distance from each point xy[m] to the closed box [lo[m], hi[m]]."""
    gap = np.maximum(np.maximum(lo - xy, xy - hi), 0.0)
    return np.hypot(gap[:, 0], gap[:, 1])


def _corners(mesh: TinMesh, ids: np.ndarray) -> np.ndarray:
    """(K, 3, 3) vertex coordinates of triangles ids."""
    return mesh.vertices.take(mesh.triangles.take(ids, 0), 0)


def _score(best: np.ndarray, owner: np.ndarray, p: np.ndarray, batch: np.ndarray) -> None:
    """Lowers best[owner[m]] to the distance from point p[m] to triangle batch[m]."""
    gap = (_closest_point_batch(p, batch) - p).T
    np.minimum.at(best, owner, np.sqrt(_dot(gap, gap)))


def _pairs(bins: _Bins, b: np.ndarray):
    """The (row, triangle id) pairs of bins b, ``_PAIR_CHUNK`` at a time:
    the triangles of bin b[w] pair with row w."""
    count = bins.starts[b + 1] - bins.starts[b]
    ends = np.cumsum(count)
    skip = bins.starts[b] - (ends - count)
    total = int(ends[-1]) if len(ends) else 0
    for q in range(0, total, _PAIR_CHUNK):
        pair = np.arange(q, min(q + _PAIR_CHUNK, total))
        w = np.searchsorted(ends, pair, side="right")
        yield w, bins.members[skip[w] + pair]


def point_mesh_distances(mesh: TinMesh, points_xyz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distance from each point to the mesh and whether its plan position
    falls inside some triangle's plan footprint, of either winding.

    All points are searched together, ring by ring, in passes of bounded
    size.  Ring k of a bin is the square of bins at Chebyshev distance k.
    Ring 0, the home bin, holds every triangle whose plan footprint contains
    the point, and is searched in two steps.  (1) Locate: each pair of the
    home bin is tested for plan containment by ``_locate``, the triangle's
    three edge functions, with their sign turned for a clockwise triangle,
    all on the inner side within a tolerance.  The containing pairs decide
    coverage and go through ``_closest_point_batch`` first; their best is an
    upper bound on the point's distance.  (2) Bound: each other pair's plan
    bound is the largest distance of the point outside one of the triangle's
    edge lines (0 for a triangle of zero plan area, which has no inner
    side).  The triangle lies on the inner side of each line and no distance
    is shorter than its plan part, so the bound is a lower bound on the
    pair's distance; a pair whose bound exceeds the best by more than the
    margin cannot win and is dropped, and the rest go through the routine.
    The margin is ``_MARGIN`` times the largest coordinate magnitude of mesh
    and points: the routine works in absolute coordinates, so a distance it
    returns can fall short of the exact one by a few ulps of the
    coordinates (about 1e-10 at 5e5), while the bound, taken from
    coordinate differences, errs by a few ulps of the distances; the margin
    exceeds both, so no dropped pair's computed distance is below the best.
    Both steps hold for any winding and for meshes that overlap in plan:
    every containing triangle goes first, and each bound belongs to its own
    pair.  The pairs waiting for their bound are held until their pass is
    located, so a ring-0 pass holds at most ``_HELD_PAIRS`` pairs, or the
    pairs of one point alone above it.

    Ring k >= 1 of each point whose search is open expands into pairs, which
    go through ``_closest_point_batch`` together and are reduced with
    ``np.minimum.at``.  Only pairs that could lower the best distance the
    ring started with expand: (3) window: ring bins whose plan box lies
    farther than the best are skipped; (4) nearest bin: a triangle expands
    only in its bin nearest the home bin, the home index clamped into the
    triangle's bin range, so it meets a point once; (5) bounding box: a pair
    whose triangle's plan box lies farther than the best is dropped; (6)
    pass size: a pass takes ``_PAIR_CHUNK // len(ring)`` points, and a
    cumsum of its surviving bins' pair counts cuts batches of at most
    ``_PAIR_CHUNK`` pairs.  A triangle lies no nearer than its plan box,
    which lies in the closed boxes of its bins (floor rounding is
    monotone), the clamped one nearest; so a pruned pair cannot beat the
    best, and a tie keeps the pair.  After each pass, each of its points
    closes once its best is no more than its plan distance to the bins
    still unexplored, the part of the bin grid outside the explored rings,
    since no triangle lies anywhere else; a side whose rings have passed the
    grid edge bounds nothing, so a point beside the mesh is not held open by
    the empty plane on its own side.  A pass holds every pair of one point,
    so its points' bests are final when it closes them.  The minimum is
    exact, so the order pairs are scored in does not matter, and the
    distances equal, bit for bit, the minimum of ``_closest_point_batch``
    over every triangle, whatever the pass and batch sizes.  Passes bound
    the working memory; what grows with the point count is the points' home
    bins, bests, coverage and open ids, 21 bytes a point.
    """
    if len(mesh.triangles) == 0:
        raise ValueError("mesh has no triangles")
    pts = np.asarray(points_xyz, dtype=float).reshape(-1, 3)
    bins = _Bins(mesh)
    margin = _MARGIN * max(np.abs(mesh.vertices).max(), np.abs(pts).max(initial=0.0))
    lo, cell, nb = bins.lo, bins.cell, bins.nb
    nbj = int(nb[1])  # a Python int keeps bin ids in int32
    home = np.clip(np.floor((pts[:, :2] - lo) / cell), 0, nb - 1).astype(np.int32)
    best = np.full(len(pts), np.inf)
    covered = np.zeros(len(pts), dtype=bool)
    if not len(pts):
        return best, covered
    # a ring-0 pass holds at most _HELD_PAIRS pairs, or one point's above
    # it; listing the bounds frees the per-point counts before the search
    cuts = list(blocks(np.diff(bins.starts).take(home[:, 0] * nbj + home[:, 1]), _HELD_PAIRS))
    passes = (np.arange(a, b, dtype=np.int32) for a, b in cuts)
    # ring max(nb) - 1 reaches every bin from any home bin
    for k in range(int(max(nb))):
        ring = _ring(k)
        if k:
            step = max(1, _PAIR_CHUNK // len(ring))
            passes = (open_[s:s + step] for s in range(0, len(open_), step))
        still = []
        for sel in passes:
            if not k:
                # locate: the triangles that contain their point in plan are
                # scored first; the others wait with their plan bounds
                held = []
                for w, ids in _pairs(bins, home[sel, 0] * nbj + home[sel, 1]):
                    o = sel.take(w)
                    p, batch = pts.take(o, 0), _corners(mesh, ids)
                    contains, bound = _locate(p, batch)
                    hit, miss = np.flatnonzero(contains), np.flatnonzero(~contains)
                    held.append((ids.take(miss), o.take(miss), bound.take(miss)))
                    covered[o.take(hit)] = True
                    if len(hit):
                        # rebinding frees the whole chunk's rows before the routine runs
                        p, batch = p.take(hit, 0), batch.take(hit, 0)
                        _score(best, o.take(hit), p, batch)
                if held:
                    # bound: a triangle lies at least its plan bound away, so
                    # one whose bound exceeds the best by more than the margin
                    # cannot win
                    ids, o, bound = (np.concatenate(part) for part in zip(*held))
                    keep = np.flatnonzero(~(bound > best.take(o) + margin))
                    ids, o = ids.take(keep), o.take(keep)
                    for q in range(0, len(ids), _PAIR_CHUNK):
                        o_q = o[q:q + _PAIR_CHUNK]
                        _score(best, o_q, pts.take(o_q, 0),
                               _corners(mesh, ids[q:q + _PAIR_CHUNK]))
            else:
                ij = home[sel, None] + ring
                inside = ((ij[..., 0] >= 0) & (ij[..., 0] < nb[0])
                          & (ij[..., 1] >= 0) & (ij[..., 1] < nb[1]))
                owner, ij = np.broadcast_to(sel[:, None], inside.shape)[inside], ij[inside]
                # window: a bin whose plan box lies beyond the best so far
                # holds nothing closer; limit keeps that best for the pairs
                limit = best[owner]
                keep = ~(_box_distance(pts.take(owner, 0)[:, :2], lo + ij * cell,
                                       lo + (ij + 1) * cell) > limit)
                owner, ij, limit = owner[keep], ij[keep], limit[keep]
                for w, ids in _pairs(bins, ij[:, 0] * nbj + ij[:, 1]):
                    # each triangle once, in its bin nearest the home bin,
                    # and only if its plan box lies within the best so far
                    o = owner[w]
                    nearest = np.maximum(bins.first.take(ids, 0),
                                         np.minimum(home.take(o, 0), bins.last.take(ids, 0)))
                    bin_ij = ij.take(w, 0)
                    keep = (nearest[:, 0] == bin_ij[:, 0]) & (nearest[:, 1] == bin_ij[:, 1])
                    ids, o, w = ids[keep], o[keep], w[keep]
                    box = bins.box.take(ids, 0)
                    xy = pts.take(o, 0)[:, :2]
                    keep = ~(_box_distance(xy, box[:, :2], box[:, 2:]) > limit[w])
                    ids, o = ids[keep], o[keep]
                    if len(ids):
                        _score(best, o, pts.take(o, 0), _corners(mesh, ids))
            # close: the unexplored bins are the grid box outside the explored
            # rectangle, one band beyond each side the rings have not pushed
            # past the grid: (band exists, gap from the point to the side,
            # offset along the side)
            px, py = pts[sel, 0], pts[sel, 1]
            i, j = home[sel, 0], home[sel, 1]
            off_x = np.maximum(np.maximum(lo[0] - px, px - (lo[0] + nb[0] * cell)), 0.0)
            off_y = np.maximum(np.maximum(lo[1] - py, py - (lo[1] + nb[1] * cell)), 0.0)
            bands = (
                (i - k > 0, px - (lo[0] + (i - k) * cell), off_y),
                (i + k < nb[0] - 1, lo[0] + (i + k + 1) * cell - px, off_y),
                (j - k > 0, py - (lo[1] + (j - k) * cell), off_x),
                (j + k < nb[1] - 1, lo[1] + (j + k + 1) * cell - py, off_x),
            )
            bound = np.minimum.reduce([np.where(exists, np.hypot(np.maximum(gap, 0.0), offset),
                                                np.inf) for exists, gap, offset in bands])
            still.append(sel[~(best[sel] <= bound)])
        open_ = np.concatenate(still)
        if not len(open_):
            break
    return best, covered


def _smoothness(mesh: TinMesh, mask_plus: Mask) -> tuple[float, float]:
    """Mean normal angle, in degrees, over the edge-adjacent pairs of road
    triangles and over those of terrain triangles; a class without pairs
    scores 0.  A triangle's class is the bit of the mask cell nearest its
    plan centroid.

    The pairs of one class keep their order in the table of all pairs, which
    is their order in the table of that class's triangles alone."""
    # (3, T) rows of each coordinate, a row per corner
    x, y, z = (mesh.vertices[:, i].take(mesh.triangles.T) for i in range(3))
    on_road = mask_plus.contains((x[0] + x[1] + x[2]) / 3, (y[0] + y[1] + y[2]) / 3)
    # edges v1 - v0 and v2 - v0 and their cross product, a row per coordinate,
    # in the products and order of np.cross
    u, w = ([c[k] - c[0] for c in (x, y, z)] for k in (1, 2))
    del x, y, z
    normals = np.array([u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2],
                        u[0] * w[1] - u[1] * w[0]])
    del u, w  # not held while the pair table is built
    pairs = edge_pairs(mesh.triangles) // 3
    first, second = np.ascontiguousarray(pairs[on_road[pairs[:, 0]] == on_road[pairs[:, 1]]].T)
    del pairs
    if len(first) == 0:
        return 0.0, 0.0
    norms = np.sqrt(_dot(normals, normals))
    if (norms == 0).any():
        raise ValueError("mesh contains degenerate triangles")
    normals /= norms
    # _dot's sum, one coordinate's gathers at a time
    dots = normals[0].take(first) * normals[0].take(second)
    for k in (1, 2):
        dots += normals[k].take(first) * normals[k].take(second)
    angles = np.degrees(np.arccos(np.clip(np.abs(dots), 0.0, 1.0)))
    road = on_road[first]
    return tuple(float(a.mean()) if len(a) else 0.0 for a in (angles[road], angles[~road]))


def evaluate_all(mesh: TinMesh, gt_road: Raster, gt_terrain: Raster,
                 mask_plus: Mask) -> MetricReport:
    """Accuracy against both ground-truth sets plus per-class smoothness.

    Distances are measured against the full mesh, smoothness on one
    classification and one pair table (a class without pairs scores 0).
    Coverage fields report the fraction of ground-truth points over the
    triangulated region; a class with none raises ValueError.  So does a
    non-finite score, such as the overflow of distances to points near the
    float limit; it is refused, not warned about.
    """
    road_xyz = gt_road.xyz()
    terrain_xyz = gt_terrain.xyz()
    if len(road_xyz) == 0 or len(terrain_xyz) == 0:
        raise ValueError("ground truth must be non-empty for both classes")
    with np.errstate(over="ignore", invalid="ignore"):
        # one search over both sets builds the bins once; distances do not
        # depend on how points are batched
        dist, inside = point_mesh_distances(mesh, np.concatenate([road_xyz, terrain_xyz]))
        n = len(road_xyz)
        d_road, d_terr, c_road, c_terr = dist[:n], dist[n:], inside[:n], inside[n:]
        for name, covered in (("road", c_road), ("terrain", c_terr)):
            if not covered.any():
                raise ValueError(f"no {name} ground-truth point lies over the mesh")
        mad_road, mad_terrain = _smoothness(mesh, mask_plus)
        report = MetricReport(
            l2_road=float(d_road[c_road].mean()),
            l2_terrain=float(d_terr[c_terr].mean()),
            mad_road=mad_road,
            mad_terrain=mad_terrain,
            triangles=len(mesh.triangles),
            road_coverage=float(c_road.mean()),
            terrain_coverage=float(c_terr.mean()),
        )
    for name, value in vars(report).items():
        if not np.isfinite(value):
            raise ValueError(f"non-finite score {name}={value}")
    return report


def vertex_errors(mesh: TinMesh, gt_road: Raster, gt_terrain: Raster,
                  mask_plus: Mask) -> np.ndarray:
    """Per-vertex |z - ground truth| for mesh coloring.

    Each vertex is classified by its nearest mask cell and compared against
    a NaN-aware bilinear sample of the matching ground-truth layer; vertices
    with no finite support get error 0.
    """
    x, y, z = mesh.vertices.T
    on_road = mask_plus.contains(x, y)
    errors = np.zeros(len(x))
    for layer, sel in ((gt_road, on_road), (gt_terrain, ~on_road)):
        if not np.any(sel):
            continue
        ref = _bilinear(layer, x[sel], y[sel])
        diff = np.abs(z[sel] - ref)
        errors[sel] = np.where(np.isfinite(diff), diff, 0.0)
    return errors


def _bilinear(layer: Raster, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    fx = np.clip((x - layer.origin_x) / layer.cell_size, 0, layer.width - 1)
    fy = np.clip((y - layer.origin_y) / layer.cell_size, 0, layer.height - 1)
    i0 = np.clip(np.floor(fx).astype(int), 0, layer.width - 2)
    j0 = np.clip(np.floor(fy).astype(int), 0, layer.height - 2)
    tx = fx - i0
    ty = fy - j0
    corners = ((layer.values[j0, i0], (1 - tx) * (1 - ty)),
               (layer.values[j0, i0 + 1], tx * (1 - ty)),
               (layer.values[j0 + 1, i0], (1 - tx) * ty),
               (layer.values[j0 + 1, i0 + 1], tx * ty))
    num = np.zeros_like(fx)
    den = np.zeros_like(fx)
    for zc, w in corners:
        good = np.isfinite(zc)
        num += np.where(good, w * zc, 0.0)
        den += np.where(good, w, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        return num / den
