"""Mesh accuracy and smoothness measurements.

Accuracy is the mean unsigned Euclidean distance from ground-truth points to
the mesh, using exact closest-point-on-triangle queries (Ericson, Real-Time
Collision Detection, 5.1.5) accelerated by a plan-view bin grid.  The bins
are CSR arrays, triangle ids sorted by bin and a start offset per bin, and
the search runs over whole blocks of points: every point whose search is
still open expands its next ring of bins into (point, triangle) pairs, and
all pairs go through the closest-point routine together.  Each point meets
the same triangles through the same float operations as it would alone, and
the minimum is exact, so distances do not depend on how points are batched.
Smoothness is the mean angular difference between normals of edge-adjacent
triangle pairs.  Both can be split by a road mask using the plan-view
centroid of each triangle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Mask, Raster
from .mesh import TinMesh

# points searched together, and (point, triangle) pairs per closest-point batch
_POINT_BLOCK = 2048
_PAIR_CHUNK = 4096


@dataclass
class MetricReport:
    l2_road: float
    l2_terrain: float
    mad_road: float
    mad_terrain: float
    triangle_count: int
    road_coverage: float = 1.0
    terrain_coverage: float = 1.0


def _closest_point_batch(p: np.ndarray, tri: np.ndarray) -> np.ndarray:
    """Closest points to p on each triangle of a (K, 3, 3) batch."""
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = (ab * ap).sum(1)
    d2 = (ac * ap).sum(1)
    bp = p - b
    d3 = (ab * bp).sum(1)
    d4 = (ac * bp).sum(1)
    cp = p - c
    d5 = (ab * cp).sum(1)
    d6 = (ac * cp).sum(1)
    va = d3 * d6 - d5 * d4
    vb = d5 * d2 - d1 * d6
    vc = d1 * d4 - d3 * d2

    out = np.empty_like(a)
    done = np.zeros(len(tri), dtype=bool)

    def assign(mask: np.ndarray, value: np.ndarray) -> None:
        take = mask & ~done
        if take.any():
            out[take] = value[take]
            done[take] = True

    assign((d1 <= 0) & (d2 <= 0), a)                          # vertex a
    assign((d3 >= 0) & (d4 <= d3), b)                         # vertex b
    with np.errstate(divide="ignore", invalid="ignore"):
        t_ab = np.where(d1 - d3 != 0, d1 / (d1 - d3), 0.0)
        assign((vc <= 0) & (d1 >= 0) & (d3 <= 0), a + t_ab[:, None] * ab)
        assign((d6 >= 0) & (d5 <= d6), c)                     # vertex c
        t_ac = np.where(d2 - d6 != 0, d2 / (d2 - d6), 0.0)
        assign((vb <= 0) & (d2 >= 0) & (d6 <= 0), a + t_ac[:, None] * ac)
        den_bc = (d4 - d3) + (d5 - d6)
        t_bc = np.where(den_bc != 0, (d4 - d3) / den_bc, 0.0)
        assign((va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0), b + t_bc[:, None] * (c - b))
        s = va + vb + vc
        s = np.where(s != 0, s, 1.0)
        q = a + (vb / s)[:, None] * ab + (vc / s)[:, None] * ac
    assign(np.ones(len(tri), dtype=bool), q)                  # interior
    return out


def _runs(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c - 1 for each count c, concatenated, in the dtype of counts."""
    ends = np.cumsum(counts, dtype=counts.dtype)
    return np.arange(counts.sum(), dtype=counts.dtype) - np.repeat(ends - counts, counts)


class _Bins:
    """Plan-view bins over triangle bounding boxes, as CSR arrays: bin
    ``bi * nb[1] + bj`` holds triangles ``members[starts[b]:starts[b + 1]]``,
    in ascending id order; ``fill`` is the largest bin's size.  Each
    triangle goes into every bin its bounding box touches."""

    def __init__(self, x: np.ndarray, y: np.ndarray):
        """Bins for the triangles with (T, 3) plan coordinates x and y."""
        lo = np.array([x.min(), y.min()])
        hi = np.array([x.max(), y.max()])
        span = max(hi[0] - lo[0], hi[1] - lo[1], 1e-9)
        cell = span / max(1.0, np.sqrt(len(x) / 2.0))
        nb = (np.maximum(1, np.ceil((hi - lo) / cell))).astype(int)
        self.lo, self.cell, self.nb = lo, cell, nb
        t_lo, size = [], []
        for axis, v in enumerate((x, y)):
            first = np.clip(np.floor((v.min(axis=1) - lo[axis]) / cell), 0, nb[axis] - 1)
            last = np.clip(np.floor((v.max(axis=1) - lo[axis]) / cell), 0, nb[axis] - 1)
            t_lo.append(first.astype(np.int32))
            size.append((last - first).astype(np.int32) + 1)
        per_tri = size[0] * size[1]
        ids = np.repeat(np.arange(len(x), dtype=np.int32), per_tri)
        step_i, step_j = np.divmod(_runs(per_tri), size[1][ids])
        nbj = int(nb[1])  # a Python int keeps the products in int32
        bins = (t_lo[0] * nbj + t_lo[1])[ids] + step_i * nbj + step_j
        del step_i, step_j
        counts = np.bincount(bins, minlength=nb[0] * nbj)
        starts = np.zeros(len(counts) + 1, dtype=np.int32)
        np.cumsum(counts, out=starts[1:])
        self.members = ids[np.argsort(bins, kind="stable")]
        self.starts, self.fill = starts, int(counts.max())


def _ring(k: int) -> np.ndarray:
    """(di, dj) bin offsets of the square ring at Chebyshev distance k."""
    d = np.arange(-k, k + 1, dtype=np.int32)
    di, dj = (g.ravel() for g in np.meshgrid(d, d, indexing="ij"))
    edge = np.maximum(abs(di), abs(dj)) == k
    return np.column_stack([di[edge], dj[edge]])


def _in_footprint(p: np.ndarray, batch: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Plan-view containment of each point p[m] in triangle batch[m], up to
    the per-triangle tolerance eps[m]."""
    px, py = p[:, 0], p[:, 1]
    a, b, c = batch[:, 0, :2], batch[:, 1, :2], batch[:, 2, :2]
    s1 = (b[:, 0] - a[:, 0]) * (py - a[:, 1]) - (b[:, 1] - a[:, 1]) * (px - a[:, 0])
    s2 = (c[:, 0] - b[:, 0]) * (py - b[:, 1]) - (c[:, 1] - b[:, 1]) * (px - b[:, 0])
    s3 = (a[:, 0] - c[:, 0]) * (py - c[:, 1]) - (a[:, 1] - c[:, 1]) * (px - c[:, 0])
    return (s1 >= -eps) & (s2 >= -eps) & (s3 >= -eps)


def _search_block(pts: np.ndarray, mesh: TinMesh, area_eps: np.ndarray, bins: _Bins,
                  best: np.ndarray, covered: np.ndarray) -> None:
    """Ring search for one block of points, writing distances into ``best``
    (all inf on entry) and ring-0 containment into ``covered``."""
    lo, cell, nb = bins.lo, bins.cell, bins.nb
    bi = np.clip(np.floor((pts[:, 0] - lo[0]) / cell), 0, nb[0] - 1).astype(np.int32)
    bj = np.clip(np.floor((pts[:, 1] - lo[1]) / cell), 0, nb[1] - 1).astype(np.int32)
    max_ring = int(max(nb))
    open_ = np.arange(len(pts), dtype=np.int32)
    k = 0
    while len(open_):
        ring = _ring(k)
        # at most _PAIR_CHUNK pairs per pass, unless one point's ring holds more
        step = max(1, _PAIR_CHUNK // (len(ring) * bins.fill))
        for s in range(0, len(open_), step):
            sel = open_[s:s + step]
            ci = bi[sel, None] + ring[:, 0]
            cj = bj[sel, None] + ring[:, 1]
            inside = (ci >= 0) & (ci < nb[0]) & (cj >= 0) & (cj < nb[1])
            b = (ci * nb[1] + cj)[inside]
            first = bins.starts[b]
            count = bins.starts[b + 1] - first
            owner = np.repeat(np.broadcast_to(sel[:, None], ci.shape)[inside], count)
            ids = bins.members[np.repeat(first, count) + _runs(count)]
            p = pts[owner]
            batch = mesh.vertices[mesh.triangles[ids]]
            dist = np.sqrt(((_closest_point_batch(p, batch) - p) ** 2).sum(1))
            np.minimum.at(best, owner, dist)
            if k == 0:
                covered[owner[_in_footprint(p, batch, area_eps[ids])]] = True
        if k > max_ring:
            return
        # everything beyond ring k sits outside the explored rectangle
        px, py = pts[open_, 0], pts[open_, 1]
        rx0 = lo[0] + (bi[open_] - k) * cell
        rx1 = lo[0] + (bi[open_] + k + 1) * cell
        ry0 = lo[1] + (bj[open_] - k) * cell
        ry1 = lo[1] + (bj[open_] + k + 1) * cell
        bound = np.minimum(np.minimum(px - rx0, rx1 - px), np.minimum(py - ry0, ry1 - py))
        open_ = open_[~(best[open_] <= np.maximum(bound, 0.0))]
        k += 1


def point_mesh_distances(mesh: TinMesh, points_xyz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distance from each point to the mesh and whether its plan position
    falls inside some triangle's plan footprint.

    Points are searched in blocks of ``_POINT_BLOCK``.  Ring k of a bin is
    the square of bins at Chebyshev distance k.  For every point of a block
    whose search is open, ring k expands into (point, triangle) pairs, at
    most ``_PAIR_CHUNK`` at a time, which go through ``_closest_point_batch``
    together and are reduced with ``np.minimum.at``; ring 0 also decides
    coverage.  A point closes once its best distance is no more than its
    plan distance to the edge of the explored rings, since no triangle
    outside them can be nearer, or once the rings cover every bin.  The
    distances therefore equal, bit for bit, the minimum of
    ``_closest_point_batch`` over every triangle, whatever the block and
    chunk sizes.
    """
    if len(mesh.triangles) == 0:
        raise ValueError("mesh has no triangles")
    pts = np.asarray(points_xyz, dtype=float).reshape(-1, 3)
    x = mesh.vertices[:, 0][mesh.triangles]
    y = mesh.vertices[:, 1][mesh.triangles]
    bins = _Bins(x, y)
    # squared-length scale per triangle for the containment tolerance
    e1 = (x[:, 1] - x[:, 0]) ** 2 + (y[:, 1] - y[:, 0]) ** 2
    e2 = (x[:, 2] - x[:, 0]) ** 2 + (y[:, 2] - y[:, 0]) ** 2
    area_eps = 1e-9 * np.maximum(e1, e2)
    del x, y, e1, e2
    dist = np.full(len(pts), np.inf)
    covered = np.zeros(len(pts), dtype=bool)
    for s in range(0, len(pts), _POINT_BLOCK):
        block = slice(s, s + _POINT_BLOCK)
        _search_block(pts[block], mesh, area_eps, bins, dist[block], covered[block])
    return dist, covered


def face_normals(mesh: TinMesh) -> np.ndarray:
    tri = mesh.vertices[mesh.triangles]
    n = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    norms = np.linalg.norm(n, axis=1)
    if (norms == 0).any():
        raise ValueError("mesh contains degenerate triangles")
    return n / norms[:, None]


def _adjacent_pairs(triangles: np.ndarray) -> np.ndarray:
    """(P, 2) face-index pairs sharing an edge (non-manifold edges pair all
    incident faces)."""
    edges = np.concatenate([triangles[:, [0, 1]], triangles[:, [1, 2]],
                            triangles[:, [2, 0]]], axis=0)
    edges = np.sort(edges, axis=1)
    faces = np.tile(np.arange(len(triangles), dtype=np.int64), 3)
    order = np.lexsort((faces, edges[:, 1], edges[:, 0]))
    edges = edges[order]
    faces = faces[order]
    # each face of a run of equal edges pairs with every later face of the run
    starts = np.flatnonzero(np.concatenate([[True], (edges[1:] != edges[:-1]).any(axis=1)]))
    run_len = np.diff(np.append(starts, len(edges)))
    later = np.repeat(starts + run_len, run_len) - np.arange(len(edges)) - 1
    left = np.repeat(np.arange(len(edges)), later)
    right = left + 1 + _runs(later)
    return np.column_stack([faces[left], faces[right]])


def _pair_angles(mesh: TinMesh, pairs: np.ndarray) -> np.ndarray:
    normals = face_normals(mesh)
    dots = np.abs((normals[pairs[:, 0]] * normals[pairs[:, 1]]).sum(1))
    return np.degrees(np.arccos(np.clip(dots, 0.0, 1.0)))


def split_mesh_by_mask(mesh: TinMesh, mask_plus: Mask) -> tuple[TinMesh, TinMesh]:
    """Partition triangles by the mask bit of the cell nearest each
    triangle's plan-view centroid.  Returns (road mesh, terrain mesh); both
    share the original vertex array."""
    centroids = mesh.vertices[mesh.triangles].mean(axis=1)
    ci, cj = mask_plus.nearest_cell(centroids[:, 0], centroids[:, 1])
    on_road = mask_plus.bits[cj, ci] == 1
    road = TinMesh(mesh.vertices, mesh.triangles[on_road], mesh.vertex_attr)
    terrain = TinMesh(mesh.vertices, mesh.triangles[~on_road], mesh.vertex_attr)
    return road, terrain


def _mad_or_zero(submesh: TinMesh) -> float:
    pairs = _adjacent_pairs(submesh.triangles)
    if len(pairs) == 0:
        return 0.0
    return float(_pair_angles(submesh, pairs).mean())


def evaluate_all(mesh: TinMesh, gt_road: Raster, gt_terrain: Raster,
                 mask_plus: Mask) -> MetricReport:
    """Accuracy against both ground-truth sets plus per-class smoothness.

    Distances are measured against the full mesh; smoothness is measured on
    the mask-split submeshes (a submesh without adjacent pairs counts as
    perfectly smooth).  Coverage fields report the fraction of ground-truth
    points over the triangulated region; a class with none raises ValueError.
    """
    road_xyz = gt_road.xyz()
    terrain_xyz = gt_terrain.xyz()
    if len(road_xyz) == 0 or len(terrain_xyz) == 0:
        raise ValueError("ground truth must be non-empty for both classes")
    d_road, c_road = point_mesh_distances(mesh, road_xyz)
    d_terr, c_terr = point_mesh_distances(mesh, terrain_xyz)
    for name, covered in (("road", c_road), ("terrain", c_terr)):
        if not covered.any():
            raise ValueError(f"no {name} ground-truth point lies over the mesh")
    road_mesh, terrain_mesh = split_mesh_by_mask(mesh, mask_plus)
    return MetricReport(
        l2_road=float(d_road[c_road].mean()),
        l2_terrain=float(d_terr[c_terr].mean()),
        mad_road=_mad_or_zero(road_mesh),
        mad_terrain=_mad_or_zero(terrain_mesh),
        triangle_count=len(mesh.triangles),
        road_coverage=float(c_road.mean()),
        terrain_coverage=float(c_terr.mean()),
    )


def vertex_errors(mesh: TinMesh, gt_road: Raster, gt_terrain: Raster,
                  mask_plus: Mask) -> np.ndarray:
    """Per-vertex |z - ground truth| for mesh coloring.

    Each vertex is classified by its nearest mask cell and compared against
    a NaN-aware bilinear sample of the matching ground-truth layer; vertices
    with no finite support get error 0.
    """
    x, y, z = mesh.vertices.T
    i, j = mask_plus.nearest_cell(x, y)
    on_road = mask_plus.bits[j, i] == 1
    errors = np.zeros(len(x))
    for layer, sel in ((gt_road, on_road), (gt_terrain, ~on_road)):
        if not np.any(sel):
            continue
        ref = _bilinear(layer, x[sel], y[sel])
        diff = np.abs(z[sel] - ref)
        errors[sel] = np.where(np.isfinite(diff), diff, 0.0)
    return errors


def _bilinear(layer: Raster, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    fx = np.clip((x - layer.origin_x) / layer.cell_size_x, 0, layer.width - 1)
    fy = np.clip((y - layer.origin_y) / layer.cell_size_y, 0, layer.height - 1)
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
