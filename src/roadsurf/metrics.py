"""Mesh accuracy and smoothness measurements.

Accuracy is the mean unsigned Euclidean distance from ground-truth points to
the mesh, using exact closest-point-on-triangle queries accelerated by a plan
view bin grid.  Smoothness is the mean angular difference between normals of
edge-adjacent triangle pairs.  Both can be split by a road mask using the
plan-view centroid of each triangle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Mask, Raster
from .mesh import TinMesh


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


class _MeshIndex:
    """Plan-view bins over triangle bounding boxes for nearest queries."""

    def __init__(self, mesh: TinMesh):
        self.tri = mesh.vertices[mesh.triangles]  # (T, 3, 3)
        xy = self.tri[:, :, :2]
        self.lo = xy.min(axis=(0, 1))
        hi = xy.max(axis=(0, 1))
        span = max(hi[0] - self.lo[0], hi[1] - self.lo[1], 1e-9)
        self.cell = span / max(1.0, np.sqrt(len(self.tri) / 2.0))
        self.nb = (np.maximum(1, np.ceil((hi - self.lo) / self.cell))).astype(int)
        self.bins: dict[tuple[int, int], list[int]] = {}
        t_lo = np.floor((xy.min(axis=1) - self.lo) / self.cell).astype(int)
        t_hi = np.floor((xy.max(axis=1) - self.lo) / self.cell).astype(int)
        t_lo = np.clip(t_lo, 0, self.nb - 1)
        t_hi = np.clip(t_hi, 0, self.nb - 1)
        for t in range(len(self.tri)):
            for bi in range(t_lo[t, 0], t_hi[t, 0] + 1):
                for bj in range(t_lo[t, 1], t_hi[t, 1] + 1):
                    self.bins.setdefault((bi, bj), []).append(t)
        # squared-length scale per triangle for the containment tolerance
        e1 = ((xy[:, 1] - xy[:, 0]) ** 2).sum(1)
        e2 = ((xy[:, 2] - xy[:, 0]) ** 2).sum(1)
        self.area_eps = 1e-9 * np.maximum(e1, e2)

    def _ring(self, bi: int, bj: int, k: int) -> list[int]:
        found: list[int] = []
        if k == 0:
            cells = [(bi, bj)]
        else:
            cells = []
            for d in range(-k, k + 1):
                cells.extend([(bi + d, bj - k), (bi + d, bj + k)])
            for d in range(-k + 1, k):
                cells.extend([(bi - k, bj + d), (bi + k, bj + d)])
        for cell in cells:
            found.extend(self.bins.get(cell, ()))
        return found

    def query(self, p: np.ndarray) -> tuple[float, bool]:
        """(distance to mesh, plan-view containment) for one 3D point."""
        px, py = p[0], p[1]
        bi = int(np.clip(np.floor((px - self.lo[0]) / self.cell), 0, self.nb[0] - 1))
        bj = int(np.clip(np.floor((py - self.lo[1]) / self.cell), 0, self.nb[1] - 1))
        best = np.inf
        covered = False
        max_ring = int(max(self.nb))
        k = 0
        while True:
            ids = self._ring(bi, bj, k)
            if ids:
                batch = self.tri[ids]
                closest = _closest_point_batch(p, batch)
                dist = np.sqrt(((closest - p) ** 2).sum(1))
                best = min(best, float(dist.min()))
                if k == 0:
                    covered = self._covers(px, py, batch, np.array(ids))
            # everything beyond ring k sits outside the explored rectangle
            rx0 = self.lo[0] + (bi - k) * self.cell
            rx1 = self.lo[0] + (bi + k + 1) * self.cell
            ry0 = self.lo[1] + (bj - k) * self.cell
            ry1 = self.lo[1] + (bj + k + 1) * self.cell
            bound = min(px - rx0, rx1 - px, py - ry0, ry1 - py)
            if best <= max(bound, 0.0) or k > max_ring:
                return best, covered
            k += 1

    def _covers(self, px: float, py: float, batch: np.ndarray, ids: np.ndarray) -> bool:
        a, b, c = batch[:, 0, :2], batch[:, 1, :2], batch[:, 2, :2]
        eps = self.area_eps[ids]
        s1 = (b[:, 0] - a[:, 0]) * (py - a[:, 1]) - (b[:, 1] - a[:, 1]) * (px - a[:, 0])
        s2 = (c[:, 0] - b[:, 0]) * (py - b[:, 1]) - (c[:, 1] - b[:, 1]) * (px - b[:, 0])
        s3 = (a[:, 0] - c[:, 0]) * (py - c[:, 1]) - (a[:, 1] - c[:, 1]) * (px - c[:, 0])
        return bool(((s1 >= -eps) & (s2 >= -eps) & (s3 >= -eps)).any())


def point_mesh_distances(mesh: TinMesh, points_xyz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distance from each point to the mesh and whether its plan position
    falls inside some triangle's plan footprint."""
    if len(mesh.triangles) == 0:
        raise ValueError("mesh has no triangles")
    pts = np.asarray(points_xyz, dtype=float).reshape(-1, 3)
    index = _MeshIndex(mesh)
    dist = np.empty(len(pts))
    covered = np.empty(len(pts), dtype=bool)
    for k, p in enumerate(pts):
        dist[k], covered[k] = index.query(p)
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
    t = len(triangles)
    edges = np.concatenate([triangles[:, [0, 1]], triangles[:, [1, 2]],
                            triangles[:, [2, 0]]], axis=0)
    edges = np.sort(edges, axis=1)
    faces = np.tile(np.arange(t), 3)
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    edges = edges[order]
    faces = faces[order]
    pairs = []
    start = 0
    for k in range(1, len(edges) + 1):
        if k == len(edges) or (edges[k] != edges[start]).any():
            group = faces[start:k]
            if len(group) > 1:
                group = np.sort(group)
                for x in range(len(group)):
                    for y in range(x + 1, len(group)):
                        pairs.append((group[x], group[y]))
            start = k
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


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
