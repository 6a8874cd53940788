"""Triangulated meshes from fitted surfaces and rasters.

Surface meshing samples the height field on two nested lattices, dense on
road cells and coarse elsewhere, then triangulates the plan positions with an
incremental Bowyer-Watson Delaunay construction.  Regular-grid triangulation
of a raster and a least-squares plane provide reference meshes of known
shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grid import Mask, Raster
from .nurbs import NurbsSurface, evaluate_grid

# relative slack on in-circle tests; exact cocircular quads may take either diagonal
_INCIRCLE_REL_TOL = 1e-12


@dataclass
class SamplingConfig:
    road_rate: float = 1.0      # sample spacing on road cells, meters
    terrain_rate: float = 10.0  # sample spacing elsewhere, meters

    def __post_init__(self):
        if not (0 < self.road_rate <= self.terrain_rate):
            raise ValueError("need 0 < road_rate <= terrain_rate")


@dataclass
class TinMesh:
    vertices: np.ndarray   # (N, 3)
    triangles: np.ndarray  # (T, 3) indices
    vertex_attr: np.ndarray | None = None

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.triangles = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValueError("vertices must have shape (N, 3)")
        if self.triangles.size and (self.triangles.min() < 0
                                    or self.triangles.max() >= len(self.vertices)):
            raise ValueError("triangle indices out of range")
        if self.vertex_attr is not None:
            self.vertex_attr = np.asarray(self.vertex_attr, dtype=float)
            if self.vertex_attr.shape != (len(self.vertices),):
                raise ValueError("vertex_attr must have one value per vertex")

    @property
    def triangle_count(self) -> int:
        return len(self.triangles)


@dataclass
class PlaneModel:
    """z = a * x + b * y + c"""

    a: float
    b: float
    c: float

    def predict(self, x, y):
        return self.a * np.asarray(x) + self.b * np.asarray(y) + self.c


def _lattice(lo: float, hi: float, rate: float) -> np.ndarray:
    count = int(math.floor((hi - lo) / rate + 1e-9)) + 1
    return lo + np.arange(count) * rate


def dynamic_sample(surface: NurbsSurface, mask_plus: Mask,
                   config: SamplingConfig) -> np.ndarray:
    """Height-field samples on two rates, dense where the mask is set.

    Both lattices are anchored at the lower-left corner of the surface
    extent, so when terrain_rate is a multiple of road_rate they nest.  A
    sample belongs to the road class when its nearest mask cell is 1.  Road
    samples take precedence over coincident terrain samples.  Returns an
    (N, 3) array, road samples first, each lattice in row-major order.
    """
    x0, x1, y0, y1 = surface.xy_extent()

    def class_samples(rate: float, want_road: bool) -> np.ndarray:
        xs = _lattice(x0, x1, rate)
        ys = _lattice(y0, y1, rate)
        z = evaluate_grid(surface, xs, ys)
        gx, gy = np.meshgrid(xs, ys)
        ci, cj = mask_plus.nearest_cell(gx, gy)
        on_road = mask_plus.bits[cj, ci] == 1
        sel = on_road if want_road else ~on_road
        return np.column_stack([gx[sel], gy[sel], z[sel]])

    road = class_samples(config.road_rate, True)
    terrain = class_samples(config.terrain_rate, False)
    taken = {(round(x, 6), round(y, 6)) for x, y in road[:, :2]}
    keep = [k for k, (x, y) in enumerate(terrain[:, :2])
            if (round(x, 6), round(y, 6)) not in taken]
    return np.vstack([road, terrain[keep]])


def _orient(ax, ay, bx, by, px, py) -> float:
    return (bx - ax) * (py - ay) - (by - ay) * (px - ax)


def _circumcircle(ax, ay, bx, by, cx, cy) -> tuple[float, float, float]:
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if d == 0.0:
        return 0.0, 0.0, float("inf")
    a2 = ax * ax + ay * ay
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    ox = (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d
    oy = (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d
    r2 = (ax - ox) ** 2 + (ay - oy) ** 2
    return ox, oy, r2


class _Triangulation:
    """Bookkeeping for incremental insertion: live triangles, cached
    circumcircles, and an edge-to-triangle map for adjacency walks."""

    def __init__(self, verts: np.ndarray):
        self.verts = verts
        self.tri: list[tuple[int, int, int]] = []
        self.circ: list[tuple[float, float, float]] = []
        self.alive: list[bool] = []
        self.edges: dict[tuple[int, int], list[int]] = {}

    def add(self, a: int, b: int, c: int) -> int:
        v = self.verts
        if _orient(v[a, 0], v[a, 1], v[b, 0], v[b, 1], v[c, 0], v[c, 1]) < 0:
            b, c = c, b
        tid = len(self.tri)
        self.tri.append((a, b, c))
        self.circ.append(_circumcircle(v[a, 0], v[a, 1], v[b, 0], v[b, 1], v[c, 0], v[c, 1]))
        self.alive.append(True)
        for u, w in ((a, b), (b, c), (c, a)):
            self.edges.setdefault((min(u, w), max(u, w)), []).append(tid)
        return tid

    def kill(self, tid: int) -> None:
        self.alive[tid] = False
        a, b, c = self.tri[tid]
        for u, w in ((a, b), (b, c), (c, a)):
            self.edges[(min(u, w), max(u, w))].remove(tid)

    def neighbor(self, tid: int, u: int, w: int) -> int | None:
        for other in self.edges.get((min(u, w), max(u, w)), ()):
            if other != tid and self.alive[other]:
                return other
        return None

    def in_circle(self, tid: int, px: float, py: float) -> bool:
        ox, oy, r2 = self.circ[tid]
        if math.isinf(r2):
            return True
        return (px - ox) ** 2 + (py - oy) ** 2 < r2 * (1.0 - _INCIRCLE_REL_TOL)

    def contains(self, tid: int, px: float, py: float) -> bool:
        a, b, c = self.tri[tid]
        v = self.verts
        for u, w in ((a, b), (b, c), (c, a)):
            if _orient(v[u, 0], v[u, 1], v[w, 0], v[w, 1], px, py) < 0:
                return False
        return True

    def locate(self, px: float, py: float, start: int) -> int:
        """A live triangle whose circumdisk holds (px, py), found by walking
        from ``start`` and falling back to a scan if the walk stalls."""
        tid = start
        v = self.verts
        for _ in range(4 * len(self.tri) + 16):
            if not self.alive[tid]:
                break
            a, b, c = self.tri[tid]
            moved = False
            for u, w in ((a, b), (b, c), (c, a)):
                if _orient(v[u, 0], v[u, 1], v[w, 0], v[w, 1], px, py) < 0:
                    nxt = self.neighbor(tid, u, w)
                    if nxt is None:
                        break
                    tid = nxt
                    moved = True
                    break
            if not moved:
                return tid
        for tid, ok in enumerate(self.alive):
            if ok and (self.contains(tid, px, py) or self.in_circle(tid, px, py)):
                return tid
        raise RuntimeError("point location failed")


def _insertion_order(pts: np.ndarray) -> np.ndarray:
    """Serpentine bin order for spatial locality during insertion."""
    n = len(pts)
    x0, y0 = pts.min(axis=0)
    x1, y1 = pts.max(axis=0)
    nb = max(1, int(math.ceil(math.sqrt(n / 4.0))))
    span_x = (x1 - x0) or 1.0
    span_y = (y1 - y0) or 1.0
    bi = np.minimum((pts[:, 0] - x0) / span_x * nb, nb - 1).astype(int)
    bj = np.minimum((pts[:, 1] - y0) / span_y * nb, nb - 1).astype(int)
    bi_serp = np.where(bj % 2 == 0, bi, nb - 1 - bi)
    return np.lexsort((pts[:, 0], pts[:, 1], bi_serp, bj))


def delaunay(points_xy: np.ndarray) -> np.ndarray:
    """Delaunay triangulation of 2D points by incremental insertion.

    Returns a (T, 3) index array, each row counter-clockwise, in a canonical
    row order.  Raises ValueError for fewer than 3 points, duplicate points,
    or an all-collinear input.  Exactly cocircular point sets may resolve to
    either diagonal.
    """
    pts = np.asarray(points_xy, dtype=float)
    if pts.ndim != 2 or pts.shape[1] < 2:
        raise ValueError("points must have shape (N, 2)")
    pts = pts[:, :2]
    n = len(pts)
    if n < 3:
        raise ValueError("need at least 3 points")
    if len(np.unique(pts, axis=0)) != n:
        raise ValueError("duplicate points")
    x0, y0 = pts.min(axis=0)
    x1, y1 = pts.max(axis=0)
    scale = max(x1 - x0, y1 - y0)
    anchor = pts[0]
    rel = pts - anchor
    # collinearity: farthest point from pts[0] spans the direction; all cross
    # products against it must vanish
    far = int(np.argmax((rel ** 2).sum(axis=1)))
    direction = rel[far]
    cross = np.abs(rel[:, 0] * direction[1] - rel[:, 1] * direction[0])
    if cross.max() <= 1e-12 * scale * scale:
        raise ValueError("points are collinear")

    cx, cy = (x0 + x1) / 2.0, (y0 + y1) / 2.0
    d = scale
    verts = np.vstack([
        pts,
        [cx - 16.0 * d, cy - 10.0 * d],
        [cx + 16.0 * d, cy - 10.0 * d],
        [cx, cy + 16.0 * d],
    ])
    tr = _Triangulation(verts)
    last = tr.add(n, n + 1, n + 2)

    for pid in _insertion_order(pts):
        px, py = pts[pid]
        seed = tr.locate(px, py, last)
        bad = {seed}
        stack = [seed]
        while stack:
            tid = stack.pop()
            a, b, c = tr.tri[tid]
            for u, w in ((a, b), (b, c), (c, a)):
                nb_id = tr.neighbor(tid, u, w)
                if nb_id is not None and nb_id not in bad and tr.in_circle(nb_id, px, py):
                    bad.add(nb_id)
                    stack.append(nb_id)
        boundary = []
        for tid in bad:
            a, b, c = tr.tri[tid]
            for u, w in ((a, b), (b, c), (c, a)):
                nb_id = tr.neighbor(tid, u, w)
                if nb_id is None or nb_id not in bad:
                    boundary.append((u, w))
        for tid in bad:
            tr.kill(tid)
        for u, w in boundary:
            last = tr.add(u, w, int(pid))

    out = []
    for tid, ok in enumerate(tr.alive):
        if not ok:
            continue
        a, b, c = tr.tri[tid]
        if a >= n or b >= n or c >= n:
            continue
        # rotate the smallest index first, preserving orientation
        if b < a and b <= c:
            a, b, c = b, c, a
        elif c < a and c < b:
            a, b, c = c, a, b
        out.append((a, b, c))
    if not out:
        raise ValueError("triangulation is empty")
    result = np.array(sorted(out), dtype=np.int64)
    return result


def build_tin(surface: NurbsSurface, mask_plus: Mask, config: SamplingConfig) -> TinMesh:
    """Sample the surface at two rates and triangulate the samples."""
    samples = dynamic_sample(surface, mask_plus, config)
    if len(samples) < 3:
        raise ValueError("not enough samples to build a mesh")
    return TinMesh(samples, delaunay(samples[:, :2]))


def fit_plane(points: Raster) -> PlaneModel:
    """Least-squares plane through the valid cells of a raster."""
    xyz = points.xyz()
    if len(xyz) < 3:
        raise ValueError("need at least 3 points to fit a plane")
    design = np.column_stack([xyz[:, 0], xyz[:, 1], np.ones(len(xyz))])
    coeffs, _, rank, _ = np.linalg.lstsq(design, xyz[:, 2], rcond=None)
    if rank < 3:
        raise ValueError("points are rank deficient (collinear in plan view)")
    return PlaneModel(*(float(c) for c in coeffs))


def plane_mesh(model: PlaneModel, x_range: tuple[float, float],
               y_range: tuple[float, float]) -> TinMesh:
    """Two triangles covering a rectangle on the plane."""
    x0, x1 = x_range
    y0, y1 = y_range
    corners = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], dtype=float)
    z = model.predict(corners[:, 0], corners[:, 1])
    vertices = np.column_stack([corners, z])
    return TinMesh(vertices, np.array([[0, 1, 2], [0, 2, 3]]))


def rgt_mesh(raster: Raster) -> TinMesh:
    """Regular-grid triangulation: every quad of valid cells is split along
    its lower-left to upper-right diagonal.  Quads touching a missing cell
    are skipped."""
    valid = raster.valid
    vid = np.full(valid.shape, -1, dtype=np.int64)
    vid[valid] = np.arange(int(valid.sum()))
    jj, ii = np.nonzero(valid)
    x, y = raster.cell_to_world(ii, jj)
    vertices = np.column_stack([x, y, raster.values[jj, ii]])
    quad = valid[:-1, :-1] & valid[:-1, 1:] & valid[1:, 1:] & valid[1:, :-1]
    jq, iq = np.nonzero(quad)
    if jq.size == 0:
        raise ValueError("raster has no 2x2 block of valid cells")
    v00 = vid[jq, iq]
    v10 = vid[jq, iq + 1]
    v11 = vid[jq + 1, iq + 1]
    v01 = vid[jq + 1, iq]
    tris = np.empty((2 * jq.size, 3), dtype=np.int64)
    tris[0::2] = np.column_stack([v00, v10, v11])
    tris[1::2] = np.column_stack([v00, v11, v01])
    return TinMesh(vertices, tris)


def export_mesh(mesh: TinMesh, path: str | Path) -> None:
    """Write a mesh as a Wavefront OBJ file.

    Vertex lines carry ``x y z`` plus an ``r g b`` color triple when the mesh
    has a vertex attribute (low values map to blue, high to red).  Face
    indices are 1-based.  Raises ValueError for meshes without triangles.
    """
    if len(mesh.vertices) == 0 or len(mesh.triangles) == 0:
        raise ValueError("refusing to export an empty mesh")
    lines = []
    attr = mesh.vertex_attr
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
    Path(path).write_text("\n".join(lines) + "\n")


def load_mesh(path: str | Path) -> TinMesh:
    """Read vertices and faces of an OBJ written by export_mesh."""
    vertices = []
    faces = []
    for line_no, line in enumerate(Path(path).read_text().splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        try:
            if parts[0] == "v":
                if len(parts) < 4:
                    raise ValueError("vertex line needs 3 coordinates")
                vertices.append([float(v) for v in parts[1:4]])
            elif parts[0] == "f":
                if len(parts) != 4:
                    raise ValueError("only triangle faces are supported")
                faces.append([int(v.split("/")[0]) - 1 for v in parts[1:]])
        except ValueError as err:
            raise ValueError(f"{path}:{line_no}: {err}") from None
    if not vertices or not faces:
        raise ValueError(f"{path}: no mesh content found")
    return TinMesh(np.array(vertices), np.array(faces))
