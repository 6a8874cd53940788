"""Triangulated meshes from fitted surfaces and rasters.

Surface meshing samples the height field on two nested lattices, dense on
road cells and coarse elsewhere, then triangulates the plan positions in
whole arrays: a start triangulation zips adjacent columns of equal x and
fills the pockets up to the convex hull, and rounds of Lawson edge flips,
their in-circle tests taken in blocks of bounded size, make it Delaunay.
Regular-grid triangulation of a raster and a least-squares plane provide
reference meshes of known shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grid import Mask, Raster, check_finite, read_lines, write_lines
from .nurbs import NurbsSurface, evaluate_grid

# relative tolerance of the Delaunay predicates, against their permanents
_TOL = 1e-12
# edges one in-circle test takes at once; any size gives the same flips
_EDGE_BLOCK = 4096

@dataclass
class SamplingConfig:
    road_rate: float = 1.0      # sample spacing on road cells, meters
    terrain_rate: float = 10.0  # sample spacing elsewhere, meters

    def __post_init__(self):
        if not (0 < self.road_rate <= self.terrain_rate):
            raise ValueError("need 0 < road_rate <= terrain_rate")
        check_finite(self)


@dataclass
class TinMesh:
    vertices: np.ndarray   # (N, 3)
    triangles: np.ndarray  # (T, 3) indices

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.triangles = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValueError("vertices must have shape (N, 3)")


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

    A sample's nearest mask column depends on its x alone and its nearest
    row on its y alone, so the mask is read on the lattice's outer index,
    without full-lattice coordinate grids: a lattice holds its heights, one
    boolean per node and the samples it keeps.
    """
    x0, x1, y0, y1 = surface.extent

    def class_samples(rate: float, want_road: bool) -> np.ndarray:
        xs = _lattice(x0, x1, rate)
        ys = _lattice(y0, y1, rate)
        z = evaluate_grid(surface, xs, ys)
        sel = mask_plus.contains(xs[None, :], ys[:, None]) == want_road
        rows, cols = np.nonzero(sel)
        return np.column_stack([xs[cols], ys[rows], z[sel]])

    def plan_key(samples: np.ndarray) -> np.ndarray:
        return np.round(samples[:, 0], 6) + 1j * np.round(samples[:, 1], 6)

    road = class_samples(config.road_rate, True)
    terrain = class_samples(config.terrain_rate, False)
    return np.vstack([road, terrain[~np.isin(plan_key(terrain), plan_key(road))]])


def _incircle(p: np.ndarray, a, b, c, d) -> tuple[np.ndarray, np.ndarray]:
    """In-circle determinants (Guibas & Stolfi 1985), positive where d lies
    inside the circumcircle of the counter-clockwise triangle (a, b, c), and
    their permanents: the same sums over the products' absolute values, which
    bound the determinants' rounding error (Shewchuk 1997)."""
    ax, ay = p[a, 0] - p[d, 0], p[a, 1] - p[d, 1]
    bx, by = p[b, 0] - p[d, 0], p[b, 1] - p[d, 1]
    cx, cy = p[c, 0] - p[d, 0], p[c, 1] - p[d, 1]
    lift_a, lift_b, lift_c = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
    bc, cb, ca, ac, ab, ba = bx * cy, by * cx, cx * ay, cy * ax, ax * by, ay * bx
    det = lift_a * (bc - cb) + lift_b * (ca - ac) + lift_c * (ab - ba)
    permanent = (lift_a * (abs(bc) + abs(cb)) + lift_b * (abs(ca) + abs(ac))
                 + lift_c * (abs(ab) + abs(ba)))
    return det, permanent


def _strip_start(p: np.ndarray) -> np.ndarray:
    """A counter-clockwise triangulation of points sorted by (x, y), not yet
    Delaunay.

    The points form columns of equal x.  Each pair of adjacent columns, A on
    the left and B on the right, is zipped from its two bottoms upward: the
    other points of both columns are merged by y, B first on equal y, and
    each one closes a triangle with the current top of either column.  Such a
    triangle has an edge up its column and its third corner across, so it
    is counter-clockwise in floating point too: x differences across the
    strip are positive, y differences up a column are positive, and
    rounding keeps their order.  The pockets between the hull and the chains
    of column bottoms and tops are filled by Andrew's monotone chain, one
    triangle per pop; a pop needs a turn larger than _TOL times the sum of the
    orientation's two products' absolute values, so collinear points stay
    on the hull, and its turn is clockwise on the bottom chain and
    counter-clockwise on the top one, which sets each pocket's vertex order.
    Only the chain points are converted to Python floats.
    """
    n = len(p)
    new_col = np.r_[True, p[1:, 0] != p[:-1, 0]]
    bottom = np.flatnonzero(new_col)
    top = np.r_[bottom[1:], n] - 1
    col = np.cumsum(new_col) - 1
    # every point above its column's bottom is an A event in the strip on its
    # right and a B event in the strip on its left
    above = np.flatnonzero(~new_col)
    a_pts = above[col[above] < len(bottom) - 1]
    b_pts = above[col[above] > 0]
    pid = np.r_[a_pts, b_pts]
    strip = np.r_[col[a_pts], col[b_pts] - 1]
    is_a = np.r_[np.ones(len(a_pts), bool), np.zeros(len(b_pts), bool)]
    order = np.lexsort((is_a, p[pid, 1], strip))
    pid, strip, is_a = pid[order], strip[order], is_a[order]
    # point ids grow from column to column, so running maxima give each
    # strip's current tops without crossing into the strip before
    tops_a = np.maximum.accumulate(np.where(is_a, pid, bottom[strip]))
    tops_b = np.maximum.accumulate(np.where(is_a, bottom[strip + 1], pid))
    cur_a = np.maximum(bottom[strip], np.r_[-1, tops_a[:-1]])
    cur_b = np.maximum(bottom[strip + 1], np.r_[-1, tops_b[:-1]])
    pockets = []
    for chain, sign in ((bottom, 1.0), (top, -1.0)):
        # the stack holds places in the chain
        ids, xy = chain.tolist(), p[chain].tolist()
        stack: list[int] = []
        for v, (vx, vy) in enumerate(xy):
            while len(stack) >= 2:
                (ax, ay), (bx, by) = xy[stack[-2]], xy[stack[-1]]
                left, right = (bx - ax) * (vy - ay), (by - ay) * (vx - ax)
                if sign * (left - right) >= -_TOL * (abs(left) + abs(right)):
                    break
                u, w = ids[stack[-2]], ids[stack.pop()]
                pockets.append((u, ids[v], w) if sign > 0 else (u, w, ids[v]))
            stack.append(v)
    return np.concatenate([np.column_stack([cur_a, cur_b, pid]),
                           np.array(pockets, dtype=np.int64).reshape(-1, 3)])


def runs(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c - 1 for each count c, concatenated, in the dtype of counts."""
    ends = np.cumsum(counts, dtype=counts.dtype)
    return np.arange(counts.sum(), dtype=counts.dtype) - np.repeat(ends - counts, counts)


def edge_pairs(triangles: np.ndarray) -> np.ndarray:
    """(P, 2) pairs of half-edges on one edge, ordered by edge, then by
    half-edge.  Half-edge 3 t + k runs from triangles[t, k] to
    triangles[t, (k + 1) % 3], so a pair's faces are its half-edges // 3.
    Each half-edge of a run on one edge pairs with every later one, so a
    non-manifold edge pairs all its half-edges."""
    a, b = triangles.ravel(), triangles[:, [1, 2, 0]].ravel()
    key = np.minimum(a, b)
    key *= triangles.max(initial=0) + 1
    key += np.maximum(a, b, out=b)
    del a, b
    # stable, so the rows of one edge keep half-edge order; sorting the keys
    # in place sorts them without a third key-sized array beside the order
    order = np.argsort(key, kind="stable")
    key.sort()
    # each edge is now a run of rows, each row pairing with every later row of
    # its run; the rows with a later one form one stretch per run.  Freeing
    # each array once it is read holds the tracemalloc peak on the 20,000
    # triangles of a 101 x 101 regular grid to 2.2 MB
    more = np.flatnonzero(key[1:] == key[:-1])
    del key
    last = np.flatnonzero(np.diff(more, append=-1) != 1)
    later = np.repeat(more[last] + 1, np.diff(last, prepend=-1)) - more
    left = np.repeat(more, later)
    del more, last
    right = left + 1 + runs(later)
    return np.column_stack([order[left], order[right]])


def _turn(h: np.ndarray, k: int) -> np.ndarray:
    """The half-edge k steps after h around h's triangle."""
    return h - h % 3 + (h + k) % 3


def _illegal(p: np.ndarray, flat: np.ndarray, twin: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The interior half-edges of h, in order, whose edge fails the in-circle
    test: the far vertex of h's twin lies inside the circumcircle of h's
    triangle by more than _TOL times the permanent.  Tested _EDGE_BLOCK at a
    time, so the in-circle arrays stay bounded however many edges h holds."""
    illegal = [h[:0]]
    for start in range(0, len(h), _EDGE_BLOCK):
        block = h[start:start + _EDGE_BLOCK]
        det, permanent = _incircle(p, flat[block], flat[_turn(block, 1)], flat[_turn(block, 2)],
                                   flat[_turn(twin[block], 2)])
        illegal.append(block[det > _TOL * permanent])
    return np.concatenate(illegal)


def _flip_to_delaunay(p: np.ndarray, tri: np.ndarray) -> np.ndarray:
    """Lawson flips in rounds until no interior edge is illegal.

    Half-edge 3 t + k runs from tri[t, k] to tri[t, (k + 1) % 3], and an edge
    is named by its lower half-edge and keyed min(u, v) n + max(u, v).
    edge_pairs pairs the half-edges, in key order, into an int32 twin array
    (-1 on the hull) before the first round; from then on each flip patches
    the twins of its quad's four outer half-edges and new diagonal (Guibas &
    Stolfi 1985), carrying an outer twin that another flip of the same round
    moved to where that flip put it.

    An edge is illegal when the far vertex of one of its triangles lies
    inside the other's circumcircle by an in-circle value above _TOL times
    its permanent.  Each round lets every triangle claim its illegal edge of
    least key and flips the edges claimed by both of their triangles, so no
    triangle takes part in two flips.  The least illegal edge always flips,
    and flips reach a Delaunay triangulation from any triangulation (Lawson
    1977; de Berg et al., Computational Geometry, ch. 9).  The first round
    tests every interior edge, the next only the interior edges of triangles
    that had an illegal edge, flipped or not: an edge's test reads just its
    two triangles, so a legal edge between untouched triangles stays legal.
    Each round tests its edges _EDGE_BLOCK at a time and keeps only the
    illegal ones, so its in-circle arrays are bounded by the block and the
    rest of the round is sized by the illegal edges and the triangles they
    touch; only the twins, the per-triangle claims and the first round's
    edge list span the whole triangulation.  Which edges a round flips does
    not depend on the block size.  Raises RuntimeError after more rounds
    than points, far beyond what any input has needed (pipeline samples 14
    to 34, uniform random points about 40 at 50k; points on a line below a
    parabola n / 4 to n / 2, each round touching nearly every triangle).
    """
    n = len(p)
    flat = tri.reshape(-1)  # a view: flips write through it
    h1, h2 = edge_pairs(tri).T
    twin = np.full(len(flat), -1, dtype=np.int32)
    twin[h1], twin[h2] = h2, h1
    # h1 and h2 view the pair table; copying h1 frees the table before the
    # first round
    h1 = h1.copy()
    del h2
    unclaimed = np.iinfo(np.int64).max
    claim = np.full(len(tri), unclaimed)
    for _ in range(n + 1):
        h1 = _illegal(p, flat, twin, h1)
        if len(h1) == 0:
            return tri
        h2 = twin[h1]
        a, b, c, d = flat[h1], flat[_turn(h1, 1)], flat[_turn(h1, 2)], flat[_turn(h2, 2)]
        t1, t2 = h1 // 3, h2 // 3
        key = np.minimum(a, b) * n + np.maximum(a, b)
        np.minimum.at(claim, t1, key)
        np.minimum.at(claim, t2, key)
        go = (claim[t1] == key) & (claim[t2] == key)
        claim[t1] = claim[t2] = unclaimed
        touched = np.concatenate([t1, t2])
        h1, h2, a, b, c, d, t1, t2 = (x[go] for x in (h1, h2, a, b, c, d, t1, t2))
        # the quad's outer half-edges a->d, c->a, d->b, b->c, and where the
        # flip to (a, d, c) and (d, b, c) puts them
        old = np.concatenate([_turn(h2, 1), _turn(h1, 2), _turn(h2, 2), _turn(h1, 1)])
        new = np.concatenate([3 * t1, 3 * t1 + 2, 3 * t2, 3 * t2 + 1])
        outer = twin[old]
        by_old = np.argsort(old)
        at = np.minimum(np.searchsorted(old, outer, sorter=by_old), len(old) - 1)
        moved = old[by_old[at]] == outer
        outer[moved] = new[by_old[at[moved]]]
        twin[new] = outer
        twin[outer[outer >= 0]] = new[outer >= 0]
        twin[3 * t1 + 1], twin[3 * t2 + 2] = 3 * t2 + 2, 3 * t1 + 1
        tri[t1] = np.column_stack([a, d, c])
        tri[t2] = np.column_stack([d, b, c])
        # the interior edges of the touched triangles, each by its lower half-edge
        half = (3 * touched[:, None] + np.arange(3)).ravel()
        other = twin[half]
        half = np.minimum(half, other)[other >= 0]
        half.sort()
        h1 = half[np.concatenate([[True], half[1:] != half[:-1]])]
    raise RuntimeError(f"delaunay: edges still illegal after {n + 1} flip rounds")


def delaunay(points_xy: np.ndarray) -> np.ndarray:
    """Delaunay triangulation of 2D points by Lawson flips from column strips.

    The points are sorted by (x, y) and triangulated by _strip_start, whose
    zip takes the right column's point first on equal y.  Equal points sort
    next to each other, so that sort also finds duplicates, before the
    collinear check: two points are one when both coordinates compare equal,
    so -0.0 and 0.0 are one coordinate, as they are to the column split, and
    points one ulp apart are distinct.  On a lattice the start splits every
    square along its lower-left to upper-right diagonal, the diagonal of
    rgt_mesh, and the flips keep it.  Both predicates run in float64 on
    coordinates centred on the bounding box and count a value as zero when
    it is within _TOL = 1e-12 times its permanent, far above the rounding
    bound of about 1e-15 times the permanent (Shewchuk 1997).  The
    tolerance scales with each quad and each turn, so a small cluster in a
    wide set is held to the rule as tightly as the set itself.  A lattice
    square's in-circle value carries only the rounding of its corners, so
    cocircular ties keep the start's diagonal; any other quad of lattice
    points with step q has an in-circle value of at least q^4, above the
    tolerance while it spans fewer than 500 steps each way.  Off a lattice,
    a quad within the tolerance of cocircular is not flipped.

    Returns a (T, 3) index array, each row counter-clockwise with its
    smallest index first, rows in ascending order.  Raises ValueError for
    fewer than 3 points, a NaN or infinite coordinate, duplicate points, or
    an all-collinear input.
    """
    pts = np.asarray(points_xy, dtype=float)
    if pts.ndim != 2 or pts.shape[1] < 2:
        raise ValueError("points must have shape (N, 2)")
    pts = pts[:, :2]
    n = len(pts)
    if n < 3:
        raise ValueError("need at least 3 points")
    if not np.isfinite(pts).all():
        raise ValueError("point coordinates must be finite")
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    p = pts[order]
    if ((p[1:] == p[:-1]).all(axis=1)).any():
        raise ValueError("duplicate points")
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    span = float((hi - lo).max())
    rel = pts - pts[0]
    # collinearity: farthest point from pts[0] spans the direction; all cross
    # products against it must vanish
    direction = rel[np.argmax((rel ** 2).sum(axis=1))]
    cross = np.abs(rel[:, 0] * direction[1] - rel[:, 1] * direction[0])
    if cross.max() <= 1e-12 * span * span:
        raise ValueError("points are collinear")
    del rel, cross  # not held while triangulating

    p = p - (lo + hi) / 2.0
    tri = order[_flip_to_delaunay(p, _strip_start(p))]
    # rotate the smallest index first, preserving orientation, and sort rows;
    # a directed edge lies in one triangle, so the first two indices order them
    first = np.argmin(tri, axis=1)[:, None]
    tri = np.where(first == 0, tri, np.where(first == 1, tri[:, [1, 2, 0]], tri[:, [2, 0, 1]]))
    return tri[np.argsort(tri[:, 0] * n + tri[:, 1])]


def build_tin(surface: NurbsSurface, mask_plus: Mask, config: SamplingConfig) -> TinMesh:
    """Sample the surface at two rates and triangulate the samples."""
    samples = dynamic_sample(surface, mask_plus, config)
    if len(samples) < 3:
        raise ValueError("not enough samples to build a mesh")
    return TinMesh(samples, delaunay(samples[:, :2]))


def fit_plane(points: Raster) -> tuple[float, float, float]:
    """Least-squares plane z = a * x + b * y + c through the valid cells of a
    raster, as (a, b, c)."""
    xyz = points.xyz()
    if len(xyz) < 3:
        raise ValueError("need at least 3 points to fit a plane")
    design = np.column_stack([xyz[:, 0], xyz[:, 1], np.ones(len(xyz))])
    coeffs, _, rank, _ = np.linalg.lstsq(design, xyz[:, 2], rcond=None)
    if rank < 3:
        raise ValueError("points are rank deficient (collinear in plan view)")
    return tuple(float(c) for c in coeffs)


def plane_mesh(coeffs: tuple[float, float, float], x_range: tuple[float, float],
               y_range: tuple[float, float]) -> TinMesh:
    """Two triangles covering a rectangle on the plane z = a * x + b * y + c,
    given as coeffs (a, b, c)."""
    x0, x1 = x_range
    y0, y1 = y_range
    corners = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], dtype=float)
    a, b, c = coeffs
    z = a * corners[:, 0] + b * corners[:, 1] + c
    vertices = np.column_stack([corners, z])
    return TinMesh(vertices, np.array([[0, 1, 2], [0, 2, 3]]))


def rgt_mesh(raster: Raster) -> TinMesh:
    """Regular-grid triangulation: every quad of valid cells is split along
    its lower-left to upper-right diagonal.  Quads touching a missing cell
    are skipped."""
    valid = raster.valid
    vid = np.full(valid.shape, -1, dtype=np.int64)  # row-major, as raster.xyz() lists them
    vid[valid] = np.arange(int(valid.sum()))
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
    return TinMesh(raster.xyz(), tris)


def export_mesh(mesh: TinMesh, path: str | Path, attr: np.ndarray | None = None) -> None:
    """Write a mesh as a Wavefront OBJ file.

    Vertex lines carry ``x y z`` plus an ``r g b`` color triple when ``attr``
    gives one value per vertex (low values map to blue, high to red).  Face
    indices are 1-based.  Raises ValueError for meshes without triangles.
    """
    if len(mesh.vertices) == 0 or len(mesh.triangles) == 0:
        raise ValueError("refusing to export an empty mesh")
    # rows as Python floats and ints, formatted without a numpy scalar each
    vertices = mesh.vertices.tolist()
    if attr is None:
        lines = [f"v {x!r} {y!r} {z!r}" for x, y, z in vertices]
    else:
        finite = np.isfinite(attr)
        lo = float(attr[finite].min()) if finite.any() else 0.0
        hi = float(attr[finite].max()) if finite.any() else 0.0
        span = hi - lo
        t = np.zeros_like(attr) if span == 0 else np.clip((attr - lo) / span, 0.0, 1.0)
        t = np.where(np.isfinite(attr), t, 0.0)
        lines = [f"v {x!r} {y!r} {z!r} {r:.6f} 0.100000 {1.0 - r:.6f}"
                 for (x, y, z), r in zip(vertices, t.tolist(), strict=True)]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in mesh.triangles.tolist()]
    write_lines(path, lines)


def load_mesh(path: str | Path) -> TinMesh:
    """Read vertices and faces of an OBJ written by export_mesh: a face may
    refer only to vertices listed above it."""
    vertices = []
    faces = []
    for line_no, line in enumerate(read_lines(path), start=1):
        parts = line.split()
        if not parts:
            continue
        try:
            if parts[0] == "v":
                if len(parts) < 4:
                    raise ValueError("vertex line needs 3 coordinates")
                coords = [float(v) for v in parts[1:4]]
                if not all(map(math.isfinite, coords)):
                    raise ValueError("vertex coordinates must be finite")
                vertices.append(coords)
            elif parts[0] == "f":
                if len(parts) != 4:
                    raise ValueError("only triangle faces are supported")
                faces.append([int(v.split("/")[0]) - 1 for v in parts[1:]])
                if not all(0 <= v < len(vertices) for v in faces[-1]):
                    raise ValueError("triangle indices out of range")
        except ValueError as err:
            raise ValueError(f"{path}:{line_no}: {err}") from None
    if not vertices or not faces:
        raise ValueError(f"{path}: no mesh content found")
    return TinMesh(np.array(vertices), np.array(faces))
