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

from .grid import Mask, Raster, check_finite, read_lines, runs
from .nurbs import NurbsSurface, evaluate_grid

# relative tolerance of the Delaunay predicates, against their permanents
_TOL = 1e-12
# edges one in-circle test takes at once; any size gives the same flips
_EDGE_BLOCK = 4096
# _TURN[k, j] is the place in a triangle k steps on from place j
_TURN = (np.arange(3) + np.arange(3)[:, None]) % 3

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
    its nearest rows and then their nearest columns, without full-lattice
    coordinate or index grids: a lattice holds its heights, one
    boolean per node and the samples it keeps.  Coincidence, of plan
    positions rounded to 6 decimals, is found on columns and rows too.
    """
    x0, x1, y0, y1 = surface.extent

    def class_samples(rate: float, want_road: bool):
        xs, ys = _lattice(x0, x1, rate), _lattice(y0, y1, rate)
        z = evaluate_grid(surface, xs, ys)
        (i, _), (_, j) = mask_plus.nearest_cell(xs, y0), mask_plus.nearest_cell(x0, ys)
        rows, cols = np.nonzero((mask_plus.bits[j][:, i] == 1) == want_road)
        return xs, ys, rows, cols, np.column_stack([xs[cols], ys[rows], z[rows, cols]])

    xs, ys, rows, cols, road = class_samples(config.road_rate, True)
    # a grid over the road's distinct rounded columns and rows marks its
    # samples; rounding keeps order, so bisection places the terrain's in it
    (ux, ix), (uy, iy) = (np.unique(np.round(c, 6), return_inverse=True) for c in (xs, ys))
    held = np.zeros((len(uy), len(ux)), dtype=bool)
    held[iy[rows], ix[cols]] = True
    xs, ys, rows, cols, terrain = class_samples(config.terrain_rate, False)
    tx, ty = np.round(xs, 6), np.round(ys, 6)
    kx, ky = (np.searchsorted(u, t).clip(max=len(u) - 1) for u, t in ((ux, tx), (uy, ty)))
    shared = held[ky[rows], kx[cols]] & (uy[ky] == ty)[rows] & (ux[kx] == tx)[cols]
    return np.vstack([road, terrain[~shared]])


def _incircle(x: np.ndarray, y: np.ndarray, a, b, c, d) -> tuple[np.ndarray, np.ndarray]:
    """In-circle determinants (Guibas & Stolfi 1985), positive where d lies
    inside the circumcircle of the counter-clockwise triangle (a, b, c), and
    their permanents: the same sums over the products' absolute values, which
    bound the determinants' rounding error (Shewchuk 1997).  The corners are
    gathered with take from the coordinates x and y, best contiguous."""
    xd, yd = x.take(d), y.take(d)
    ax, ay = x.take(a) - xd, y.take(a) - yd
    bx, by = x.take(b) - xd, y.take(b) - yd
    cx, cy = x.take(c) - xd, y.take(c) - yd
    del xd, yd
    lift_a, lift_b, lift_c = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
    bc, cb, ca, ac, ab, ba = bx * cy, by * cx, cx * ay, cy * ax, ax * by, ay * bx
    del ax, ay, bx, by, cx, cy
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
    # B events, then A events, each sorted by strip and y: a stable sort merges them, B first
    pid = np.r_[b_pts, a_pts]
    strip = np.r_[col[b_pts] - 1, col[a_pts]]
    y_rank = np.unique(p[:, 1], return_inverse=True)[1]
    order = np.argsort(strip * n + y_rank[pid], kind="stable")
    pid, strip, is_a = pid[order], strip[order], order >= len(b_pts)
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


def _illegal(x: np.ndarray, y: np.ndarray, flat: np.ndarray, twin: np.ndarray,
             h: np.ndarray) -> np.ndarray:
    """The interior half-edges of h, in order, over their twins, whose edge
    fails the in-circle test: the far vertex of the twin lies inside the
    circumcircle of h's triangle by more than _TOL times the permanent, tested
    _EDGE_BLOCK at a time to bound the in-circle arrays however long h is."""
    illegal = [np.empty((2, 0), dtype=np.int64)]
    for start in range(0, len(h), _EDGE_BLOCK):
        block = h[start:start + _EDGE_BLOCK]
        pair = np.stack([block, twin.take(block)])
        base = pair // 3 * 3
        place = pair - base
        prev = base + _TURN[2].take(place)
        det, permanent = _incircle(x, y, flat.take(block),
                                   flat.take(base[0] + _TURN[1].take(place[0])),
                                   flat.take(prev[0]), flat.take(prev[1]))
        illegal.append(pair[:, det > _TOL * permanent])
    return np.concatenate(illegal, axis=1)


def _flip_to_delaunay(p: np.ndarray, tri: np.ndarray) -> np.ndarray:
    """Lawson flips in rounds until no interior edge is illegal.

    Half-edge 3 t + k runs from tri[t, k] to tri[t, (k + 1) % 3], and an edge
    is named by its lower half-edge and keyed min(u, v) n + max(u, v).
    edge_pairs pairs the half-edges, in key order, into an int32 twin array
    (-1 on the hull) before the first round; from then on each flip writes
    its triangles' corners through the flat view of tri and patches the twins
    of its quad's four outer half-edges and new diagonal (Guibas & Stolfi
    1985), carrying an outer twin that another flip of the same round moved
    through an int32 map of where the round's flips put each half-edge.  A
    round's edges travel as (2, k) arrays, the half-edges over their twins.

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
    x, y = p[:, 0], p[:, 1]
    flat = tri.reshape(-1)  # a view: flips write through it
    h1, h2 = edge_pairs(tri).T
    twin = np.full(len(flat) + 1, -1, dtype=np.int32)  # the last slot takes hull writes
    twin[h1], twin[h2] = h2, h1
    # h1 and h2 view the pair table; copying h1 frees the table before the
    # first round
    h1 = h1.copy()
    del h2
    moved = np.arange(len(flat) + 1, dtype=np.int32)  # each half-edge to itself, -1 to -1
    moved[-1] = -1
    unclaimed = np.iinfo(np.int64).max
    claim = np.full(len(tri), unclaimed)
    for _ in range(n + 1):
        # row 0 runs a -> b in t1 = (a, b, c), row 1 b -> a in t2 = (b, a, d)
        pair = _illegal(x, y, flat, twin, h1)
        if pair.shape[1] == 0:
            return tri
        face, ab = pair // 3, flat.take(pair)
        key = np.minimum(ab[0], ab[1]) * n + np.maximum(ab[0], ab[1])
        np.minimum.at(claim, face[0], key)
        np.minimum.at(claim, face[1], key)
        won = claim.take(face) == key
        claim[face] = unclaimed
        # t1 becomes (a, d, c) and t2 (d, b, c); base holds 3 t1 over 3 t2
        go = np.flatnonzero(won[0] & won[1])
        touched = 3 * face
        base, pair = touched[:, go], pair[:, go]
        # the quad's outer half-edges b->c, a->d, c->a, d->b, where the flips
        # put them, and the new diagonal, d->c over c->d
        place = pair - base
        old = np.concatenate([base + _TURN[1].take(place), base + _TURN[2].take(place)]).ravel()
        new = np.concatenate([base[1] + 1, base[0], base[0] + 2, base[1]])
        diag = base + [[1], [2]]
        corner = flat.take(old)
        flat[new] = corner
        flat[diag] = corner.reshape(4, -1)[[3, 2]]
        # an outer twin that another flip moved goes where that flip put it
        moved[old] = new
        outer = moved.take(twin.take(old))
        moved[old] = old
        twin[new] = outer
        twin[outer] = new
        twin[diag] = diag[::-1]
        # the interior edges of the touched triangles, each by its lower half-edge
        half = (touched[..., None] + _TURN[0]).ravel()
        other = twin.take(half)
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
    p = np.asfortranarray(pts[order])  # sorted, each coordinate a contiguous column
    if ((p[1:, 0] == p[:-1, 0]) & (p[1:, 1] == p[:-1, 1])).any():
        raise ValueError("duplicate points")
    lo, hi = p.min(axis=0), p.max(axis=0)
    span = float((hi - lo).max())
    # collinearity: the farthest point from pts[0] spans the direction; all
    # cross products against it must vanish
    rx, ry = pts[:, 0] - pts[0, 0], pts[:, 1] - pts[0, 1]
    far = np.argmax(rx * rx + ry * ry)
    if np.abs(rx * ry[far] - ry * rx[far]).max() <= 1e-12 * span * span:
        raise ValueError("points are collinear")
    del rx, ry  # not held while triangulating

    p -= (lo + hi) / 2.0
    tri = order[_flip_to_delaunay(p, _strip_start(p))]
    # rotate the smallest index first, preserving orientation, and sort rows;
    # a directed edge lies in one triangle, so the first two indices order them
    a, b, c = tri.T
    a_least, b_least = (a < b) & (a < c), b < c  # b_least holds where a is not
    tri = np.stack([np.where(a_least, u, np.where(b_least, v, w))
                    for u, v, w in ((a, b, c), (b, c, a), (c, a, b))], axis=1)
    return tri.take(np.argsort(tri[:, 0] * n + tri[:, 1]), axis=0)


def build_tin(surface: NurbsSurface, mask_plus: Mask, config: SamplingConfig) -> TinMesh:
    """Sample the surface at two rates and triangulate the samples.  Finite
    elevations near the float limit can sum to non-finite heights, which
    raise ValueError."""
    with np.errstate(over="ignore", invalid="ignore"):
        samples = dynamic_sample(surface, mask_plus, config)
    if not np.isfinite(samples).all():
        raise ValueError("surface heights must be finite; the control elevations overflow")
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


def export_mesh(mesh: TinMesh, attr: np.ndarray | None = None) -> list[str]:
    """The lines of a mesh as a Wavefront OBJ file, for grid.write_lines.

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
    return lines + [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in mesh.triangles.tolist()]


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
