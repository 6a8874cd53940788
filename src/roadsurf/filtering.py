"""Noise removal for masked elevation points.

Spikes from vehicles, vegetation, and walls that leak into a road mask are
elevation-disconnected from the pavement.  The filter clusters points under
an elevation continuity constraint, merges clusters that are close in both
plan distance and elevation, and keeps only the largest clusters.

Growing and merging are both connected components, of neighbor point pairs
and of cluster label pairs; one whole-array union-find serves both.  Only
points outside the largest grown cluster can pair two labels, so merging
looks up the plan-distance disc of those points alone, in bounded blocks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .grid import Mask, Raster


# offset lookups per block of merge_clusters; bounds its temporary arrays to
# a few megabytes whatever theta_xy and the cell size
_MERGE_BLOCK = 1 << 17


@dataclass
class FilterParams:
    theta_xy: float = 10.0  # plan-distance threshold for cluster merging, meters
    theta_z: float = 0.5    # elevation continuity threshold, meters
    top_k: int = 1          # number of clusters kept

    def __post_init__(self):
        if self.theta_xy <= 0 or self.theta_z <= 0:
            raise ValueError("thresholds must be positive")
        if self.top_k < 1:
            raise ValueError("top_k must be at least 1")


@dataclass
class LabelGrid:
    """Cluster labels per cell; 0 marks cells without a point or dropped points."""

    labels: np.ndarray  # (H, W) int32
    label_count: int


def _shift_slices(di: int, dj: int, width: int, height: int):
    # Stops are clamped so offsets larger than the grid give empty slices on
    # both sides instead of wrapping around through negative indices.
    a = (slice(max(0, -dj), max(0, height - max(0, dj))),
         slice(max(0, -di), max(0, width - max(0, di))))
    b = (slice(max(0, dj), max(0, height - max(0, -dj))),
         slice(max(0, di), max(0, width - max(0, -di))))
    return a, b


def get_neighbors(points: Raster, theta_z: float) -> np.ndarray:
    """Pairs of points on 8-connected cells whose elevation gap is at most
    theta_z (inclusive), as an (E, 2) array of flat cell indices
    ``j * width + i``.  Each unordered pair appears once, found through the
    four forward offsets."""
    occ = points.valid
    z = points.values
    flat = np.arange(occ.size).reshape(occ.shape)
    pairs = []
    for di, dj in ((1, 0), (-1, 1), (0, 1), (1, 1)):
        a, b = _shift_slices(di, dj, points.width, points.height)
        ok = occ[a] & occ[b] & (np.abs(z[a] - z[b]) <= theta_z)
        pairs.append(np.stack([flat[a][ok], flat[b][ok]], axis=1))
    return np.concatenate(pairs)


def _components(n: int, pairs: np.ndarray) -> np.ndarray:
    """Smallest node id in the component of each of nodes 0..n-1 under the
    undirected (E, 2) pairs.  Each round hooks the larger root of every pair
    still spanning two trees onto the smaller, then jumps pointers until each
    node points at a root (Shiloach & Vishkin 1982).  Roots never exceed their
    nodes, so a component's last root is its smallest node."""
    root = np.arange(n)
    a, b = pairs[:, 0], pairs[:, 1]
    while len(a):
        ra, rb = root[a], root[b]
        apart = ra != rb
        a, b, ra, rb = a[apart], b[apart], ra[apart], rb[apart]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        jumped = root[root]
        while not np.array_equal(jumped, root):
            root, jumped = jumped, jumped[jumped]
    return root


def _first_seen(ids: np.ndarray) -> tuple[np.ndarray, int]:
    """Ids renumbered 1, 2, ... in order of first appearance, and their count."""
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int32)
    rank[np.argsort(first)] = np.arange(1, len(first) + 1)
    return rank[inverse], len(first)


def grow_regions(points: Raster, neighbors: np.ndarray) -> LabelGrid:
    """Connected components of the neighbor pairs from ``get_neighbors``.

    Labels are assigned in order of first appearance in a row-major scan, so
    the same input always produces the same labeling.
    """
    occ = points.valid
    root = _components(occ.size, neighbors).reshape(occ.shape)
    labels = np.zeros(occ.shape, dtype=np.int32)
    labels[occ], count = _first_seen(root[occ])
    return LabelGrid(labels, count)


def _disc_offsets(points: Raster, theta_xy: float):
    """Lattice offsets (di, dj) other than (0, 0) within theta_xy of a cell,
    bounded by the grid, as arrays, and for each whether it lies within a
    relative 1e-6 of the theta_xy ring.  Offsets inside the ring pair cells
    within theta_xy whatever the rounding of their world coordinates; ring
    offsets need the exact check on those coordinates."""
    cx, cy = points.cell_size_x, points.cell_size_y
    # offsets beyond the grid can never pair two cells
    ki = min(int(theta_xy / cx * (1 + 1e-9)) + 1, points.width - 1)
    kj = min(int(theta_xy / cy * (1 + 1e-9)) + 1, points.height - 1)
    dj, di = (a.ravel() for a in np.mgrid[-kj:kj + 1, -ki:ki + 1])
    d2 = (di * cx) ** 2 + (dj * cy) ** 2
    thr2 = theta_xy * theta_xy
    keep = (d2 <= thr2 * (1 + 1e-6) + 1e-12) & ((di != 0) | (dj != 0))
    return di[keep], dj[keep], d2[keep] > thr2 * (1 - 1e-6)


def _close_label_pairs(points: Raster, lab: np.ndarray, theta_xy: float,
                       theta_z: float) -> np.ndarray:
    """Label pairs (la, lb), la != lb, of point pairs within theta_xy in plan
    and theta_z in elevation, as an (E, 2) array, each pair at most once per
    block.

    Every such pair has a point outside the largest cluster, so only those
    points look up their disc of offsets, in blocks of at most _MERGE_BLOCK
    lookups, on flat indices into grids padded by the disc radius.  Padding
    reads as NaN elevation, which no elevation test passes; neither do
    cells without a point.
    """
    di, dj, ring = _disc_offsets(points, theta_xy)
    if not len(di):
        return np.zeros((0, 2), dtype=np.int64)
    h, w = lab.shape
    ki, kj = int(np.abs(di).max()), int(np.abs(dj).max())
    z_pad = np.full((h + 2 * kj, w + 2 * ki), np.nan)
    z_pad[kj:kj + h, ki:ki + w] = points.values
    lab_pad = np.zeros(z_pad.shape, dtype=np.int64)
    lab_pad[kj:kj + h, ki:ki + w] = lab
    step = dj * z_pad.shape[1] + di
    occ = points.valid
    largest = np.argmax(np.bincount(lab[occ]))
    sj, si = np.nonzero(occ & (lab != largest))
    src = np.ravel_multi_index((sj + kj, si + ki), z_pad.shape)
    z_pad, lab_pad = z_pad.ravel(), lab_pad.ravel()
    xs = points.origin_x + np.arange(w) * points.cell_size_x
    ys = points.origin_y + np.arange(h) * points.cell_size_y
    thr2 = theta_xy * theta_xy
    span = int(lab.max()) + 1
    found = [np.zeros(0, dtype=np.int64)]
    block = max(1, _MERGE_BLOCK // len(step))
    for first in range(0, len(src), block):
        s = src[first:first + block]
        t = s[:, None] + step
        gap = z_pad[t]
        gap -= z_pad[s][:, None]
        near = np.abs(gap, out=gap) <= theta_z
        near &= lab_pad[t] != lab_pad[s][:, None]
        row, col = np.divmod(np.flatnonzero(near), len(step))
        edge = np.flatnonzero(ring[col])
        if edge.size:
            i, j = si[first + row[edge]], sj[first + row[edge]]
            dx = xs[i + di[col[edge]]] - xs[i]
            dy = ys[j + dj[col[edge]]] - ys[j]
            far = edge[dx * dx + dy * dy > thr2]
            row, col = np.delete(row, far), np.delete(col, far)
        # pair (la, lb) as la * span + lb, so that np.unique drops repeats
        found.append(np.unique(lab_pad[s[row]] * span + lab_pad[t[row, col]]))
    return np.stack(np.divmod(np.concatenate(found), span), axis=1)


def merge_clusters(points: Raster, labels: LabelGrid,
                   theta_xy: float, theta_z: float) -> LabelGrid:
    """Merge clusters that have at least one point pair within theta_xy in
    plan distance and theta_z in elevation; closure is transitive.

    Merged labels are renumbered contiguously from 1 in order of first
    appearance in a row-major scan.
    """
    occ = points.valid
    lab = labels.labels
    pairs = np.zeros((0, 2), dtype=lab.dtype)
    if labels.label_count > 1:
        pairs = _close_label_pairs(points, lab, theta_xy, theta_z)
    root = _components(labels.label_count + 1, pairs)
    out = np.zeros_like(lab)
    out[occ], count = _first_seen(root[lab[occ]])
    return LabelGrid(out, count)


def clean_clusters(points: Raster, labels: LabelGrid,
                   top_k: int) -> tuple[LabelGrid, Mask]:
    """Keep the top_k clusters by point count (ties keep the smaller label).

    Survivors are renumbered 1..k in order of their original labels, so a
    top_k that covers every cluster leaves the labeling unchanged.  Returns
    the cleaned labels and the survivors as a mask.
    """
    lab = labels.labels
    sizes = np.bincount(lab[lab > 0], minlength=labels.label_count + 1)[1:]
    kept = np.sort(np.argsort(-sizes, kind="stable")[:top_k]) + 1
    mapping = np.zeros(labels.label_count + 1, dtype=np.int32)
    mapping[kept] = np.arange(1, len(kept) + 1)
    out = mapping[lab]
    mask = Mask(points.width, points.height, points.cell_size_x, points.cell_size_y,
                points.origin_x, points.origin_y, (out > 0).astype(np.uint8))
    return LabelGrid(out, len(kept)), mask


def run_filter(points: Raster, params: FilterParams) -> tuple[Raster, Mask]:
    """Full filter chain: neighbors, region growing, merging, cleaning.

    Returns the retained points and the cleaned mask. The retained points are
    a subset of the input points.
    """
    diag = math.hypot(points.cell_size_x, points.cell_size_y)
    if params.theta_xy <= diag:
        warnings.warn(
            f"theta_xy={params.theta_xy} does not exceed the cell diagonal {diag:.3f}; "
            "merging cannot bridge even adjacent cells", stacklevel=2)
    neighbors = get_neighbors(points, params.theta_z)
    grown = grow_regions(points, neighbors)
    merged = merge_clusters(points, grown, params.theta_xy, params.theta_z)
    _, mask = clean_clusters(points, merged, params.top_k)
    return points.subset(mask), mask
