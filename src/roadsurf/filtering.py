"""Noise removal for masked elevation points.

Spikes from vehicles, vegetation, and walls that leak into a road mask are
elevation-disconnected from the pavement.  The filter clusters points under
an elevation continuity constraint, merges clusters that are close in both
plan distance and elevation, and keeps only the largest clusters.

Growing and merging are both connected components, of neighbor point pairs
and of cluster label pairs; one whole-array union-find serves both.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .grid import Mask, Raster


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


def merge_clusters(points: Raster, labels: LabelGrid,
                   theta_xy: float, theta_z: float) -> LabelGrid:
    """Merge clusters that have at least one point pair within theta_xy in
    plan distance and theta_z in elevation; closure is transitive.

    Merged labels are renumbered contiguously from 1 in order of first
    appearance in a row-major scan.
    """
    occ = points.valid
    lab = labels.labels
    pairs = [np.zeros((0, 2), dtype=lab.dtype)]
    if labels.label_count > 1:
        z = points.values
        xs = points.origin_x + np.arange(points.width) * points.cell_size_x
        ys = points.origin_y + np.arange(points.height) * points.cell_size_y
        x_grid = np.broadcast_to(xs, (points.height, points.width))
        y_grid = np.broadcast_to(ys[:, None], (points.height, points.width))
        # offsets beyond the grid can never pair two cells
        ki = min(int(theta_xy / points.cell_size_x * (1 + 1e-9)) + 1, points.width - 1)
        kj = min(int(theta_xy / points.cell_size_y * (1 + 1e-9)) + 1, points.height - 1)
        thr2 = theta_xy * theta_xy
        for dj in range(0, kj + 1):
            for di in range(-ki, ki + 1):
                if dj == 0 and di <= 0:
                    continue  # each unordered pair once
                # loose prefilter on the lattice step; exact check below
                if (di * points.cell_size_x) ** 2 + (dj * points.cell_size_y) ** 2 > thr2 * (1 + 1e-6) + 1e-12:
                    continue
                a, b = _shift_slices(di, dj, points.width, points.height)
                ok = occ[a] & occ[b]
                if not ok.any():
                    continue
                ok &= np.abs(z[a] - z[b]) <= theta_z
                ok &= lab[a] != lab[b]
                dx = x_grid[b] - x_grid[a]
                dy = y_grid[b] - y_grid[a]
                ok &= dx * dx + dy * dy <= thr2
                pairs.append(np.stack([lab[a][ok], lab[b][ok]], axis=1))
    root = _components(labels.label_count + 1, np.concatenate(pairs))
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
