"""Noise removal for masked elevation points.

Spikes from vehicles, vegetation, and walls that leak into a road mask are
elevation-disconnected from the pavement.  The filter clusters points under
an elevation continuity constraint, merges clusters that are close in both
plan distance and elevation, and keeps only the largest clusters.
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np

from .grid import Mask, Raster

# 8-neighborhood offsets (di, dj), fixed enumeration order
NEIGHBOR_OFFSETS = [
    (di, dj)
    for dj in (-1, 0, 1)
    for di in (-1, 0, 1)
    if (di, dj) != (0, 0)
]


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


def get_neighbors(points: Raster, theta_z: float) -> dict[tuple[int, int], list[tuple[int, int]]]:
    """Adjacency between points on 8-connected cells whose elevation gap is
    at most theta_z (inclusive). The relation is symmetric."""
    occ = points.valid
    z = points.values
    nbrs: dict[tuple[int, int], list[tuple[int, int]]] = {p: [] for p in points.indices()}
    for di, dj in NEIGHBOR_OFFSETS:
        a, b = _shift_slices(di, dj, points.width, points.height)
        ok = occ[a] & occ[b]
        if not ok.any():
            continue
        ok &= np.abs(z[a] - z[b]) <= theta_z
        jj, ii = np.nonzero(ok)
        j0 = jj + a[0].start
        i0 = ii + a[1].start
        for i, j in zip(i0, j0):
            nbrs[(int(i), int(j))].append((int(i + di), int(j + dj)))
    for lst in nbrs.values():
        lst.sort()
    return nbrs


def grow_regions(points: Raster,
                 neighbors: dict[tuple[int, int], list[tuple[int, int]]]) -> LabelGrid:
    """Connected components of the neighbor relation.

    Labels are assigned in row-major scan order of the seed points, so the
    same input always produces the same labeling.
    """
    labels = np.zeros((points.height, points.width), dtype=np.int32)
    next_label = 0
    for i, j in points.indices():
        if labels[j, i]:
            continue
        next_label += 1
        labels[j, i] = next_label
        queue = deque([(i, j)])
        while queue:
            p = queue.popleft()
            for qi, qj in neighbors.get(p, ()):
                if labels[qj, qi] == 0:
                    labels[qj, qi] = next_label
                    queue.append((qi, qj))
    return LabelGrid(labels, next_label)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def merge_clusters(points: Raster, labels: LabelGrid,
                   theta_xy: float, theta_z: float) -> LabelGrid:
    """Merge clusters that have at least one point pair within theta_xy in
    plan distance and theta_z in elevation; closure is transitive.

    Merged labels are renumbered contiguously from 1 in order of first
    appearance in a row-major scan.
    """
    occ = points.valid
    if labels.label_count > 1:
        z = points.values
        lab = labels.labels
        xs = points.origin_x + np.arange(points.width) * points.cell_size_x
        ys = points.origin_y + np.arange(points.height) * points.cell_size_y
        x_grid = np.broadcast_to(xs, (points.height, points.width))
        y_grid = np.broadcast_to(ys[:, None], (points.height, points.width))
        uf = _UnionFind(labels.label_count + 1)
        ki = int(theta_xy / points.cell_size_x * (1 + 1e-9)) + 1
        kj = int(theta_xy / points.cell_size_y * (1 + 1e-9)) + 1
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
                if not ok.any():
                    continue
                pairs = np.unique(np.stack([lab[a][ok], lab[b][ok]], axis=1), axis=0)
                for la, lb in pairs:
                    uf.union(int(la), int(lb))
        roots = np.array([uf.find(l) for l in range(labels.label_count + 1)], dtype=np.int64)
    else:
        roots = np.arange(labels.label_count + 1, dtype=np.int64)

    # renumber by first appearance in row-major order
    seq = roots[labels.labels[occ]]
    new_id = np.zeros(labels.label_count + 1, dtype=np.int32)
    count = 0
    for r in seq:
        if new_id[r] == 0:
            count += 1
            new_id[r] = count
    out = np.zeros_like(labels.labels)
    out[occ] = new_id[seq]
    return LabelGrid(out, count)


def clean_clusters(points: Raster, labels: LabelGrid,
                   top_k: int) -> tuple[LabelGrid, Mask]:
    """Keep the top_k clusters by point count (ties keep the smaller label).

    Survivors are renumbered 1..k in order of their original labels, so a
    top_k that covers every cluster leaves the labeling unchanged.  Returns
    the cleaned labels and the survivors as a mask.
    """
    lab = labels.labels
    if labels.label_count > 0:
        sizes = np.bincount(lab[lab > 0], minlength=labels.label_count + 1)
        ranked = sorted(range(1, labels.label_count + 1), key=lambda l: (-int(sizes[l]), l))
        kept = sorted(ranked[:top_k])
        mapping = np.zeros(labels.label_count + 1, dtype=np.int32)
        for new, old in enumerate(kept, start=1):
            mapping[old] = new
        out = mapping[lab]
        kept_count = len(kept)
    else:
        out = lab.copy()
        kept_count = 0
    mask = Mask(points.width, points.height, points.cell_size_x, points.cell_size_y,
                points.origin_x, points.origin_y, (out > 0).astype(np.uint8))
    return LabelGrid(out, kept_count), mask


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
