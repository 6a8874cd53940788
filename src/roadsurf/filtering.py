"""Noise removal for masked elevation points.

Spikes from vehicles, vegetation, and walls that leak into a road mask are
elevation-disconnected from the pavement.  The filter clusters points under
an elevation continuity constraint, merges clusters that are close in both
plan distance and elevation, and keeps only the largest clusters.

Growing and merging are both connected components, of neighbor point pairs
and of cluster label pairs; one whole-array union-find serves both.  Only
points outside the largest grown cluster can pair two labels, so merging
tests only those points, grouped by label and square of cells, against the
points of other labels within reach of their group in plan and elevation,
in bounded blocks of cell pairs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .grid import Mask, Raster, blocks, check_finite, runs


# candidates, and cell pairs, per block of merge_clusters; bounds its
# temporary arrays to a few megabytes whatever theta_xy, the cell size and
# the cluster sizes
_PAIR_BLOCK = 1 << 14


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
        check_finite(self)  # NaN passes every comparison above


@dataclass
class LabelGrid:
    """Cluster labels per cell; 0 marks cells without a point or dropped points."""

    labels: np.ndarray  # (H, W) int32
    label_count: int


def get_neighbors(points: Raster, theta_z: float) -> np.ndarray:
    """Pairs of points on 8-connected cells whose elevation gap is at most
    theta_z (inclusive), as an (E, 2) int32 array of flat cell indices
    ``j * width + i``.  Each unordered pair appears once, found through the
    four forward offsets."""
    z = points.values
    h, w = z.shape
    flat = np.arange(z.size, dtype=np.int32).reshape(h, w)
    pairs = []
    for di, dj in ((1, 0), (-1, 1), (0, 1), (1, 1)):
        # the cells a that have a neighbor b at offset (di, dj), and those b;
        # a NaN gap compares false, so a cell without a point pairs with none
        a = slice(0, h - dj), slice(max(0, -di), w - max(0, di))
        b = slice(dj, h), slice(max(0, di), w - max(0, -di))
        gap = np.subtract(z[a], z[b])
        first = flat[a][np.abs(gap, out=gap) <= theta_z]
        pairs.append(np.stack([first, first + np.int32(dj * w + di)], axis=1))
    return np.concatenate(pairs)


def _components(n: int, pairs: np.ndarray) -> np.ndarray:
    """Smallest node id in the component of each of nodes 0..n-1 under the
    undirected (E, 2) pairs.  Each round hooks the larger root of every pair
    still spanning two trees onto the smaller, then jumps pointers until each
    node points at a root (Shiloach & Vishkin 1982).  Roots never exceed their
    nodes, so a component's last root is its smallest node.  A round keeps
    the pairs' roots, not their nodes: after the jumps a node's root is the
    root of its previous root."""
    root = np.arange(n, dtype=pairs.dtype)
    a, b = pairs[:, 0], pairs[:, 1]
    while len(a):
        a, b = root[a], root[b]
        apart = a != b
        a, b = a[apart], b[apart]
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
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
    the same input always produces the same labeling.  The components run
    over the points, numbered in that scan order, not over every cell.
    """
    cells = np.flatnonzero(points.valid)  # the points in scan order
    labels = np.zeros(points.values.shape, dtype=np.int32)
    flat = labels.reshape(-1)  # a view
    # each point's number, until its label overwrites it
    flat[cells] = np.arange(len(cells), dtype=np.int32)
    root = _components(len(cells), flat.take(neighbors))
    flat[cells], count = _first_seen(root)
    return LabelGrid(labels, count)


def _close_label_pairs(points: Raster, lab: np.ndarray, theta_xy: float,
                       theta_z: float) -> np.ndarray:
    """Label pairs (la, lb), la != lb, of point pairs within theta_xy in plan
    and theta_z in elevation, as an (E, 2) array with la outside the largest
    cluster; a pair may repeat.

    The points are sorted by bucket, a square of k x k cells (k the cells
    just past theta_xy), and within a bucket by elevation.  A chunk is the
    cells of one label in one bucket, for every label but the largest.  Its
    candidates are the points of other labels in its cell box grown by k
    whose elevations lie within theta_z of its elevation range, widened by
    1e-9 of the elevations' scale, more than ``z +- theta_z`` can round:
    one run of the sorted points in each of the 3 x 3 buckets around it,
    found by binary search.  The candidates of all chunks, then their pairs
    with their chunks' cells, are expanded in blocks of at most _PAIR_BLOCK,
    and a pair is kept when ``dx*dx + dy*dy <= theta_xy**2`` on the
    ``cell_to_world`` coordinates and ``abs(z_t - z_s) <= theta_z``.  One
    kept pair settles its labels, so a later block drops the candidates of
    label pairs already found.
    """
    h, w = lab.shape
    # past the grid's size, a larger k still makes one bucket; the clamp keeps
    # the int finite and in range on tiny cells
    k = int(min(theta_xy / points.cell_size * (1 + 1e-9), max(h, w))) + 1
    thr2 = theta_xy * theta_xy
    bw, bh = -(-w // k), -(-h // k)
    pj, pi = np.nonzero(points.valid)
    n = len(pj)
    by_z = np.argsort(points.values[pj, pi])
    pj, pi = pj[by_z], pi[by_z]
    z_sorted = points.values[pj, pi]
    # key = bucket * n + elevation rank, sorted; unsigned buckets of the
    # fewest bits sort by radix
    bucket = pj // k * bw + pi // k
    rank = np.argsort(bucket.astype(np.min_scalar_type(bw * bh)), kind="stable")
    key = bucket[rank] * n + rank
    pj, pi = pj[rank], pi[rank]
    px, py = points.cell_to_world(pi, pj)
    pz, pl = points.values[pj, pi], lab[pj, pi].astype(np.int64)
    span = int(pl.max()) + 1
    # the points outside the largest label, in runs of one label in one
    # bucket (chunks); a stable sort keeps each run in elevation order
    src = np.flatnonzero(pl != np.argmax(np.bincount(pl)))
    chunk_key = key[src] // n * span + pl[src]
    order = np.argsort(chunk_key, kind="stable")
    src, chunk_key = src[order], chunk_key[order]
    starts = np.flatnonzero(np.diff(chunk_key, prepend=-1))
    cells = np.diff(starts, append=len(src))
    sj, si, sz = pj[src], pi[src], pz[src]
    sx, sy = px[src], py[src]
    bj, bi = np.divmod(chunk_key[starts] // span, bw)
    label = pl[src[starts]]
    j0, j1 = np.minimum.reduceat(sj, starts) - k, np.maximum.reduceat(sj, starts) + k
    i0, i1 = np.minimum.reduceat(si, starts) - k, np.maximum.reduceat(si, starts) + k
    z_lo, z_hi = sz[starts], sz[starts + cells - 1]
    margin = theta_z + 1e-9 * (np.maximum(np.abs(z_lo), np.abs(z_hi)) + theta_z)
    # each chunk's runs of candidates, one per bucket around it
    nj = bj[:, None] + np.repeat([-1, 0, 1], 3)
    ni = bi[:, None] + np.tile([-1, 0, 1], 3)
    around = (nj * bw + ni) * n
    first = np.searchsorted(key, around + np.searchsorted(z_sorted, z_lo - margin)[:, None])
    count = np.searchsorted(key, around + np.searchsorted(z_sorted, z_hi + margin, "right")[:, None])
    count -= first
    count[(nj < 0) | (nj >= bh) | (ni < 0) | (ni >= bw)] = 0
    # the pairs (la, lb) found so far, as la * span + lb, repeated only within a block
    found = np.zeros(0, dtype=np.int64)
    for a, b in blocks(count.sum(axis=1), _PAIR_BLOCK):
        counts = count[a:b].ravel()
        t = np.repeat(first[a:b].ravel(), counts) + runs(counts)
        c = np.repeat(np.arange(a, b).repeat(9), counts)
        tj, ti = pj[t], pi[t]
        keep = pl[t] != label[c]
        keep &= (tj >= j0[c]) & (tj <= j1[c]) & (ti >= i0[c]) & (ti <= i1[c])
        if found.size:
            keep &= np.isin(label[c] * span + pl[t], found, invert=True)
        t, c = t[keep], c[keep]
        # every candidate meets every cell of its chunk
        for u, v in blocks(cells[c], _PAIR_BLOCK):
            tc, cc = t[u:v], c[u:v]
            if found.size:
                fresh = np.isin(label[cc] * span + pl[tc], found, invert=True)
                tc, cc = tc[fresh], cc[fresh]
            n_cells = cells[cc]
            pt, ps = np.repeat(tc, n_cells), np.repeat(starts[cc], n_cells) + runs(n_cells)
            d2 = np.square(px[pt] - sx[ps])
            d2 += np.square(py[pt] - sy[ps])
            near = d2 <= thr2
            gap = pz[pt] - sz[ps]
            near &= np.abs(gap, out=gap) <= theta_z
            if near.any():
                # a candidate's label pair is its chunk's label and its own,
                # so one near cell of its chunk finds it
                hit = np.logical_or.reduceat(near, np.cumsum(n_cells) - n_cells)
                found = np.concatenate([found, label[cc[hit]] * span + pl[tc[hit]]])
    la, lb = np.divmod(found, span)
    return np.stack([la, lb], axis=1)


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
    mask = Mask(points.width, points.height, points.cell_size,
                points.origin_x, points.origin_y, (out > 0).astype(np.uint8))
    return LabelGrid(out, len(kept)), mask


def run_filter(points: Raster, params: FilterParams) -> tuple[Raster, Mask]:
    """Full filter chain: neighbors, region growing, merging, cleaning.

    Returns the retained points and the cleaned mask. The retained points are
    a subset of the input points.
    """
    diag = math.hypot(points.cell_size, points.cell_size)
    if params.theta_xy <= diag:
        warnings.warn(
            f"theta_xy={params.theta_xy} does not exceed the cell diagonal {diag:.3f}; "
            "merging cannot bridge even adjacent cells", stacklevel=2)
    neighbors = get_neighbors(points, params.theta_z)
    grown = grow_regions(points, neighbors)
    merged = merge_clusters(points, grown, params.theta_xy, params.theta_z)
    _, mask = clean_clusters(points, merged, params.top_k)
    return points.subset(mask.bits == 1), mask
