"""Cluster filter against brute-force oracles.

The oracles deliberately take the slow road: all-pairs loops for adjacency
and merge criteria, with connected components delegated to scipy's graph
routines.  Partitions are compared as sets of point sets so label numbering
stays a separate, explicitly tested contract.  ``loop_merge`` keeps the
whole-grid per-offset merge as a reference whose labels must be equal.
"""

import math
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from roadsurf.filtering import (
    FilterParams,
    LabelGrid,
    clean_clusters,
    get_neighbors,
    grow_regions,
    merge_clusters,
    run_filter,
)
from roadsurf import filtering, synth
from roadsurf.grid import Raster


def make_points(z, cell=1.0, origin=(0.0, 0.0)):
    z = np.asarray(z, dtype=float)
    h, w = z.shape
    return Raster(w, h, cell, origin[0], origin[1], z)


def point_cells(points):
    """Occupied (i, j) cells in row-major scan order (j outer, i inner)."""
    jj, ii = np.nonzero(points.valid)
    return [(int(i), int(j)) for j, i in zip(jj, ii)]


def adjacency(points, pairs):
    """Symmetric adjacency dict of occupied cells from flat-index pairs."""
    out = {c: [] for c in point_cells(points)}
    for a, b in pairs:
        ca = (int(a) % points.width, int(a) // points.width)
        cb = (int(b) % points.width, int(b) // points.width)
        out[ca].append(cb)
        out[cb].append(ca)
    for lst in out.values():
        lst.sort()
    return out


def assert_first_seen_numbering(points, labels):
    """Labels on occupied cells are 1, 2, ... in row-major first appearance."""
    seen = []
    for i, j in point_cells(points):
        lab = labels.labels[j, i]
        if lab not in seen:
            seen.append(lab)
    assert seen == list(range(1, labels.label_count + 1))
    assert (labels.labels[~points.valid] == 0).all()


def brute_neighbors(points, theta_z):
    """All-pairs 8-adjacency with the elevation gate."""
    cells = point_cells(points)
    out = {p: [] for p in cells}
    for a in cells:
        for b in cells:
            if a == b:
                continue
            if abs(a[0] - b[0]) <= 1 and abs(a[1] - b[1]) <= 1:
                if abs(points.values[a[1], a[0]] - points.values[b[1], b[0]]) <= theta_z:
                    out[a].append(b)
    for lst in out.values():
        lst.sort()
    return out


def partition_from_labels(labels):
    """Set of frozensets of (i, j) cells, one per nonzero label."""
    groups = {}
    jj, ii = np.nonzero(labels)
    for i, j in zip(ii, jj):
        groups.setdefault(labels[j, i], set()).add((int(i), int(j)))
    return {frozenset(g) for g in groups.values()}


def brute_components(points, theta_z):
    """Connected components of the brute-force adjacency graph."""
    cells = point_cells(points)
    index = {c: k for k, c in enumerate(cells)}
    nbrs = brute_neighbors(points, theta_z)
    rows, cols = [], []
    for a, lst in nbrs.items():
        for b in lst:
            rows.append(index[a])
            cols.append(index[b])
    n = len(cells)
    graph = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    _, comp = connected_components(graph, directed=False)
    groups = {}
    for c, k in zip(cells, comp):
        groups.setdefault(k, set()).add(c)
    return {frozenset(g) for g in groups.values()}


def brute_merge(points, labels, theta_xy, theta_z):
    """Transitive closure of the pairwise merge criterion over all point pairs."""
    cells = point_cells(points)
    n_lab = labels.label_count
    rows, cols = [], []
    for a in cells:
        xa, ya = points.cell_to_world(a[0], a[1])
        za = points.values[a[1], a[0]]
        la = labels.labels[a[1], a[0]]
        for b in cells:
            lb = labels.labels[b[1], b[0]]
            if lb == la:
                continue
            xb, yb = points.cell_to_world(b[0], b[1])
            if (xa - xb) ** 2 + (ya - yb) ** 2 > theta_xy ** 2:
                continue
            if abs(za - points.values[b[1], b[0]]) > theta_z:
                continue
            rows.append(la - 1)
            cols.append(lb - 1)
    graph = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n_lab, n_lab))
    _, comp = connected_components(graph, directed=False)
    groups = {}
    for a in cells:
        la = labels.labels[a[1], a[0]]
        groups.setdefault(comp[la - 1], set()).add(a)
    return {frozenset(g) for g in groups.values()}


def loop_merge(points, labels, theta_xy, theta_z):
    """Merged labels by the per-offset loop: one whole-grid comparison of
    shifted arrays for every offset of the half disc within theta_xy, the
    exact distance check on every pair, scipy components and first-seen
    renumbering."""
    occ = points.valid
    lab = labels.labels
    z = points.values
    h, w = lab.shape
    cell = points.cell_size
    x_grid, y_grid = np.meshgrid(points.origin_x + np.arange(w) * cell,
                                 points.origin_y + np.arange(h) * cell)
    ki = min(int(theta_xy / cell * (1 + 1e-9)) + 1, w - 1)
    kj = min(int(theta_xy / cell * (1 + 1e-9)) + 1, h - 1)
    thr2 = theta_xy * theta_xy
    rows, cols = [], []
    for dj in range(0, kj + 1):
        for di in range(-ki, ki + 1):
            if (dj == 0 and di <= 0) or (di * cell) ** 2 + (dj * cell) ** 2 > thr2 * (1 + 1e-6) + 1e-12:
                continue
            a = (slice(max(0, -dj), max(0, h - max(0, dj))),
                 slice(max(0, -di), max(0, w - max(0, di))))
            b = (slice(max(0, dj), max(0, h - max(0, -dj))),
                 slice(max(0, di), max(0, w - max(0, -di))))
            dx = x_grid[b] - x_grid[a]
            dy = y_grid[b] - y_grid[a]
            ok = (occ[a] & occ[b] & (np.abs(z[a] - z[b]) <= theta_z)
                  & (lab[a] != lab[b]) & (dx * dx + dy * dy <= thr2))
            rows += list(lab[a][ok])
            cols += list(lab[b][ok])
    n = labels.label_count + 1
    _, comp = connected_components(
        coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n)), directed=False)
    _, first, inverse = np.unique(comp[lab[occ]], return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=lab.dtype)
    rank[np.argsort(first)] = np.arange(1, len(first) + 1)
    out = np.zeros_like(lab)
    out[occ] = rank[inverse]
    return out


def random_point_grid(rng, max_side=20):
    h = int(rng.integers(3, max_side + 1))
    w = int(rng.integers(3, max_side + 1))
    z = rng.normal(0.0, 1.0, (h, w))
    # plateaus make elevation-connected blobs; gaps make separate clusters
    z[rng.random((h, w)) < 0.3] += rng.uniform(3.0, 12.0)
    z[rng.random((h, w)) < 0.35] = np.nan
    cell = float(rng.choice([0.5, 1.0, 2.0]))
    return make_points(z, cell=cell)


class TestNeighbors:
    def test_flat_pair_mutual(self):
        points = make_points([[1.0, 1.0], [np.nan, np.nan]])
        nbrs = adjacency(points, get_neighbors(points, 0.5))
        assert nbrs[(0, 0)] == [(1, 0)]
        assert nbrs[(1, 0)] == [(0, 0)]

    def test_threshold_is_inclusive(self):
        points = make_points([[0.0, 0.5], [np.nan, np.nan]])
        assert adjacency(points, get_neighbors(points, 0.5))[(0, 0)] == [(1, 0)]
        points = make_points([[0.0, 0.5 + 1e-9], [np.nan, np.nan]])
        assert adjacency(points, get_neighbors(points, 0.5))[(0, 0)] == []

    def test_no_point_no_entry(self):
        points = make_points([[1.0, np.nan], [np.nan, 1.0]])
        nbrs = adjacency(points, get_neighbors(points, 0.5))
        assert set(nbrs) == {(0, 0), (1, 1)}

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            points = random_point_grid(rng, max_side=10)
            theta_z = float(rng.uniform(0.2, 3.0))
            pairs = get_neighbors(points, theta_z)
            assert adjacency(points, pairs) == brute_neighbors(points, theta_z)
            # flat indices j * width + i, each unordered pair once, no self-pairs
            assert pairs.shape == (len(pairs), 2) and pairs.dtype == np.int32
            assert (pairs[:, 0] != pairs[:, 1]).all()
            unordered = {frozenset(map(int, p)) for p in pairs}
            assert len(unordered) == len(pairs)


class TestGrowRegions:
    def test_flat_grid_single_label(self):
        points = make_points(np.zeros((3, 3)))
        labels = grow_regions(points, get_neighbors(points, 0.5))
        assert labels.label_count == 1
        npt.assert_array_equal(labels.labels, 1)

    def test_elevated_block_splits(self):
        z = np.zeros((4, 4))
        z[1:3, 1:3] = 5.0  # 10x the threshold used below
        points = make_points(z)
        labels = grow_regions(points, get_neighbors(points, 0.5))
        assert labels.label_count == 2
        assert partition_from_labels(labels.labels) == brute_components(points, 0.5)

    def test_empty_grid(self):
        points = make_points(np.full((3, 3), np.nan))
        labels = grow_regions(points, get_neighbors(points, 0.5))
        assert labels.label_count == 0
        npt.assert_array_equal(labels.labels, 0)

    def test_labels_row_major_by_seed(self):
        z = np.array([[np.nan, 9.0], [0.0, np.nan]])
        points = make_points(z)
        labels = grow_regions(points, get_neighbors(points, 0.5))
        # scan order meets (1, 0) in row 0 first
        assert labels.labels[0, 1] == 1
        assert labels.labels[1, 0] == 2

    def test_matches_bruteforce_components(self):
        rng = np.random.default_rng(202)
        for _ in range(25):
            points = random_point_grid(rng, max_side=14)
            theta_z = float(rng.uniform(0.2, 3.0))
            labels = grow_regions(points, get_neighbors(points, theta_z))
            assert partition_from_labels(labels.labels) == \
                brute_components(points, theta_z)
            # labels only on occupied cells, contiguous from 1
            assert (labels.labels[~points.valid] == 0).all()
            present = np.unique(labels.labels[labels.labels > 0])
            npt.assert_array_equal(present, np.arange(1, labels.label_count + 1))

    @staticmethod
    def path_points(cells, shape, breaks=()):
        """One-cell-wide path whose elevation climbs 0.1 per step, so that at
        theta_z 0.15 only consecutive steps connect; a break adds a 50 m jump."""
        z = np.full(shape, np.nan)
        level = 0.0
        for step, (i, j) in enumerate(cells):
            level += 50.0 if step in breaks else 0.1
            z[j, i] = level
        return make_points(z)

    def assert_components(self, points):
        labels = grow_regions(points, get_neighbors(points, 0.15))
        assert partition_from_labels(labels.labels) == brute_components(points, 0.15)
        assert_first_seen_numbering(points, labels)
        return labels

    def test_serpentine(self):
        # rows 0, 2, ... run alternately east and west, joined at the ends
        cells = []
        for j in range(0, 30, 2):
            row = [(i, j) for i in range(30)]
            cells += row if j % 4 == 0 else row[::-1]
            if j + 2 < 30:
                cells.append((29 if j % 4 == 0 else 0, j + 1))
        for breaks in ((), (100, 301, 302)):
            labels = self.assert_components(self.path_points(cells, (30, 30), breaks))
            assert labels.label_count == len(breaks) + 1

    def test_spiral(self):
        # inward square spiral with one empty cell between its arms
        n = 30
        taken = np.zeros((n, n), dtype=bool)
        i = j = d = turns = 0
        taken[0, 0] = True
        cells = [(0, 0)]
        steps = ((1, 0), (0, 1), (-1, 0), (0, -1))
        while turns < 2:
            di, dj = steps[d]
            i1, j1, i2, j2 = i + di, j + dj, i + 2 * di, j + 2 * dj
            blocked = 0 <= i2 < n and 0 <= j2 < n and taken[j2, i2]
            if 0 <= i1 < n and 0 <= j1 < n and not (taken[j1, i1] or blocked):
                i, j = i1, j1
                taken[j, i] = True
                cells.append((i, j))
                turns = 0
            else:
                d, turns = (d + 1) % 4, turns + 1
        assert len(cells) > 400
        for breaks in ((), tuple(range(37, len(cells), 97))):
            labels = self.assert_components(self.path_points(cells, (n, n), breaks))
            assert labels.label_count == len(breaks) + 1

    def test_chains_joined_only_by_antidiagonal_steps(self):
        # cells on every third anti-diagonal: each chain's only links are
        # (-1, 1) offsets, and no two chains touch
        z = np.full((30, 30), np.nan)
        jj, ii = np.indices(z.shape)
        on = (ii + jj) % 3 == 0
        z[on] = 0.0
        points = make_points(z)
        labels = self.assert_components(points)
        assert labels.label_count == len(np.unique((ii + jj)[on]))


    def test_working_set_is_sized_by_points_not_cells(self):
        # 320 points on a 501 x 501 raster: a union-find over every cell
        # would alone take the bytes of the float64 raster
        z = np.full((501, 501), np.nan)
        z[100:110, 200:210] = 0.0
        z[300, 50:250] = 1.0
        z[450, 400:420] = 9.0
        points = make_points(z)
        neighbors = get_neighbors(points, 0.5)
        tracemalloc.start()
        try:
            labels = grow_regions(points, neighbors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert labels.label_count == 3
        assert partition_from_labels(labels.labels) == brute_components(points, 0.5)
        # the int32 labels it returns and the occupancy are 5 bytes a cell
        assert peak < z.nbytes


class TestMergeClusters:
    def test_bridges_nodata_gap(self):
        z = np.array([[0.0, np.nan, 0.0], [np.nan] * 3])
        points = make_points(z)
        labels = grow_regions(points, get_neighbors(points, 0.5))
        assert labels.label_count == 2
        merged = merge_clusters(points, labels, theta_xy=10.0, theta_z=0.5)
        assert merged.label_count == 1

    def test_planar_gap_beyond_theta_xy(self):
        z = np.full((2, 30), np.nan)
        z[0, :3] = 0.0
        z[0, -3:] = 0.0
        points = make_points(z)
        labels = grow_regions(points, get_neighbors(points, 0.5))
        merged = merge_clusters(points, labels, theta_xy=10.0, theta_z=0.5)
        assert merged.label_count == 2

    def test_elevation_gate_blocks_merge(self):
        z = np.array([[0.0, np.nan, 4.0], [np.nan] * 3])
        points = make_points(z)
        labels = grow_regions(points, get_neighbors(points, 0.5))
        merged = merge_clusters(points, labels, theta_xy=10.0, theta_z=0.5)
        assert merged.label_count == 2

    def test_single_cluster_identity(self):
        points = make_points(np.zeros((2, 2)))
        labels = grow_regions(points, get_neighbors(points, 0.5))
        merged = merge_clusters(points, labels, theta_xy=10.0, theta_z=0.5)
        npt.assert_array_equal(merged.labels, labels.labels)
        assert merged.label_count == 1

    def test_plan_distance_respects_cell_size(self):
        # same index gap, but the coarse grid puts the pair beyond theta_xy
        z = np.array([[0.0, np.nan, np.nan, 0.0], [np.nan] * 4])
        fine = make_points(z, cell=1.0)
        coarse = make_points(z, cell=5.0)
        lab_f = grow_regions(fine, get_neighbors(fine, 0.5))
        lab_c = grow_regions(coarse, get_neighbors(coarse, 0.5))
        assert merge_clusters(fine, lab_f, 10.0, 0.5).label_count == 1
        assert merge_clusters(coarse, lab_c, 10.0, 0.5).label_count == 2

    def test_matches_bruteforce_closure(self):
        rng = np.random.default_rng(303)
        for _ in range(25):
            points = random_point_grid(rng, max_side=14)
            theta_z = float(rng.uniform(0.2, 3.0))
            theta_xy = float(rng.uniform(1.5, 8.0)) * points.cell_size
            labels = grow_regions(points, get_neighbors(points, theta_z))
            merged = merge_clusters(points, labels, theta_xy, theta_z)
            assert partition_from_labels(merged.labels) == \
                brute_merge(points, labels, theta_xy, theta_z)

    def test_renumbering_row_major_first_appearance(self):
        rng = np.random.default_rng(404)
        points = random_point_grid(rng, max_side=12)
        labels = grow_regions(points, get_neighbors(points, 0.8))
        merged = merge_clusters(points, labels, 3.0, 0.8)
        seen = []
        for i, j in point_cells(points):
            lab = merged.labels[j, i]
            if lab not in seen:
                seen.append(lab)
        assert seen == list(range(1, merged.label_count + 1))

    def test_renumbering_ignores_input_label_order(self):
        rng = np.random.default_rng(405)
        for _ in range(10):
            points = random_point_grid(rng, max_side=12)
            grown = grow_regions(points, get_neighbors(points, 0.8))
            # reversed numbering: the last cluster to appear gets label 1
            flipped = np.where(grown.labels > 0, grown.label_count + 1 - grown.labels, 0)
            merged = merge_clusters(points, LabelGrid(flipped, grown.label_count), 3.0, 0.8)
            assert_first_seen_numbering(points, merged)
            npt.assert_array_equal(merged.labels,
                                   merge_clusters(points, grown, 3.0, 0.8).labels)

    def test_theta_xy_beyond_the_grid_is_bounded(self, time_limit):
        rng = np.random.default_rng(505)
        z = np.where(rng.random((5, 5)) < 0.6, rng.choice([0.0, 0.3, 9.0], (5, 5)), np.nan)
        points = make_points(z)
        labels = grow_regions(points, get_neighbors(points, 0.5))
        assert labels.label_count > 1
        spanning = merge_clusters(points, labels, 6.0, 0.5)  # 6 m > the 5.7 m diagonal
        with time_limit(5, "merge_clusters did not bound its offsets by the grid"):
            huge = merge_clusters(points, labels, 1e9, 0.5)
        npt.assert_array_equal(huge.labels, spanning.labels)
        assert huge.label_count == spanning.label_count

    @pytest.mark.parametrize("cell", [1e-300, 1e-320])
    def test_tiny_cells_merge_as_one_bucket(self, cell):
        # theta_xy / cell is past int64 at 1e-300 and infinite at 1e-320; every
        # point lies within theta_xy, as on 1 m cells with theta_xy past the
        # 7.1 m diagonal, so only the elevation gate keeps clusters apart
        z = np.full((6, 6), np.nan)
        z[:2, :2] = 0.0
        z[4:, 4:] = 0.3
        z[0, 5] = 9.0
        tiny = make_points(z, cell=cell)
        labels = grow_regions(tiny, get_neighbors(tiny, 0.5))
        assert labels.label_count == 3
        merged = merge_clusters(tiny, labels, 10.0, 0.5)
        assert merged.label_count == 2
        unit = make_points(z)
        npt.assert_array_equal(merged.labels,
                               merge_clusters(unit, labels, 10.0, 0.5).labels)


    def test_square_cells_match_bruteforce(self):
        rng = np.random.default_rng(606)
        for cell in (0.5, 2.0, 0.4):
            for _ in range(6):
                grid = random_point_grid(rng, max_side=14)
                points = Raster(grid.width, grid.height, cell, 3.0, -7.0, grid.values)
                theta_z = float(rng.uniform(0.2, 3.0))
                theta_xy = float(rng.uniform(1.5, 6.0)) * cell
                labels = grow_regions(points, get_neighbors(points, theta_z))
                merged = merge_clusters(points, labels, theta_xy, theta_z)
                assert partition_from_labels(merged.labels) == \
                    brute_merge(points, labels, theta_xy, theta_z)
                npt.assert_array_equal(merged.labels,
                                       loop_merge(points, labels, theta_xy, theta_z))

    def test_two_clusters_tied_for_the_largest(self):
        # two 6-cell clusters 4 m apart across empty columns, a one-cell
        # cluster near the first and one out of reach in elevation
        z = np.full((6, 20), np.nan)
        z[0:2, 0:3] = 0.0
        z[0:2, 6:9] = 0.2
        z[4, 2] = 0.4
        z[5, 12] = 5.0
        points = make_points(z)
        grown = grow_regions(points, get_neighbors(points, 0.5))
        sizes = np.bincount(grown.labels[points.valid])
        assert sizes[1] == sizes[2] == sizes.max()
        # either tied cluster may be the one whose cells are not looked up
        flipped = np.where(grown.labels > 0, grown.label_count + 1 - grown.labels, 0)
        for labels in (grown, LabelGrid(flipped, grown.label_count)):
            merged = merge_clusters(points, labels, 4.0, 0.5)
            assert partition_from_labels(merged.labels) == brute_merge(points, labels, 4.0, 0.5)
            assert merged.labels[0, 0] == merged.labels[0, 6] == merged.labels[4, 2]
            assert merged.label_count == 2

    @pytest.mark.parametrize("offset, theta_xy", [((4, 0), 1.6), ((0, 4), 1.6), ((3, 4), 2.0)])
    def test_utm_origin_pairs_exactly_theta_xy_apart(self, offset, theta_xy):
        # 0.4 m cells at x0 = 5e5, y0 = 5.4e6: every pair is exactly theta_xy
        # apart on the lattice, and the rounding of its world coordinates puts
        # it a hair inside or outside; only the exact check decides
        di, dj = offset
        pairs = 40
        # pair k starts 9 k cells along the row (or column), and 0-8 cells
        # across it; 9-cell strides keep the pairs out of each other's reach
        z = np.full((9 * pairs, 13), np.nan) if dj and not di else np.full((13, 9 * pairs), np.nan)
        for k in range(pairs):
            i, j = (k % 9, 9 * k) if dj and not di else (9 * k, k % 9)
            z[j, i] = z[j + dj, i + di] = 0.0
        points = make_points(z, cell=0.4, origin=(5e5, 5.4e6))
        labels = grow_regions(points, get_neighbors(points, 0.5))
        assert labels.label_count == 2 * pairs
        merged = merge_clusters(points, labels, theta_xy, 0.5)
        assert partition_from_labels(merged.labels) == \
            brute_merge(points, labels, theta_xy, 0.5)
        assert pairs < merged.label_count < 2 * pairs  # both outcomes occur
        npt.assert_array_equal(merged.labels, loop_merge(points, labels, theta_xy, 0.5))

    @pytest.mark.parametrize("cell_size, theta_xy", [(1.0, 10.0), (1.0, 3.0), (0.4, 10.0)])
    def test_equals_the_per_offset_loop_on_synth_tiles(self, cell_size, theta_xy):
        for seed in (1, 2) if cell_size == 1.0 else (1, 2, 3):
            scene = synth.generate(synth.SceneSpec(
                cell_size=cell_size, vehicles=6, trees=8, facades=2,
                corrupt_mask=True, jitter_sigma=0.02, seed=seed))
            points = scene.dsm.subset(scene.mask.bits == 1)
            labels = grow_regions(points, get_neighbors(points, 0.5))
            assert labels.label_count > 1
            merged = merge_clusters(points, labels, theta_xy, 0.5)
            npt.assert_array_equal(merged.labels, loop_merge(points, labels, theta_xy, 0.5))

    @staticmethod
    def edge_of_theta_z(height, theta_z, up):
        """The float farthest above (or below) height still within theta_z
        of it by the filter's test, ``abs(a - b) <= theta_z``."""
        away = np.inf if up else -np.inf
        z = height + theta_z if up else height - theta_z
        while abs(height - z) > theta_z:
            z = np.nextafter(z, -away)
        while abs(height - np.nextafter(z, away)) <= theta_z:
            z = np.nextafter(z, away)
        return z

    @pytest.mark.parametrize("width", [1, 9])
    @pytest.mark.parametrize("theta_z, height", [
        (0.5, 4321.0987), (0.3, 9876.54321), (0.1, 1234.5),
        # heights at which z +- theta_z rounds past one of the two edges
        (0.5, -0.1533471020548487), (0.3, 0.24594227001676727),
        (0.1, -0.04572374668373813)])
    def test_elevation_gaps_exactly_theta_z(self, theta_z, height, width):
        # clusters of one row of cells exactly theta_xy (5 cells of 0.4 m)
        # beyond a strip that is the largest cluster, at UTM coordinates that
        # round the distance a hair either way, on the last float within
        # theta_z of the strip's height above or below it, or on the next
        # one out; one cluster of one cell or nine per 16 columns; the strip
        # is never visited, so only the clusters' own candidate search can
        # pair them
        count = 24
        z = np.full((6, 16 * count), np.nan)
        z[0] = height
        edges = [self.edge_of_theta_z(height, theta_z, up) for up in (True, False)]
        for n in range(count):
            edge = edges[n % 2]
            z[5, 16 * n + 3:16 * n + 3 + width] = (
                edge if n % 4 < 2 else np.nextafter(edge, edge - height))
        points = make_points(z, cell=0.4, origin=(5e5, 5.4e6))
        labels = grow_regions(points, get_neighbors(points, theta_z))
        assert labels.label_count == 1 + count
        merged = merge_clusters(points, labels, 2.0, theta_z)
        assert 1 < merged.label_count < 1 + count  # both outcomes occur
        npt.assert_array_equal(merged.labels, loop_merge(points, labels, 2.0, theta_z))

    @pytest.mark.parametrize("turns", [0, 1, 2, 3])
    def test_long_cluster_reaches_the_largest_past_its_squares(self, turns):
        # a 45-cell line whose far end alone is within reach of the largest
        # cluster, on each of the four sides; the largest cluster is never
        # visited, so the line's last square must find it
        z = np.full((70, 70), np.nan)
        z[5:50, 30] = 0.0
        z[52:67, 23:38] = 0.0
        points = make_points(np.rot90(z, turns))
        labels = grow_regions(points, get_neighbors(points, 0.5))
        assert labels.label_count == 2
        merged = merge_clusters(points, labels, 3.5, 0.5)
        assert merged.label_count == 1
        npt.assert_array_equal(merged.labels, loop_merge(points, labels, 3.5, 0.5))

    def test_clusters_wider_than_their_squares(self):
        # clusters spanning several squares of their cell box, of two
        # elevation levels, so that the squares' elevation ranges differ
        rng = np.random.default_rng(808)
        for _ in range(4):
            z = np.where(rng.random((50, 60)) < 0.8, 0.0, np.nan)
            z[:, 20:40] += rng.choice([0.0, 0.4, 3.0], (50, 1))
            z[rng.random(z.shape) < 0.05] = 9.0
            points = make_points(z, cell=0.5)
            labels = grow_regions(points, get_neighbors(points, 0.3))
            merged = merge_clusters(points, labels, 2.0, 0.3)
            npt.assert_array_equal(merged.labels, loop_merge(points, labels, 2.0, 0.3))

    @pytest.mark.parametrize("share", [0.1, 0.02])
    def test_fields_of_one_cell_clusters(self, share):
        # isolated cells at three heights, within reach of each other and of
        # a flat block, the largest cluster: hundreds of one-cell chunks
        rng = np.random.default_rng(909)
        z = np.full((60, 70), np.nan)
        z[20:40, 25:45] = 0.0
        spikes = rng.random(z.shape) < share
        z[spikes] = rng.choice([0.0, 3.0, 6.0], spikes.sum())
        points = make_points(z, cell=0.5, origin=(5e5, 5.4e6))
        labels = grow_regions(points, get_neighbors(points, 0.5))
        assert labels.label_count > 50
        for theta_xy in (1.5, 4.0):
            merged = merge_clusters(points, labels, theta_xy, 0.5)
            npt.assert_array_equal(merged.labels, loop_merge(points, labels, theta_xy, 0.5))

    def test_two_long_strips_pair_only_near_their_gap(self, time_limit):
        # two 19 x 4000 cell strips, one of them not the largest, across a
        # two-row gap: testing the whole of one against every cell of the
        # other within reach of its cell box would take 3e8 cell pairs
        z = np.zeros((40, 4000))
        z[19:21] = np.nan
        z[21, :10] = np.nan  # the upper strip is the largest
        points = make_points(z)
        labels = grow_regions(points, get_neighbors(points, 0.5))
        assert labels.label_count == 2
        with time_limit(5, "merge_clusters tested a whole cluster against its box"):
            merged = merge_clusters(points, labels, 3.0, 0.5)
        assert merged.label_count == 1

    def test_a_found_label_pair_is_not_tested_again(self, monkeypatch):
        # two flat halves of a 251 x 251 tile at 0.4 m across a two-column
        # gap: each chunk along the gap meets about 2,000 cells of the other
        # half, and expanding every candidate against every cell of its
        # chunk takes 11,467,314 candidates and cell pairs, though the first
        # hit settles the one label pair
        z = np.zeros((251, 251))
        z[:, 125:127] = np.nan
        points = make_points(z, cell=0.4)
        labels = grow_regions(points, get_neighbors(points, 0.5))
        assert labels.label_count == 2
        expanded = []
        runs = filtering.runs

        def counted(counts):
            out = runs(counts)
            expanded.append(out.size)
            return out

        monkeypatch.setattr(filtering, "runs", counted)
        merged = merge_clusters(points, labels, 10.0, 0.5)
        assert merged.label_count == 1
        assert sum(expanded) < 11_467_314 // 10

    def test_merge_call_stays_within_a_few_megabytes(self):
        scene = synth.generate(synth.SceneSpec(
            cell_size=0.4, vehicles=6, trees=8, facades=2,
            corrupt_mask=True, jitter_sigma=0.02, seed=1))  # 251 x 251
        points = scene.dsm.subset(scene.mask.bits == 1)
        labels = grow_regions(points, get_neighbors(points, 0.5))
        merge_clusters(points, labels, 10.0, 0.5)
        tracemalloc.start()
        try:
            merge_clusters(points, labels, 10.0, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # bounded by the pair blocks, not by theta_xy's disc times the cells
        assert peak < 4e6


class TestCleanClusters:
    def make_three_clusters(self):
        # sizes 100, 10, 5 in separate elevation bands
        z = np.full((10, 30), np.nan)
        z[:10, :10] = 0.0      # 100 cells
        z[0, 15:25] = 100.0    # 10 cells
        z[5, 25:30] = 200.0    # 5 cells
        points = make_points(z)
        labels = grow_regions(points, get_neighbors(points, 0.5))
        assert labels.label_count == 3
        return points, labels

    def test_top1_keeps_largest(self):
        points, labels = self.make_three_clusters()
        cleaned, mask = clean_clusters(points, labels, top_k=1)
        assert cleaned.label_count == 1
        assert mask.count == 100
        assert (cleaned.labels[mask.bits == 1] == 1).all()

    def test_topk_covering_all_is_identity(self):
        points, labels = self.make_three_clusters()
        cleaned, mask = clean_clusters(points, labels, top_k=5)
        npt.assert_array_equal(cleaned.labels, labels.labels)
        assert mask.count == points.count

    def test_single_cluster_mask_equals_occupancy(self):
        z = np.where(np.random.default_rng(5).random((6, 6)) < 0.7, 1.0, np.nan)
        points = make_points(z)
        labels = grow_regions(points, get_neighbors(points, 0.5))
        merged = merge_clusters(points, labels, 50.0, 0.5)
        assert merged.label_count == 1
        _, mask = clean_clusters(points, merged, top_k=1)
        npt.assert_array_equal(mask.bits.astype(bool), points.valid)

    def test_tie_keeps_smaller_label(self):
        z = np.full((2, 5), np.nan)
        z[0, :2] = 0.0
        z[0, 3:] = 50.0
        points = make_points(z)
        labels = grow_regions(points, get_neighbors(points, 0.5))
        cleaned, _ = clean_clusters(points, labels, top_k=1)
        assert cleaned.labels[0, 0] == 1
        assert cleaned.labels[0, 3] == 0

    def test_empty_labels(self):
        points = make_points(np.full((2, 2), np.nan))
        labels = grow_regions(points, get_neighbors(points, 0.5))
        cleaned, mask = clean_clusters(points, labels, top_k=1)
        assert cleaned.label_count == 0
        assert mask.count == 0


class TestRunFilter:
    def ribbon_with_spikes(self, n_spikes=20, spike_height=1.8):
        """Flat road band plus isolated single-cell roof spikes."""
        rng = np.random.default_rng(99)
        z = np.full((20, 100), np.nan)
        z[8:13, :] = 0.0
        road = ~np.isnan(z)
        spots = rng.choice(np.flatnonzero(road), size=n_spikes, replace=False)
        spiked = np.zeros_like(road)
        spiked.flat[spots] = True
        z[spiked] = spike_height
        return make_points(z), road, spiked

    def test_spikes_removed_road_retained(self):
        points, road, spiked = self.ribbon_with_spikes()
        filtered, mask = run_filter(points, FilterParams())
        kept = mask.bits.astype(bool)
        assert not (kept & spiked).any()
        clean = road & ~spiked
        retention = (kept & clean).sum() / clean.sum()
        assert retention >= 0.99

    def test_clean_connected_road_idempotent(self):
        z = np.full((9, 9), np.nan)
        z[3:6, :] = 0.1 * np.arange(9)  # gentle cross slope, still connected
        points = make_points(z)
        filtered, mask = run_filter(points, FilterParams())
        npt.assert_array_equal(mask.bits.astype(bool), points.valid)
        npt.assert_allclose(filtered.values, points.values, equal_nan=True)

    def test_huge_theta_z_single_cluster(self):
        rng = np.random.default_rng(17)
        z = rng.uniform(0.0, 8.0, (12, 12))  # rough, but far below 10 m gaps
        points = make_points(z)
        _, mask = run_filter(points, FilterParams(theta_z=10.0))
        npt.assert_array_equal(mask.bits, 1)

    def test_filtered_points_subset(self):
        points, _, _ = self.ribbon_with_spikes()
        filtered, mask = run_filter(points, FilterParams())
        on = filtered.valid
        npt.assert_array_equal(on, mask.bits.astype(bool))
        npt.assert_allclose(filtered.values[on], points.values[on])

    def test_tiny_theta_xy_warns(self):
        points = make_points(np.zeros((3, 3)), cell=2.0)
        diagonal = math.hypot(2.0, 2.0)
        for theta_xy in (2.0, diagonal):  # one that equals the diagonal warns too
            with pytest.warns(UserWarning, match="cell diagonal"):
                run_filter(points, FilterParams(theta_xy=theta_xy))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_filter(points, FilterParams(theta_xy=math.nextafter(diagonal, math.inf)))

    def test_param_validation(self):
        with pytest.raises(ValueError, match="positive"):
            FilterParams(theta_xy=0.0)
        with pytest.raises(ValueError, match="positive"):
            FilterParams(theta_z=-1.0)
        with pytest.raises(ValueError, match="top_k"):
            FilterParams(top_k=0)

    @pytest.mark.parametrize("name", ["theta_xy", "theta_z", "top_k"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_params_are_rejected(self, name, value):
        # NaN passes the sign checks; unchecked, a NaN theta_z would keep one
        # cell of a road and a NaN theta_xy fail converting the reach to cells
        with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
            FilterParams(**{name: value})
