"""B-spline surface tests.

Basis values are checked against a naive textbook recursion, and their
nonzero windows against a linear span scan, both written independently of
the production whole-array triangular algorithm.  ``evaluate``, a pointwise
sum over full basis rows, is checked against hand computed bilinear and
Bezier values and is then the reference for ``evaluate_grid``, whose
tracemalloc peak on a 401 x 321 lattice must stay below 1.5 output grids.
The text writer is checked byte for byte against a formatter that converts
one numpy scalar at a time, and the reader must name the line that set a
value the NurbsSurface constructor rejects.
"""

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadsurf.grid import FieldError, Raster
from roadsurf.nurbs import (
    NurbsSurface,
    basis_matrix,
    evaluate_grid,
    grid_basis,
    load_surface,
    save_surface,
    uniform_clamped_knots,
)


def rasterize(surface, template):
    """Surface heights at every cell center of the template grid."""
    xs, ys = template.cell_to_world(np.arange(template.width), np.arange(template.height))
    values = evaluate_grid(surface, xs, ys)
    return Raster(template.width, template.height, template.cell_size,
                  template.origin_x, template.origin_y, values)


def control_points(surface):
    """(nu, nv, 3) control points: the np.linspace lattice over the extent
    and the elevations."""
    x0, x1, y0, y1 = surface.extent
    xs = np.linspace(x0, x1, surface.num_ctrl_u)
    ys = np.linspace(y0, y1, surface.num_ctrl_v)
    return np.array([[[x, y, z] for y, z in zip(ys, row)]
                     for x, row in zip(xs, surface.control_z)])


def evaluate(surface, u, v):
    """Surface point at parameter (u, v) as an xyz array, from full basis
    rows whose entries outside the active window are exact zeros."""
    knots_u, knots_v = surface.knots()
    bu = basis_matrix(knots_u, surface.degree, [u])[0]
    bv = basis_matrix(knots_v, surface.degree, [v])[0]
    return np.tensordot(np.outer(bu, bv), control_points(surface), axes=([0, 1], [0, 1]))


def naive_basis(knots, degree, i, u):
    """Cox-de Boor recursion, one basis function at a time.

    Degree-0 boxes are half-open on the right except the last nonempty box,
    which also contains the upper domain end.
    """
    hi = knots[-1]
    if degree == 0:
        if knots[i] <= u < knots[i + 1]:
            return 1.0
        if u == hi and knots[i + 1] == hi and knots[i] < knots[i + 1]:
            return 1.0
        return 0.0
    left_den = knots[i + degree] - knots[i]
    right_den = knots[i + degree + 1] - knots[i + 1]
    total = 0.0
    if left_den > 0:
        total += (u - knots[i]) / left_den * naive_basis(knots, degree - 1, i, u)
    if right_den > 0:
        total += (knots[i + degree + 1] - u) / right_den * naive_basis(knots, degree - 1, i + 1, u)
    return total


def span_by_scan(knots, degree, u):
    n = len(knots) - degree - 2
    if u >= knots[n + 1]:
        return n
    if u <= knots[degree]:
        return degree
    for s in range(degree, n + 1):
        if knots[s] <= u < knots[s + 1]:
            return s
    raise AssertionError("unreachable")


def random_lattice(rng, num_u=None, num_v=None, degree=None):
    degree = degree if degree is not None else int(rng.integers(1, 4))
    num_u = num_u if num_u is not None else int(rng.integers(degree + 1, 8))
    num_v = num_v if num_v is not None else int(rng.integers(degree + 1, 8))
    z = rng.normal(2.0, 1.5, size=(num_u, num_v))
    return NurbsSurface((0.0, 6.0, -3.0, 5.0), degree, z)


class TestKnots:
    def test_bezier_case(self):
        np.testing.assert_array_equal(
            uniform_clamped_knots(4, 3),
            [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0])

    def test_interior_knots_evenly_spaced(self):
        np.testing.assert_allclose(
            uniform_clamped_knots(6, 3),
            [0, 0, 0, 0, 1 / 3, 2 / 3, 1, 1, 1, 1], atol=1e-15)


def basis_row(knots, degree, u):
    """basis_matrix at u, checked against the scan span and the naive
    recursion; returns the row and the span."""
    row = basis_matrix(knots, degree, np.array([u]))[0]
    span = span_by_scan(knots, degree, u)
    outside = np.ones(row.size, dtype=bool)
    outside[span - degree: span + 1] = False
    assert (row[outside] == 0).all()
    expected = [naive_basis(knots, degree, i, u) for i in range(row.size)]
    np.testing.assert_allclose(row, expected, atol=1e-12)
    return row, span


class TestFindSpan:
    def test_interior_knot_starts_right_span(self):
        knots = uniform_clamped_knots(5, 3)  # one interior knot at 0.5
        assert basis_row(knots, 3, 0.5)[1] == 4
        assert basis_row(knots, 3, 0.5 - 1e-12)[1] == 3

    def test_domain_ends(self):
        knots = uniform_clamped_knots(6, 2)
        row, span = basis_row(knots, 2, 0.0)
        assert span == 2 and row[0] == 1.0
        row, span = basis_row(knots, 2, 1.0)
        assert span == len(knots) - 2 - 2 and row[-1] == 1.0

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            degree = int(rng.integers(1, 4))
            num = int(rng.integers(degree + 1, 10))
            knots = uniform_clamped_knots(num, degree)
            queries = np.concatenate([rng.uniform(0, 1, 12), np.unique(knots)])
            rows = basis_matrix(knots, degree, queries)  # all queries in one call
            for u, row in zip(queries, rows):
                span = span_by_scan(knots, degree, float(u))
                assert (np.flatnonzero(row) >= span - degree).all()
                assert (np.flatnonzero(row) <= span).all()
                assert abs(row.sum() - 1.0) <= 1e-12


class TestBasisFunctions:
    def test_matches_naive_recursion(self):
        rng = np.random.default_rng(4)
        knot_vectors = []
        for _ in range(25):
            degree = int(rng.integers(1, 4))
            knot_vectors.append((uniform_clamped_knots(int(rng.integers(degree + 1, 9)), degree),
                                 degree))
        # repeated interior knots, up to full multiplicity
        knot_vectors += [
            (np.array([0, 0, 0, 0, 0.3, 0.3, 0.7, 1, 1, 1, 1.0]), 3),
            (np.array([0, 0, 0, 0.5, 0.5, 1, 1, 1.0]), 2),
            (np.array([0, 0, 0.25, 0.25, 0.6, 1, 1.0]), 1),
            (np.array([0, 0, 0, 0, 0, 0.4, 0.4, 0.4, 1, 1, 1, 1, 1.0]), 4),
        ]
        for knots, degree in knot_vectors:
            queries = np.concatenate([rng.uniform(0, 1, 10), np.unique(knots)])
            rows = basis_matrix(knots, degree, queries)
            for u, row in zip(queries, rows):
                np.testing.assert_array_equal(row, basis_row(knots, degree, float(u))[0])

    def test_degree_zero_box_convention(self):
        knots = np.array([0.0, 0.5, 1.0])
        assert basis_row(knots, 0, 0.25)[1] == 0
        # the shared knot belongs to the right box
        assert basis_row(knots, 0, 0.5)[1] == 1
        # the final box is closed at the domain end
        np.testing.assert_array_equal(
            basis_matrix(knots, 0, np.array([0.25, 0.5, 1.0])), [[1, 0], [0, 1], [0, 1]])

    @settings(max_examples=60, deadline=None)
    @given(num=st.integers(4, 9), degree=st.integers(1, 3),
           t=st.floats(0.0, 1.0, allow_nan=False))
    def test_window_is_a_partition_of_unity(self, num, degree, t):
        knots = uniform_clamped_knots(num, degree)
        row = basis_matrix(knots, degree, np.array([t]))[0]
        span = span_by_scan(knots, degree, t)
        assert np.flatnonzero(row).min() >= span - degree
        assert np.flatnonzero(row).max() <= span
        assert abs(row.sum() - 1.0) <= 1e-12
        assert (row >= -1e-15).all()

    def test_outside_domain_raises(self):
        knots = uniform_clamped_knots(5, 2)
        with pytest.raises(ValueError, match=r"^parameter 1\.5 outside domain \[0\.0, 1\.0\]$"):
            basis_matrix(knots, 2, np.array([0.5, 1.5]))
        with pytest.raises(ValueError, match="outside domain"):
            basis_matrix(knots, 2, np.array([-0.2]))


class TestSurfaceValidation:
    def kwargs(self):
        return dict(extent=(0.0, 1.0, 0.0, 1.0), degree=1, control_z=np.zeros((2, 3)))

    def test_valid_config_accepted(self):
        NurbsSurface(**self.kwargs())

    def test_rejects_bad_control_shape(self):
        kw = self.kwargs()
        kw["control_z"] = np.zeros((2, 2, 3))
        with pytest.raises(ValueError, match="shape"):
            NurbsSurface(**kw)

    def test_rejects_degree_zero(self):
        kw = self.kwargs()
        kw["degree"] = 0
        with pytest.raises(ValueError, match="^degree must be at least 1$"):
            NurbsSurface(**kw)

    def test_rejects_too_few_control_points_for_the_degree(self):
        # the smaller count of the 2 x 3 net is the one that falls short
        kw = self.kwargs()
        kw["degree"] = 2
        with pytest.raises(ValueError, match="^degree 2 needs at least 3 control points, got 2$"):
            NurbsSurface(**kw)

    @pytest.mark.parametrize("extent", [(1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 1.0, 1.0),
                                        (0.0, np.inf, 0.0, 1.0), (np.nan, 1.0, 0.0, 1.0)])
    def test_rejects_an_extent_that_is_not_a_rectangle(self, extent):
        kw = self.kwargs()
        kw["extent"] = extent
        with pytest.raises(ValueError, match="extent"):
            NurbsSurface(**kw)

    def test_a_rejected_array_field_names_its_first_bad_element(self):
        kw = self.kwargs()
        kw["control_z"] = np.array([[0.0, 1.0, 2.0], [np.inf, 0.0, np.nan]])
        with pytest.raises(FieldError) as err:
            NurbsSurface(**kw)
        assert (err.value.keys, err.value.index) == (("control_z",), 3)  # C order

    def test_replace_revalidates(self):
        surf = NurbsSurface(**self.kwargs())
        with pytest.raises(ValueError, match="finite"):
            replace(surf, control_z=np.full((2, 3), np.nan))


class TestEvaluate:
    def test_bilinear_midpoint(self):
        surf = NurbsSurface((0.0, 2.0, 0.0, 10.0), 1, np.array([[0.0, 1.0], [2.0, 4.0]]))
        np.testing.assert_allclose(evaluate(surf, 0.5, 0.5), [1.0, 5.0, 1.75], atol=1e-12)

    def test_quadratic_ridge_midpoint(self):
        z = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        surf = NurbsSurface((0.0, 4.0, 0.0, 1.0), 2, z)
        for v in (0.0, 0.3, 1.0):
            point = evaluate(surf, 0.5, v)
            assert point[0] == pytest.approx(2.0, abs=1e-12)
            assert point[2] == pytest.approx(0.5, abs=1e-12)

    def test_corners_interpolate_control_net(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            surf = random_lattice(rng)
            net = control_points(surf)
            np.testing.assert_allclose(evaluate(surf, 0.0, 0.0), net[0, 0], atol=1e-9)
            np.testing.assert_allclose(evaluate(surf, 1.0, 0.0), net[-1, 0], atol=1e-9)
            np.testing.assert_allclose(evaluate(surf, 0.0, 1.0), net[0, -1], atol=1e-9)
            np.testing.assert_allclose(evaluate(surf, 1.0, 1.0), net[-1, -1], atol=1e-9)

    def test_constant_control_z_gives_constant_height(self):
        rng = np.random.default_rng(7)
        surf = random_lattice(rng)
        flat = replace(surf, control_z=np.full((surf.num_ctrl_u, surf.num_ctrl_v), 4.25))
        for _ in range(200):
            u, v = rng.uniform(0.0, 1.0, 2)
            assert evaluate(flat, u, v)[2] == pytest.approx(4.25, abs=1e-12)


class TestGridEvaluation:
    def test_matches_pointwise_evaluation(self):
        rng = np.random.default_rng(12)
        surf = random_lattice(rng)
        x0, x1, y0, y1 = surf.extent
        xs = np.linspace(x0, x1, 7)
        ys = np.linspace(y0, y1, 5)
        grid = evaluate_grid(surf, xs, ys)
        assert grid.shape == (5, 7)
        for r, y in enumerate(ys):
            for c, x in enumerate(xs):
                u, v = (x - x0) / (x1 - x0), (y - y0) / (y1 - y0)
                assert grid[r, c] == pytest.approx(evaluate(surf, u, v)[2], abs=1e-12)

    # the ids keep the case names the test had when each case held two degrees
    @pytest.mark.parametrize("shape, degree, nodes", [
        ((35, 35), 3, (11, 11)),  # the 10 m terrain lattice of a 100 m tile: 32 spans
        ((12, 5), 1, (4, 9)),     # 11 spans, 7 of them empty
        ((4, 4), 3, (6, 3)),      # one span
        ((9, 7), 2, (30, 2)),     # spans of 4 and 5 columns
    ], ids=[f"shape{k}-degrees{k}-nodes{k}" for k in range(4)])
    def test_sparse_lattices_match_pointwise_evaluation(self, shape, degree, nodes):
        rng = np.random.default_rng(sum(shape + nodes) + degree)
        surf = NurbsSurface((-20.0, 80.0, 5.0, 45.0), degree, rng.normal(100.0, 3.0, shape))
        x0, x1, y0, y1 = surf.extent
        for order in (np.arange(nodes[0]), rng.permutation(nodes[0])):  # columns in any order
            xs = np.linspace(x0, x1, nodes[0])[order]
            ys = np.linspace(y0, y1, nodes[1])
            grid = evaluate_grid(surf, xs, ys)
            assert grid.shape == (len(ys), len(xs)) and grid.flags.c_contiguous
            for r, y in enumerate(ys):
                for c, x in enumerate(xs):
                    u, v = (x - x0) / (x1 - x0), (y - y0) / (y1 - y0)
                    assert grid[r, c] == pytest.approx(evaluate(surf, u, v)[2], rel=1e-13)

    def test_sampling_peaks_below_one_and_a_half_output_grids(self):
        # the height grid, the two dense bases and the product of one with
        # the elevations
        rng = np.random.default_rng(17)
        surf = NurbsSurface((0.0, 200.0, 0.0, 160.0), 3, rng.normal(100.0, 3.0, (35, 35)))
        xs, ys = np.linspace(0.0, 200.0, 401), np.linspace(0.0, 160.0, 321)
        evaluate_grid(surf, xs, ys)
        tracemalloc.start()
        try:
            evaluate_grid(surf, xs, ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * len(xs) * len(ys) * 8

    def test_query_outside_extent_raises(self):
        rng = np.random.default_rng(13)
        surf = random_lattice(rng)
        x0, x1, y0, y1 = surf.extent
        with pytest.raises(ValueError, match="outside the surface extent"):
            evaluate_grid(surf, np.array([x1 + 1.0]), np.array([y0]))

    def test_rasterize_constant_surface(self):
        surf = NurbsSurface((0.0, 4.0, 0.0, 3.0), 3, np.full((4, 4), 2.5))
        template = Raster(5, 4, 1.0, 0.0, 0.0, np.zeros((4, 5)))
        out = rasterize(surf, template)
        np.testing.assert_allclose(out.values, 2.5, atol=1e-12)
        assert (out.width, out.height) == (5, 4)
        assert (out.origin_x, out.origin_y) == (0.0, 0.0)

    def test_rasterize_bilinear_corners(self):
        z = np.array([[1.0, 3.0], [5.0, 9.0]])
        surf = NurbsSurface((0.0, 4.0, 0.0, 3.0), 1, z)
        template = Raster(5, 4, 1.0, 0.0, 0.0, np.zeros((4, 5)))
        out = rasterize(surf, template)
        # row 0 is the southern row, so the y=0 lattice edge lands there
        assert out.values[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert out.values[0, -1] == pytest.approx(5.0, abs=1e-12)
        assert out.values[-1, 0] == pytest.approx(3.0, abs=1e-12)
        assert out.values[-1, -1] == pytest.approx(9.0, abs=1e-12)


class TestWorldToParam:
    """The affine map from world x/y onto the domain, through grid_basis: a
    basis row of the domain start is the first unit vector, of the domain
    end the last one."""

    def test_extent_corners_hit_domain_ends(self):
        rng = np.random.default_rng(14)
        surf = random_lattice(rng)
        x0, x1, y0, y1 = surf.extent
        bu, bv = grid_basis(surf, np.array([x0, x1]), np.array([y0, y1]))
        np.testing.assert_array_equal(bu, np.eye(surf.num_ctrl_u)[[0, -1]])
        np.testing.assert_array_equal(bv, np.eye(surf.num_ctrl_v)[[0, -1]])

    def test_small_overhang_is_clamped(self):
        rng = np.random.default_rng(15)
        surf = random_lattice(rng)
        x0, x1, y0, y1 = surf.extent
        bu, bv = grid_basis(surf, np.array([x1 + 1e-7 * (x1 - x0)]),
                            np.array([y0 - 1e-7 * (y1 - y0)]))
        np.testing.assert_array_equal(bu, np.eye(surf.num_ctrl_u)[[-1]])
        np.testing.assert_array_equal(bv, np.eye(surf.num_ctrl_v)[[0]])

    def test_far_outside_raises(self):
        rng = np.random.default_rng(16)
        surf = random_lattice(rng)
        x0, x1, y0, y1 = surf.extent
        with pytest.raises(ValueError, match="outside"):
            grid_basis(surf, np.array([x1 + 0.1 * (x1 - x0)]), np.array([y0]))


def reference_surface_text(surface):
    """Text of save_surface, formatted one numpy element at a time."""
    lines = [
        "roadsurf-surface 3",
        f"degree {surface.degree}",
        f"shape {surface.num_ctrl_u} {surface.num_ctrl_v}",
        "extent " + " ".join(repr(float(e)) for e in surface.extent),
    ]
    for a in range(surface.num_ctrl_u):
        for b in range(surface.num_ctrl_v):
            lines.append(f"cp {float(surface.control_z[a, b])!r}")
    return "\n".join(lines) + "\n"


class TestSerialization:
    @pytest.mark.parametrize("origin", [(0.0, 0.0), (512345.678, 5412345.25)])
    def test_text_matches_the_elementwise_formatter(self, tmp_path, origin):
        rng = np.random.default_rng(22)
        x0, y0 = origin
        surf = NurbsSurface((x0, x0 + 70.0, y0, y0 + 30.0), 3, rng.normal(250.0, 30.0, (7, 4)))
        surf.control_z[0, 0] = 1e16
        surf.control_z[1, 1] = -0.0
        surf.control_z[0, 1:3] = [1e-7, 1.7976931348623157e308]
        path = tmp_path / "surface.txt"
        save_surface(surf, path)
        assert path.read_text() == reference_surface_text(surf)
        back = tmp_path / "back.txt"
        save_surface(load_surface(path), back)
        assert back.read_bytes() == path.read_bytes()

    def test_roundtrip_is_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        surf = random_lattice(rng)
        path = tmp_path / "surface.txt"
        save_surface(surf, path)
        back = load_surface(path)
        assert back.degree == surf.degree
        assert back.extent == surf.extent
        np.testing.assert_array_equal(back.control_z, surf.control_z)

    def test_rejects_wrong_signature(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("something-else 1\n")
        with pytest.raises(ValueError, match="not a surface file"):
            load_surface(path)

    def test_rejects_missing_field(self, tmp_path):
        rng = np.random.default_rng(18)
        surf = random_lattice(rng)
        path = tmp_path / "surface.txt"
        save_surface(surf, path)
        lines = [l for l in path.read_text().splitlines() if not l.startswith("extent")]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="missing field 'extent'"):
            load_surface(path)

    def test_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "surface.txt"
        save_surface(random_lattice(np.random.default_rng(20)), path)
        path.write_text(path.read_text() + "bogus 1 2\n")
        line_no = len(path.read_text().splitlines())
        with pytest.raises(ValueError, match=f":{line_no}: unknown key 'bogus'$"):
            load_surface(path)

    def test_rejects_wrong_control_count(self, tmp_path):
        rng = np.random.default_rng(19)
        surf = random_lattice(rng)
        path = tmp_path / "surface.txt"
        save_surface(surf, path)
        lines = path.read_text().splitlines()
        lines = lines[:-1]  # drop one cp line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=":3: shape .* needs .* 'cp z' lines"):
            load_surface(path)

    def edited(self, tmp_path, edit):
        """A saved 6 x 5 surface with its lines changed by ``edit(lines,
        cp_line)``, where ``cp_line(a, b)`` is the index in ``lines`` of
        control point (a, b); returns the path and the 1-based line number
        that ``edit`` returns."""
        surf = random_lattice(np.random.default_rng(21), num_u=6, num_v=5, degree=3)
        path = tmp_path / "surface.txt"
        save_surface(surf, path)
        lines = path.read_text().splitlines()
        first = next(n for n, line in enumerate(lines) if line.startswith("cp "))
        line_no = edit(lines, lambda a, b: first + a * 5 + b) + 1
        path.write_text("\n".join(lines) + "\n")
        return path, line_no

    def test_a_rejected_elevation_names_its_cp_line(self, tmp_path):
        def infinite_elevation(lines, cp_line):
            lines[cp_line(2, 3)] = "cp -inf"
            return cp_line(2, 3)
        path, line_no = self.edited(tmp_path, infinite_elevation)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{line_no}: "
                                             "control_z must be finite$"):
            load_surface(path)
