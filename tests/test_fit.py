"""Fit loss gradients, the fit loop and the returned iterate.

The fitted surface is a B-spline.  The analytic elevation gradient of
``total_loss`` is checked against central finite differences along random
directions, on a seeded 41 x 41 synth tile with an 8 x 8 control grid, also
with NODATA cells in both layers, and near the optimum, at the target
start, where the rounding of the differences sets an absolute floor.  The
fit loop, which evaluates one objective built once per fit, must reproduce
exactly an ADAM loop with plateau drops that calls ``total_loss`` on a
fresh surface every step.  The thin-plate regularizer must read 0 on every
control net linear in the Greville abscissae, and a fit of a noise-free
plane must recover it.  The loss is convex, and ADAM's best loss must match
a reweighted least-squares (IRLS) solve of it on a 41 x 41 tile with a
12 x 12 net.  The objective's value and parts, and its gradient, which it
forms over its span-major layout, must match a dense reference (the height
field of the dense ``grid_basis`` matrices and plain masked means of |r|)
within 1e-12 relative, at random states with NODATA cells, on spans of
unequal and of no columns, a one-span net and degrees 1 to 3, with one
raster product and one back-projection per call; the layout's pad cells
must change no bit of them.  ``SpanGrid``'s product and back-projection
alone must match dense products within 1e-12 relative on such layouts,
with columns in order and permuted, and on a fitted 101 x 101 bench scene
the height field the fit minimised must be the one ``evaluate_grid``
samples for the mesh.  An objective reuses one raster workspace from call
to call: its results must not change when it is called again, a call on a
251 x 251 tile must allocate less than half a raster, and it keeps fewer
than seven rasters resident.  A fit report's final step and last plateau
gain must agree with the drops that its loss trace shows.
"""

import copy
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from roadsurf import fit as fitmod
from roadsurf import synth
from roadsurf.filtering import FilterParams, run_filter
from roadsurf.fit import SpanGrid
from roadsurf.grid import Mask, Raster
from roadsurf.nurbs import NurbsSurface, evaluate_grid, grid_basis, uniform_clamped_knots


@pytest.fixture(scope="module")
def scene():
    return synth.generate(synth.SceneSpec(cell_size=2.5, vehicles=2, trees=2, facades=1,
                                          corrupt_mask=True, jitter_sigma=0.02, seed=3))


def all_road(raster):
    """A mask that makes every cell of ``raster``'s grid a road cell."""
    return Mask(raster.width, raster.height, raster.cell_size, raster.origin_x,
                raster.origin_y, np.ones(raster.values.shape))


def start_8x8(scene, mask=None):
    """The 8 x 8 start surface (7 spans of 15 m at most on the 100 m tile)
    at the node medians of the target under ``mask``, the scene's own by
    default.  Under ``all_road`` the target is the DSM everywhere: the
    DSM-median start."""
    return fitmod.initialize_surface(scene.dsm, scene.dtm, mask or scene.mask, ctrl_spacing=15.0)


def loss(surface, scene, control_z, weights=None):
    current = replace(surface, control_z=control_z)
    return fitmod.total_loss(current, scene.dsm, scene.dtm, scene.mask,
                             weights or fitmod.LossWeights())


def assert_gradients_match_central_differences(scene, weights=None, surface=None,
                                               rounding_floor=False):
    """Central differences at step h along 40 random directions, from
    ``surface`` (the DSM-median start by default), within a relative 1e-5.
    With ``rounding_floor`` they may also differ by 64 * eps * |L| / h, L
    the loss there: each loss value carries a few ulps of L, and the
    difference quotient divides that by h."""
    rng = np.random.default_rng(0)
    surface = surface or start_8x8(scene, all_road(scene.dsm))
    z0 = surface.control_z
    value, _, g_z = loss(surface, scene, z0, weights)
    h = 1e-5
    floor = 64 * np.finfo(float).eps * abs(value) / h if rounding_floor else None
    for _ in range(40):
        d = rng.normal(size=z0.shape)
        numeric = (loss(surface, scene, z0 + h * d, weights)[0]
                   - loss(surface, scene, z0 - h * d, weights)[0]) / (2 * h)
        assert numeric == pytest.approx((g_z * d).sum(), rel=1e-5, abs=floor)


def test_gradients_match_central_differences(scene):
    assert_gradients_match_central_differences(scene)


def test_gradients_match_central_differences_at_the_target_start(scene):
    # near the optimum some directional derivatives are about 6e-6; there
    # the rounding of the two loss values, not the gradient, sets the
    # differences' error, which grows as h shrinks
    assert_gradients_match_central_differences(scene, surface=start_8x8(scene),
                                               rounding_floor=True)


def test_gradients_match_central_differences_with_term_weights(scene):
    assert_gradients_match_central_differences(
        scene, fitmod.LossWeights(lambda_terrain=0.6, lambda_reg=0.3))


def test_gradients_match_central_differences_without_some_targets(scene):
    # NODATA cells in both layers: a cell without a target adds nothing to
    # the loss, so it must add nothing to the gradient either
    rng = np.random.default_rng(4)
    holes = {layer: getattr(scene, layer).subset(rng.random(scene.dsm.values.shape) > 0.15)
             for layer in ("dsm", "dtm")}
    assert_gradients_match_central_differences(replace(scene, **holes))


@pytest.mark.parametrize("learning_rate", [0.1, 2.0])
def test_fit_returns_its_best_iterate(scene, learning_rate):
    surface0 = start_8x8(scene)
    surface, report = fitmod.fit(surface0, scene.dsm, scene.dtm, scene.mask,
                                 fitmod.LossWeights(),
                                 fitmod.FitConfig(learning_rate=learning_rate, max_iters=40))
    value = fitmod.total_loss(surface, scene.dsm, scene.dtm, scene.mask,
                              fitmod.LossWeights())[0]
    assert value == report.best_loss
    assert report.best_loss <= min(report.loss_total)
    if report.best_iteration < report.iterations:
        assert report.loss_total[report.best_iteration] == report.best_loss


def replay_fit(surface0, scene, weights, config):
    """The fit's schedule written out with ``total_loss`` on a fresh surface
    each iteration: ADAM on the elevations and, on each plateau, a return to
    the best iterate and its gradient, the step times 0.3 and fresh moments,
    until the seventh plateau or max_iters.  Returns the loss trace, the
    parts trace, the stop reason, the drops and the best loss."""
    z, rate = surface0.control_z.copy(), config.learning_rate
    m, v = np.zeros_like(z), np.zeros_like(z)

    def score(z):
        fresh = replace(surface0, control_z=z)
        return fitmod.total_loss(fresh, scene.dsm, scene.dtm, scene.mask, weights)

    trace, parts_trace = [], []
    best = (math.inf, None, None)  # value, z, g
    stall = t = drops = 0
    for _ in range(config.max_iters):
        value, parts, g = score(z)
        trace.append(value)
        parts_trace.append((parts["road"], parts["terrain"], parts["reg"]))
        if value < best[0]:
            stall = 0 if best[0] - value >= config.early_stop_min_delta else stall + 1
            best = (value, z.copy(), g)
        else:
            stall += 1
        if stall >= config.early_stop_patience:
            if drops == 6:
                return trace, parts_trace, "plateau", drops, best[0]
            drops += 1
            rate *= 0.3
            z, g = best[1].copy(), best[2]
            m[:] = 0.0
            v[:] = 0.0
            stall = t = 0
        t += 1
        m *= 0.9
        m += (1 - 0.9) * g
        v *= 0.999
        v += (1 - 0.999) * g * g
        m_hat = m / (1 - 0.9 ** t)
        v_hat = v / (1 - 0.999 ** t)
        z -= rate * m_hat / (np.sqrt(v_hat) + 1e-8)
    return trace, parts_trace, "max_iters", drops, min(best[0], score(z)[0])


def assert_fit_replays(scene, max_iters, stop_reason):
    surface0 = start_8x8(scene)
    weights = fitmod.LossWeights(lambda_terrain=0.7, lambda_reg=0.2)
    config = fitmod.FitConfig(learning_rate=0.05, max_iters=max_iters, early_stop_patience=4,
                              early_stop_min_delta=1e-3)
    _, report = fitmod.fit(surface0, scene.dsm, scene.dtm, scene.mask, weights, config)
    trace, parts_trace, stop, drops, best_loss = replay_fit(surface0, scene, weights, config)
    assert (report.stop_reason, stop) == (stop_reason, stop_reason)
    assert report.drops == drops >= 1
    assert report.iterations == len(trace)
    assert report.loss_total == trace
    assert list(zip(report.loss_road, report.loss_terrain, report.loss_reg)) == parts_trace
    assert report.best_loss == best_loss


def test_fit_loop_equals_total_loss_on_fresh_surfaces(scene):
    # ended by max_iters after a drop
    assert_fit_replays(scene, 70, "max_iters")


def test_frozen_fit_loop_equals_total_loss_on_fresh_surfaces(scene):
    # ended by the seventh plateau
    assert_fit_replays(scene, 200, "plateau")


def test_early_stop_scores_each_iterate_once(scene, monkeypatch):
    calls = []
    score = fitmod.Objective.__call__

    def counted(self, z):
        calls.append(1)
        return score(self, z)

    monkeypatch.setattr(fitmod.Objective, "__call__", counted)
    surface0 = start_8x8(scene)
    # no step gains 10, so each patience-th iteration after the first ends a
    # plateau: drops at iterations 3, 6, ..., 18, and the end at 21
    config = fitmod.FitConfig(max_iters=50, early_stop_patience=3, early_stop_min_delta=10.0)
    surface, report = fitmod.fit(surface0, scene.dsm, scene.dtm, scene.mask,
                                 fitmod.LossWeights(), config)
    assert (report.stop_reason, report.drops) == ("plateau", 6)
    assert report.iterations == len(report.loss_total) == 22
    assert report.best_loss == min(report.loss_total)
    assert len(calls) == report.iterations
    value = fitmod.total_loss(surface, scene.dsm, scene.dtm, scene.mask,
                              fitmod.LossWeights())[0]
    assert value == report.best_loss


def assert_same_results(got, expected):
    assert got[0] == expected[0]
    assert got[1] == expected[1]
    npt.assert_array_equal(got[2], expected[2])


def test_objective_results_outlive_its_workspace(scene):
    weights = fitmod.LossWeights(lambda_terrain=0.7)
    rng = np.random.default_rng(2)
    surface = start_8x8(scene)
    z0 = surface.control_z
    states = [z0 + rng.normal(0.0, 0.5, z0.shape) for _ in range(2)]
    objective = fitmod.Objective(surface, scene.dsm, scene.dtm, scene.mask, weights)
    first = objective(states[0])
    kept = copy.deepcopy(first)
    second = objective(states[1])
    assert first[0] != second[0]
    assert_same_results(first, kept)
    for got, state in zip((first, second), states):
        fresh = fitmod.Objective(surface, scene.dsm, scene.dtm, scene.mask, weights)
        assert_same_results(got, fresh(state))


def test_objective_call_allocates_no_raster():
    scene = synth.generate(synth.SceneSpec(cell_size=0.4, seed=1))  # 251 x 251
    surface = fitmod.initialize_surface(scene.dsm, scene.dtm, scene.mask)
    objective = fitmod.Objective(surface, scene.dsm, scene.dtm, scene.mask,
                                 fitmod.LossWeights())
    objective(surface.control_z)
    tracemalloc.start()
    try:
        objective(surface.control_z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # what a call still allocates is sized by the 35 x 35 control grid
    assert peak < scene.dsm.values.nbytes / 2


def test_objective_keeps_fewer_than_seven_rasters():
    scene = synth.generate(synth.SceneSpec(cell_size=0.4, seed=1))  # 251 x 251
    surface = fitmod.initialize_surface(scene.dsm, scene.dtm, scene.mask)
    tracemalloc.start()
    try:
        objective = fitmod.Objective(surface, scene.dsm, scene.dtm, scene.mask,
                                     fitmod.LossWeights())
        resident = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del objective
    # the target, the road and terrain sum weights, the gradient magnitudes,
    # the height field and the |r| raster, plus the basis and the
    # control-grid buffers
    assert resident < 7 * scene.dsm.values.nbytes


def dense_reference(surface, dsm, dtm, mask, weights):
    """The composite loss written out densely from the lattice bases of
    ``grid_basis``: the height field h = bv z^T bu^T, each data term the
    mean over all cells of |target - h| on its cells with a target, and the
    thin-plate term.  Returns (value, parts, d/d z), from the per-cell
    slopes S = c sign(h - t) / cells, c being 1 on road cells and
    lambda_terrain elsewhere: d/d z = bu^T S^T bv, plus the thin-plate
    gradient."""
    bu, bv = grid_basis(surface, *dsm.cell_to_world(np.arange(dsm.width), np.arange(dsm.height)))
    z = surface.control_z
    height = bv @ z.T @ bu.T
    road = mask.bits == 1
    target = np.where(road, dsm.values, dtm.values)
    has_target = ~np.isnan(target)
    residual = np.where(has_target, height - np.nan_to_num(target), 0.0)
    road_term = np.abs(residual[road]).sum() / residual.size
    terrain_term = np.abs(residual[~road]).sum() / residual.size
    reg, g_reg = fitmod.Roughness(surface)(z)
    value = road_term + weights.lambda_terrain * terrain_term + weights.lambda_reg * reg
    slope = np.where(road, 1.0, weights.lambda_terrain) * np.sign(residual) / residual.size
    d_z = bu.T @ slope.T @ bv + weights.lambda_reg * g_reg
    return value, {"road": road_term, "terrain": terrain_term, "reg": reg}, d_z


def assert_matches(got, expected):
    """Value and parts within 1e-12 relative, the gradient within 1e-12 of
    its largest entry: an entry may cancel to near 0."""
    assert got[0] == pytest.approx(expected[0], rel=1e-12)
    assert got[1] == pytest.approx(expected[1], rel=1e-12)
    npt.assert_allclose(got[2], expected[2], rtol=0, atol=1e-12 * np.abs(expected[2]).max())


def test_objective_matches_a_dense_reference(scene):
    rng = np.random.default_rng(6)
    holes = {layer: getattr(scene, layer).subset(rng.random(scene.dsm.values.shape) > 0.15)
             for layer in ("dsm", "dtm")}
    scene = replace(scene, **holes)
    weights = fitmod.LossWeights(lambda_terrain=0.6, lambda_reg=0.3)
    start = start_8x8(scene)
    for _ in range(4):
        surface = replace(start, control_z=start.control_z + rng.normal(0.0, 0.5, (8, 8)))
        expected, expected_parts, _ = dense_reference(surface, scene.dsm, scene.dtm,
                                                      scene.mask, weights)
        objective = fitmod.Objective(surface, scene.dsm, scene.dtm, scene.mask, weights)
        value, parts, _ = objective(surface.control_z)
        assert value == pytest.approx(expected, rel=1e-12)
        assert parts == pytest.approx(expected_parts, rel=1e-12)


def test_objective_takes_one_product_and_one_back_per_call(scene, monkeypatch):
    products = []
    product, back = SpanGrid.product, SpanGrid.back
    monkeypatch.setattr(SpanGrid, "product", lambda self, *args: products.append("grid")
                        or product(self, *args))
    monkeypatch.setattr(SpanGrid, "back", lambda self, *args: products.append("back")
                        or back(self, *args))
    rng = np.random.default_rng(5)
    surface = start_8x8(scene)
    weights = fitmod.LossWeights(lambda_terrain=0.7, lambda_reg=0.2)
    objective = fitmod.Objective(surface, scene.dsm, scene.dtm, scene.mask, weights)
    assert products == []  # the build takes no raster product
    for _ in range(3):
        z = surface.control_z + rng.normal(0.0, 0.5, surface.control_z.shape)
        products.clear()
        got = objective(z)
        assert sorted(products) == ["back", "grid"]
        assert_matches(got, dense_reference(replace(surface, control_z=z), scene.dsm,
                                            scene.dtm, scene.mask, weights))


def random_tile(rng, width, height, cell_size=0.7):
    """DSM, DTM and mask of a width x height tile about 100 m up, with
    NODATA holes in both layers and a random road mask."""
    def layer(values):
        values[rng.random(values.shape) < 0.15] = np.nan
        return Raster(width, height, cell_size, 10.0, -4.0, values)

    base = 100.0 + rng.normal(0.0, 0.3, (height, width)).cumsum(axis=1)
    dsm, dtm = layer(base + rng.exponential(0.2, base.shape)), layer(base.copy())
    bits = (rng.random((height, width)) < 0.5).astype(np.uint8)
    return dsm, dtm, Mask(width, height, cell_size, 10.0, -4.0, bits)


# (raster width, height), control net (nu, nv), the degree of both axes:
# spans of 4 and 5 columns; 3 columns under 11 spans, 8 of them empty; a
# 4 x 4 net, one span; and degrees 1, 2 and 3
SPAN_CASES = [((23, 17), (8, 7), 3), ((3, 11), (12, 6), 1), ((9, 8), (4, 4), 3),
              ((16, 5), (7, 9), 2), ((13, 12), (4, 5), 1)]


# the ids keep the case names the tests had when each case held two degrees
@pytest.mark.parametrize("raster, net, degree", SPAN_CASES,
                         ids=[f"raster{k}-net{k}-degrees{k}" for k in range(len(SPAN_CASES))])
def test_span_layout_objective_matches_a_dense_reference(raster, net, degree):
    rng = np.random.default_rng(sum(raster + net) + degree)
    dsm, dtm, mask = random_tile(rng, *raster)
    weights = fitmod.LossWeights(lambda_terrain=0.6, lambda_reg=0.3)
    surface = NurbsSurface(dsm.center_extent, degree, 100.0 + rng.normal(0.0, 0.5, net))
    objective = fitmod.Objective(surface, dsm, dtm, mask, weights)
    got = objective(surface.control_z)
    assert_matches(got, dense_reference(surface, dsm, dtm, mask, weights))
    # pad cells hold no raster column: nonzero basis values there change no
    # bit of the results.  Every case of more than one span has spans of
    # unequal column counts, so it has pads
    grid = objective.grid
    pads = np.ones(grid.shape[0] * grid.shape[1], dtype=bool)
    pads[grid.rows] = False
    assert pads.any() == (grid.spans > 1)
    assert not grid.local.reshape(-1, degree + 1)[pads].any()
    grid.local.reshape(-1, degree + 1)[pads] = rng.uniform(0.1, 2.0)
    again = objective(surface.control_z)
    assert again[:2] == got[:2]
    assert again[2].tobytes() == got[2].tobytes()


# control net (nu, nv), the degree of both axes and lattice nodes (columns,
# rows): 11 columns under 32 spans; 11 spans, 7 of them empty; one span;
# and spans of 4 and 5 columns
LAYOUT_CASES = [((35, 35), 3, (11, 11)), ((12, 5), 1, (4, 9)), ((4, 4), 3, (6, 3)),
                ((9, 7), 2, (30, 2))]


# the ids keep the case names the tests had when each case held two degrees
@pytest.mark.parametrize("net, degree, nodes", LAYOUT_CASES,
                         ids=[f"net{k}-degrees{k}-nodes{k}" for k in range(len(LAYOUT_CASES))])
def test_span_grid_products_match_dense_products(net, degree, nodes):
    rng = np.random.default_rng(sum(net + nodes) + degree)
    surface = NurbsSurface((-20.0, 80.0, 5.0, 45.0), degree, np.zeros(net))
    x0, x1, y0, y1 = surface.extent
    for order in (np.arange(nodes[0]), rng.permutation(nodes[0])):  # columns in any order
        xs = np.linspace(x0, x1, nodes[0])[order]
        ys = np.linspace(y0, y1, nodes[1])
        bu, bv = grid_basis(surface, xs, ys)
        grid = SpanGrid(surface, xs, ys)
        # positive coefficients and fields, so that no sum cancels
        coeffs = rng.uniform(0.5, 2.0, net)
        field = np.empty(grid.shape)
        grid.product(coeffs, field)
        npt.assert_allclose(field.reshape(-1, len(ys))[grid.rows], bu @ coeffs @ bv.T,
                            rtol=1e-12)
        raster = rng.uniform(0.5, 2.0, (len(ys), len(xs)))
        sums = grid.back(grid.to_spans(raster, 0.0), np.empty(grid.shape))
        npt.assert_allclose(sums, bu.T @ raster.T @ bv, rtol=1e-12)


def test_fit_height_field_is_the_surface_that_mesh_samples():
    # the fit's span product of the elevations against evaluate_grid's dense
    # one, which sums in another order
    scene = synth.generate(synth.SceneSpec(cell_size=1.0, vehicles=6, trees=8, facades=2,
                                           corrupt_mask=True, jitter_sigma=0.02, seed=1))
    start = fitmod.initialize_surface(scene.dsm, scene.dtm, scene.mask)  # the bench's 35 x 35
    surface, _ = fitmod.fit(start, scene.dsm, scene.dtm, scene.mask, fitmod.LossWeights(),
                            fitmod.FitConfig())
    xs, ys = scene.dsm.cell_to_world(np.arange(scene.dsm.width), np.arange(scene.dsm.height))
    grid = SpanGrid(surface, xs, ys)
    field = np.empty(grid.shape)
    grid.product(surface.control_z, field)
    npt.assert_allclose(field.reshape(-1, len(ys))[grid.rows].T, evaluate_grid(surface, xs, ys),
                        rtol=1e-12)


def plateau_drops(trace, patience, min_delta):
    """The best loss at each plateau drop of a fit that scored ``trace``,
    read off the trace by the plateau rule: a drop after ``patience`` scores
    without a gain of ``min_delta`` on the best loss; the last plateau ends
    the fit, so it takes no drop."""
    best, stall, drops = math.inf, 0, []
    for value in trace:
        if value < best:
            stall = 0 if best - value >= min_delta else stall + 1
            best = value
        else:
            stall += 1
        if stall >= patience:
            drops.append(best)
            stall = 0
    return drops[:6]


@pytest.mark.parametrize("max_iters", [1000, 5])
def test_fit_report_keeps_its_final_step_and_last_plateau_gain(scene, max_iters):
    config = fitmod.FitConfig(learning_rate=0.2, max_iters=max_iters)
    _, report = fitmod.fit(start_8x8(scene), scene.dsm, scene.dtm, scene.mask,
                           fitmod.LossWeights(), config)
    drops = plateau_drops(report.loss_total, config.early_stop_patience,
                          config.early_stop_min_delta)
    assert report.drops == len(drops)
    step = config.learning_rate
    for _ in drops:
        step *= 0.3
    assert report.final_step == step
    if drops:
        assert report.stop_reason == "plateau"
        assert report.plateau_gain == drops[-1] - report.best_loss >= 0.0
    else:
        assert (report.stop_reason, report.plateau_gain) == ("max_iters", 0.0)


@pytest.mark.parametrize("seed", [1, 2])
def test_target_start_ends_no_higher_than_the_dsm_start(seed):
    """The target start begins lower and ends in fewer iterations.  Its best
    loss may end higher by less than the plateau test can tell apart
    (early_stop_min_delta): on twelve bench scenes at 1 to 2.5 m it ended
    lower on ten, by up to 1.5e-4, and higher on two, by at most 2e-5."""
    scene = synth.generate(synth.SceneSpec(cell_size=2.5, vehicles=6, trees=8, facades=2,
                                           corrupt_mask=True, jitter_sigma=0.02, seed=seed))
    _, mask_plus = run_filter(scene.dsm.subset(scene.mask.bits == 1), FilterParams())
    config = fitmod.FitConfig()
    target, dsm = (fitmod.fit(fitmod.initialize_surface(scene.dsm, scene.dtm, mask),
                              scene.dsm, scene.dtm, mask_plus, fitmod.LossWeights(), config)[1]
                   for mask in (mask_plus, all_road(scene.dsm)))
    assert target.loss_total[0] < dsm.loss_total[0]
    assert target.iterations < dsm.iterations
    assert target.best_loss <= dsm.best_loss + config.early_stop_min_delta


def test_two_fits_of_one_tile_are_byte_identical(scene):
    start = start_8x8(scene)
    runs = [fitmod.fit(start, scene.dsm, scene.dtm, scene.mask, fitmod.LossWeights(),
                       fitmod.FitConfig()) for _ in range(2)]
    (first, first_report), (second, second_report) = runs
    for trace in ("loss_total", "loss_road", "loss_terrain", "loss_reg"):
        assert (np.array(getattr(first_report, trace)).tobytes()
                == np.array(getattr(second_report, trace)).tobytes())
    assert first.control_z.tobytes() == second.control_z.tobytes()


@pytest.mark.parametrize("cls, name", [
    (fitmod.LossWeights, "lambda_terrain"), (fitmod.LossWeights, "lambda_reg"),
    (fitmod.FitConfig, "learning_rate"), (fitmod.FitConfig, "max_iters"),
    (fitmod.FitConfig, "early_stop_patience"), (fitmod.FitConfig, "early_stop_min_delta"),
])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_settings_are_rejected(cls, name, value):
    # NaN passes the sign checks; unchecked, a NaN early_stop_min_delta
    # would count every iteration toward a plateau and end the fit early
    with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
        cls(**{name: value})


def greville(num_ctrl, degree):
    """Each control index's Greville abscissa: the mean of the degree inner
    knots of its basis function's support."""
    knots = uniform_clamped_knots(num_ctrl, degree)
    return np.array([knots[i + 1:i + degree + 1].mean() for i in range(num_ctrl)])


@pytest.mark.parametrize("shape", [(35, 35), (9, 6), (2, 5), (3, 5)])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_roughness_is_zero_on_planar_control_nets(shape, degree):
    # a B-spline reproduces a plane from elevations linear in the Greville
    # abscissae, which bunch toward the clamped ends; an axis of 2 control
    # points takes degree 1, with no second differences, and an axis of 3
    # takes degree 2 at most
    nu, nv = shape
    degree = min(degree, nu - 1, nv - 1)
    surface = NurbsSurface((0.0, 1.0, 0.0, 1.0), degree, np.zeros(shape))
    roughness = fitmod.Roughness(surface)
    plane = 3.5 * greville(nu, degree)[:, None] - 1.25 * greville(nv, degree) + 100.0
    value, grad = roughness(plane)
    assert value < 1e-24 and np.abs(grad).max() < 1e-11
    if degree > 1:  # the same grade, linear in the control indices
        lattice = 3.5 * np.linspace(0, 1, nu)[:, None] - 1.25 * np.linspace(0, 1, nv) + 100.0
        assert roughness(lattice)[0] > 1e-4
    # the term is quadratic, so central differences are exact up to rounding
    rng = np.random.default_rng(nu * nv + degree)
    z, h = rng.normal(0.0, 2.0, shape), 1e-3
    value, grad = roughness(z)
    for d in rng.normal(size=(5, *shape)):
        numeric = (roughness(z + h * d)[0] - roughness(z - h * d)[0]) / (2 * h)
        assert numeric == pytest.approx((grad * d).sum(), rel=1e-7)


@pytest.mark.parametrize("slopes", [(1.5, 0.5), (7.0, 1.0)])
def test_fit_recovers_a_noise_free_plane(slopes):
    # DSM and DTM are one plane, from which a term that charged the grade
    # would bend the fit, the more the steeper the plane
    scene = synth.generate(synth.SceneSpec(cell_size=2.5, slope_x=slopes[0],
                                           slope_y=slopes[1], hills=[]))
    start = fitmod.initialize_surface(scene.dsm, scene.dtm, scene.mask, 9.5)  # 12 x 12
    surface, _ = fitmod.fit(start, scene.dsm, scene.dtm, scene.mask, fitmod.LossWeights(),
                            fitmod.FitConfig())
    height = evaluate_grid(surface, *scene.dtm.cell_to_world(np.arange(scene.dtm.width),
                                                             np.arange(scene.dtm.height)))
    assert np.abs(height - scene.dtm.values).max() < 1e-4


def irls_control_z(surface, scene, weights, rounds=100):
    """Control elevations minimizing the fit's loss, by
    reweighted least squares: each round solves the normal equations of the
    thin-plate term plus the data terms with each |r| taken as
    r ** 2 / (2 max(|r'|, 1e-6)), r' the last round's residual.  The height
    field is linear in the elevations, through the dense Kronecker design."""
    xs, ys = scene.dsm.cell_to_world(np.arange(scene.dsm.width), np.arange(scene.dsm.height))
    design = np.kron(*grid_basis(surface, xs, ys))  # rows (x, y), columns (a, b)
    road = (scene.mask.bits == 1).T.ravel()
    target = np.where(road, scene.dsm.values.T.ravel(), scene.dtm.values.T.ravel())
    cost = np.where(road, 1.0, weights.lambda_terrain) / target.size
    cost[np.isnan(target)] = 0.0
    target = np.nan_to_num(target)
    (u1, u2), (v1, v2) = (fitmod._differences(knots, surface.degree)
                          for knots in surface.knots())
    eye_u, eye_v = np.eye(surface.num_ctrl_u), np.eye(surface.num_ctrl_v)
    differences = (np.kron(u2, eye_v), np.kron(eye_u, v2), math.sqrt(2) * np.kron(u1, v1))
    penalty = weights.lambda_reg / surface.control_z.size * sum(d.T @ d for d in differences)
    spread = np.ones_like(target)
    for _ in range(rounds):
        w = cost / spread
        z = np.linalg.solve(design.T @ (w[:, None] * design) + 2 * penalty,
                            design.T @ (w * target))
        spread = np.maximum(np.abs(target - design @ z), 1e-6)
    return z.reshape(surface.control_z.shape)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fit_reaches_the_irls_optimum(seed):
    # on an 8 x 8 net the gap read 1.45e-3, so the net is 12 x 12
    scene = synth.generate(synth.SceneSpec(cell_size=2.5, vehicles=6, trees=8, facades=2,
                                           corrupt_mask=True, jitter_sigma=0.02, seed=seed))
    weights = fitmod.LossWeights()
    start = fitmod.initialize_surface(scene.dsm, scene.dtm, scene.mask, 9.5)  # 12 x 12
    _, report = fitmod.fit(start, scene.dsm, scene.dtm, scene.mask, weights,
                           fitmod.FitConfig())
    oracle = replace(start, control_z=irls_control_z(start, scene, weights))
    optimum = fitmod.total_loss(oracle, scene.dsm, scene.dtm, scene.mask, weights)[0]
    assert report.best_loss == pytest.approx(optimum, rel=1e-4)


@pytest.mark.parametrize("shape", [(8, 8), (13, 6), (35, 35)])
def test_start_heights_are_per_node_medians(scene, shape):
    # nu - 1 spacings span the tile's 100 m in x; the (13, 6) net takes its
    # first 16 rows, 37.5 m in y, which 5 of its 8.33 m spacings cover
    nu, nv = shape
    height = 41 if nu == nv else 16
    mask = replace(scene.mask, height=height, bits=scene.mask.bits[:height])
    layers = {}
    for name, holes in (("dsm", np.s_[::4, ::3]), ("dtm", np.s_[1::3, ::2])):
        raster = getattr(scene, name)
        values = np.round(raster.values[:height], 1)  # ties between cells
        values[holes] = np.nan  # nodes with odd and even counts, and none
        layers[name] = replace(raster, height=height, values=values)
    dsm, dtm = layers["dsm"], layers["dtm"]
    surface = fitmod.initialize_surface(dsm, dtm, mask, 100.0 / (nu - 1))
    assert surface.control_z.shape == shape
    # the loss's own target: the DSM on road cells, the DTM elsewhere
    target = np.where(mask.bits == 1, dsm.values, dtm.values)
    x0, x1, y0, y1 = dsm.center_extent
    xs = dsm.origin_x + np.arange(dsm.width) * dsm.cell_size
    ys = dsm.origin_y + np.arange(dsm.height) * dsm.cell_size
    expected = np.full(shape, float(np.median(dtm.values[~np.isnan(dtm.values)])))
    for a in range(nu):
        for b in range(nv):
            cols = np.clip(np.round((xs - x0) / (x1 - x0) * (nu - 1)), 0, nu - 1) == a
            rows = np.clip(np.round((ys - y0) / (y1 - y0) * (nv - 1)), 0, nv - 1) == b
            cell_values = target[np.ix_(rows, cols)]
            cell_values = cell_values[~np.isnan(cell_values)]
            if cell_values.size:
                expected[a, b] = np.median(cell_values)
    npt.assert_array_equal(surface.control_z, expected)


@pytest.mark.parametrize("cells, cell_size, spacing, degree, shape", [
    ((101, 101), 1.0, 3.0, 3, (35, 35)),  # the bench tiles, 100 m a side
    ((251, 251), 0.4, 3.0, 3, (35, 35)),
    ((101, 41), 1.0, 3.0, 3, (35, 15)),   # 100 x 40 m
    ((31, 31), 1.0, 3.0, 3, (11, 11)),    # 30 m: ten whole spacings
    ((22, 22), 1.0, 0.7, 3, (31, 31)),    # 21 m / 0.7 m reads 30.000000000000004
    ((3, 5), 1.0, 6.0, 3, (4, 4)),        # 2 x 4 m, shorter than one spacing
    ((3, 5), 1.0, 6.0, 1, (2, 2)),
])
def test_control_net_is_sized_by_the_spacing(cells, cell_size, spacing, degree, shape):
    # max(degree + 1, ceil(E / spacing) + 1) nodes on an axis of extent E,
    # on a grid placed as synth places its tiles
    width, height = cells
    dsm = Raster(width, height, cell_size, 0.0, 0.0, np.zeros((height, width)))
    mask = Mask(width, height, cell_size, 0.0, 0.0, np.zeros((height, width)))
    surface = fitmod.initialize_surface(dsm, dsm, mask, spacing, degree)
    assert surface.control_z.shape == shape
    assert surface.degree == degree
    assert surface.extent == dsm.center_extent


@pytest.mark.parametrize("cells, spacing, shape", [
    ((11, 11), 10 / 22, (23, 23)),  # 20 knot spans on 10 m of 1 m cells: two a cell
    ((11, 11), 10 / 23, None),      # 21 spans
    ((3, 11), 0.45, None),          # 3 spans of the 4 that 2 m takes, then 21 of 20
    ((11, 3), 0.45, None),
])
def test_control_net_takes_at_most_two_knot_spans_a_cell(cells, spacing, shape):
    width, height = cells
    dsm = Raster(width, height, 1.0, 0.0, 0.0, np.zeros((height, width)))
    mask = Mask(width, height, 1.0, 0.0, 0.0, np.zeros((height, width)))
    if shape is not None:
        assert fitmod.initialize_surface(dsm, dsm, mask, spacing, 3).control_z.shape == shape
        return
    with pytest.raises(ValueError, match=r"^ctrl_spacing 0\.4\d* asks for 24 control nodes on an "
                       "axis of 11 cells; two knot spans a cell allow at most 23 at degree 3$"):
        fitmod.initialize_surface(dsm, dsm, mask, spacing, 3)
