"""Fit loss gradients, the fit loop and the returned iterate.

The analytic gradients of ``total_loss`` are checked against central finite
differences along random directions, on a seeded 41 x 41 synth tile with an
8 x 8 control grid and perturbed weights.  The fit loop, which evaluates one
objective built once per fit, must reproduce exactly an ADAM loop that calls
``total_loss`` on a fresh surface every step, and the regularizer must match
a per-node loop over the 8-neighbourhood.
"""

import math

import numpy as np
import numpy.testing as npt
import pytest

from roadsurf import fit as fitmod
from roadsurf import synth


@pytest.fixture(scope="module")
def scene():
    return synth.generate(synth.SceneSpec(cell_size=2.5, vehicles=2, trees=2, facades=1,
                                          corrupt_mask=True, jitter_sigma=0.02, seed=3))


def loss(surface, scene, control_z, log_weights, weights=None):
    current = surface.with_updates(control_z=control_z, weights=np.exp(log_weights))
    return fitmod.total_loss(current, scene.dsm, scene.dtm, scene.mask,
                             weights or fitmod.LossWeights())


def assert_gradients_match_central_differences(scene, weights=None):
    rng = np.random.default_rng(0)
    surface = fitmod.initialize_surface(scene.dsm, scene.dtm, num_ctrl_u=8, num_ctrl_v=8)
    z0 = surface.control_points[:, :, 2]
    lw0 = rng.uniform(-0.5, 0.5, surface.weights.shape)
    _, _, g_z, g_w = loss(surface, scene, z0, lw0, weights)
    h = 1e-5
    for _ in range(40):
        d = rng.normal(size=z0.shape)
        numeric = (loss(surface, scene, z0 + h * d, lw0, weights)[0]
                   - loss(surface, scene, z0 - h * d, lw0, weights)[0]) / (2 * h)
        assert numeric == pytest.approx((g_z * d).sum(), rel=1e-5)
        numeric = (loss(surface, scene, z0, lw0 + h * d, weights)[0]
                   - loss(surface, scene, z0, lw0 - h * d, weights)[0]) / (2 * h)
        assert numeric == pytest.approx((g_w * d).sum(), rel=1e-5)


def test_gradients_match_central_differences(scene):
    assert_gradients_match_central_differences(scene)


def test_gradients_match_central_differences_with_term_weights(scene):
    assert_gradients_match_central_differences(
        scene, fitmod.LossWeights(lambda_terrain=0.6, lambda_reg=0.3))


@pytest.mark.parametrize("learning_rate", [0.1, 2.0])
def test_fit_returns_its_best_iterate(scene, learning_rate):
    surface0 = fitmod.initialize_surface(scene.dsm, scene.dtm, num_ctrl_u=8, num_ctrl_v=8)
    surface, report = fitmod.fit(surface0, scene.dsm, scene.dtm, scene.mask,
                                 fitmod.LossWeights(),
                                 fitmod.FitConfig(learning_rate=learning_rate, max_iters=40))
    value = fitmod.total_loss(surface, scene.dsm, scene.dtm, scene.mask,
                              fitmod.LossWeights())[0]
    assert value == report.best_loss
    assert report.best_loss <= min(report.loss_total)
    if report.best_iteration < report.iterations:
        assert report.loss_total[report.best_iteration] == report.best_loss


def test_fit_loop_equals_total_loss_on_fresh_surfaces(scene):
    rng = np.random.default_rng(1)
    surface0 = fitmod.initialize_surface(scene.dsm, scene.dtm, num_ctrl_u=8, num_ctrl_v=8)
    surface0 = surface0.with_updates(weights=np.exp(rng.uniform(-0.5, 0.5, (8, 8))))
    weights = fitmod.LossWeights(lambda_terrain=0.7, lambda_reg=0.2)
    config = fitmod.FitConfig(learning_rate=0.05, max_iters=30, early_stop_patience=100)
    fitted, report = fitmod.fit(surface0, scene.dsm, scene.dtm, scene.mask, weights, config)

    z = surface0.control_points[:, :, 2].copy()
    wp = np.log(surface0.weights)
    moments = [np.zeros_like(z) for _ in range(4)]
    trace, parts_trace = [], []
    for it in range(config.max_iters):
        fresh = surface0.with_updates(control_z=z, weights=np.exp(wp))
        value, parts, g_z, g_w = fitmod.total_loss(fresh, scene.dsm, scene.dtm, scene.mask,
                                                   weights)
        trace.append(value)
        parts_trace.append((parts["road"], parts["terrain"], parts["reg"]))
        t = it + 1
        for g, m, v, theta in ((g_z, *moments[:2], z), (g_w, *moments[2:], wp)):
            m *= config.adam_beta1
            m += (1 - config.adam_beta1) * g
            v *= config.adam_beta2
            v += (1 - config.adam_beta2) * g * g
            m_hat = m / (1 - config.adam_beta1 ** t)
            v_hat = v / (1 - config.adam_beta2 ** t)
            theta -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_eps)
        np.clip(wp, -fitmod._LOG_WEIGHT_CLIP, fitmod._LOG_WEIGHT_CLIP, out=wp)

    assert report.iterations == config.max_iters
    assert report.loss_total == trace
    assert list(zip(report.loss_road, report.loss_terrain, report.loss_reg)) == parts_trace
    final = fitmod.total_loss(surface0.with_updates(control_z=z, weights=np.exp(wp)),
                              scene.dsm, scene.dtm, scene.mask, weights)[0]
    assert report.best_loss == min(trace + [final])


def per_node_roughness(z):
    """Value and gradient of the regularizer, one control node at a time."""
    nu, nv = z.shape
    count = nu * nv
    total, grad = [], [[[] for _ in range(nv)] for _ in range(nu)]
    for a in range(nu):
        for b in range(nv):
            near = [(a + da, b + db) for da, db in fitmod._CTRL_OFFSETS
                    if 0 <= a + da < nu and 0 <= b + db < nv]
            heights = [z[c] for c in near]
            hi = near[heights.index(max(heights))]  # earliest offset on ties
            lo = near[heights.index(min(heights))]
            spread = z[hi] - z[lo]
            total.append(spread ** 2)
            grad[hi[0]][hi[1]].append(2.0 * spread / count)
            grad[lo[0]][lo[1]].append(-2.0 * spread / count)
    return (math.fsum(total) / count,
            np.array([[math.fsum(terms) for terms in row] for row in grad]))


def per_offset_roughness(z):
    """Value and gradient of the regularizer by the per-offset scatter it
    was written as: a stack of shifted lattices, nanargmax/nanargmin over
    it and one np.add.at per offset for the argmax terms, then the argmin
    terms.  The arithmetic and its order are the regularizer's, so results
    must be equal."""
    nu, nv = z.shape
    offsets = fitmod._CTRL_OFFSETS
    stack = np.full((len(offsets), nu, nv), np.nan)
    for k, (da, db) in enumerate(offsets):
        a_lo, a_hi = max(0, -da), nu - max(0, da)
        b_lo, b_hi = max(0, -db), nv - max(0, db)
        stack[k, a_lo:a_hi, b_lo:b_hi] = z[a_lo + da:a_hi + da, b_lo + db:b_hi + db]
    hi_idx = np.nanargmax(stack, axis=0)
    lo_idx = np.nanargmin(stack, axis=0)
    spread = (np.take_along_axis(stack, hi_idx[None], axis=0)[0]
              - np.take_along_axis(stack, lo_idx[None], axis=0)[0])
    count = nu * nv
    grad = np.zeros_like(z)
    aa, bb = np.meshgrid(np.arange(nu), np.arange(nv), indexing="ij")
    for k, (da, db) in enumerate(offsets):
        for idx, sign in ((hi_idx, 2.0), (lo_idx, -2.0)):
            sel = idx == k
            np.add.at(grad, (aa[sel] + da, bb[sel] + db), sign * spread[sel] / count)
    return float((spread ** 2).sum() / count), grad


@pytest.mark.parametrize("shape", [(35, 35), (9, 6), (2, 2), (3, 40)])
def test_roughness_equals_the_per_offset_scatter(shape):
    rng = np.random.default_rng(sum(shape))
    for z in (rng.normal(0.0, 2.0, shape), rng.integers(0, 3, shape).astype(float)):
        value, grad = fitmod.Roughness(*shape)(z)
        expected_value, expected_grad = per_offset_roughness(z)
        assert value == expected_value
        npt.assert_array_equal(grad, expected_grad)


@pytest.mark.parametrize("lattice", ["random", "integer", "constant", "2x2"])
def test_roughness_matches_a_per_node_loop(lattice):
    rng = np.random.default_rng(7)
    z = {"random": rng.normal(0.0, 2.0, (9, 6)),
         # few distinct heights: many ties, yet nonzero ranges
         "integer": rng.integers(0, 3, (7, 8)).astype(float),
         "constant": np.full((5, 5), 3.25),
         "2x2": np.array([[0.0, 1.5], [-0.5, 4.0]])}[lattice]
    value, grad = fitmod.Roughness(*z.shape)(z)
    expected_value, expected_grad = per_node_roughness(z)
    assert value == pytest.approx(expected_value, rel=1e-13, abs=0.0)
    npt.assert_allclose(grad, expected_grad, rtol=1e-13, atol=1e-15)
    if lattice == "constant":
        assert value == 0.0 and not grad.any()


def test_roughness_needs_a_2x2_grid():
    with pytest.raises(ValueError, match="at least 2x2"):
        fitmod.Roughness(1, 5)


@pytest.mark.parametrize("shape", [(8, 8), (13, 6), (35, 35)])
def test_start_heights_are_per_node_medians(scene, shape):
    dsm = scene.dsm
    values = np.round(dsm.values, 1)  # ties between cells
    values[::4, ::3] = np.nan         # nodes with odd and even counts
    dsm = type(dsm)(dsm.width, dsm.height, dsm.cell_size_x, dsm.cell_size_y,
                    dsm.origin_x, dsm.origin_y, values)
    surface = fitmod.initialize_surface(dsm, scene.dtm, *shape)
    nu, nv = shape
    x0, x1, y0, y1 = dsm.center_extent
    xs = dsm.origin_x + np.arange(dsm.width) * dsm.cell_size_x
    ys = dsm.origin_y + np.arange(dsm.height) * dsm.cell_size_y
    expected = np.full(shape, float(np.median(scene.dtm.values)))
    for a in range(nu):
        for b in range(nv):
            cols = np.clip(np.round((xs - x0) / (x1 - x0) * (nu - 1)), 0, nu - 1) == a
            rows = np.clip(np.round((ys - y0) / (y1 - y0) * (nv - 1)), 0, nv - 1) == b
            cell_values = values[np.ix_(rows, cols)]
            cell_values = cell_values[~np.isnan(cell_values)]
            if cell_values.size:
                expected[a, b] = np.median(cell_values)
    npt.assert_array_equal(surface.control_points[:, :, 2], expected)
