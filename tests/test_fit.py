"""Fit loss gradients and the returned iterate.

The analytic gradients of ``total_loss`` are checked against central finite
differences along random directions, on a seeded 41 x 41 synth tile with an
8 x 8 control grid and perturbed weights.
"""

import numpy as np
import pytest

from roadsurf import fit as fitmod
from roadsurf import synth


@pytest.fixture(scope="module")
def scene():
    return synth.generate(synth.SceneSpec(cell_size=2.5, vehicles=2, trees=2, facades=1,
                                          corrupt_mask=True, jitter_sigma=0.02, seed=3))


def loss(surface, scene, control_z, log_weights):
    current = surface.with_updates(control_z=control_z, weights=np.exp(log_weights))
    return fitmod.total_loss(current, scene.dsm, scene.dtm, scene.mask, fitmod.LossWeights())


def test_gradients_match_central_differences(scene):
    rng = np.random.default_rng(0)
    surface = fitmod.initialize_surface(scene.dsm, scene.dtm, num_ctrl_u=8, num_ctrl_v=8)
    z0 = surface.control_points[:, :, 2]
    lw0 = rng.uniform(-0.5, 0.5, surface.weights.shape)
    _, _, g_z, g_w = loss(surface, scene, z0, lw0)
    h = 1e-5
    for _ in range(40):
        d = rng.normal(size=z0.shape)
        numeric = (loss(surface, scene, z0 + h * d, lw0)[0]
                   - loss(surface, scene, z0 - h * d, lw0)[0]) / (2 * h)
        assert numeric == pytest.approx((g_z * d).sum(), rel=1e-5)
        numeric = (loss(surface, scene, z0, lw0 + h * d)[0]
                   - loss(surface, scene, z0, lw0 - h * d)[0]) / (2 * h)
        assert numeric == pytest.approx((g_w * d).sum(), rel=1e-5)


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
