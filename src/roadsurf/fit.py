"""Surface fitting: composite loss and gradient descent on control elevations
and, when they are free, weights.

The loss pulls the surface toward the DSM inside the road mask and toward the
DTM outside it, both as mean absolute residuals over the raster, plus a
thin-plate penalty on the control elevations' second differences that keeps
the surface smooth and leaves planes free.  Gradients are analytic
throughout: the rasterized residual terms chain through the rational basis,
and weights are optimized through a log reparameterization so they stay
positive.  Log-weights are additionally clipped to a fixed box after every
step: the optimizer takes near-constant magnitude steps, so an unbounded
parameterization would let weights drift to extremes that condition the
rational denominator badly.

The schedule: elevations start at node medians of the loss's own target,
and ADAM's step drops on each plateau (see ``fit``), since the L1 terms'
sign gradients keep the steps near the step size and the loss stalls at a
level that size sets.  Weights move only when ``weight_learning_rate`` is
above 0; at the default 0 they stay at 1, a B-spline fit.

A fit builds one ``Objective`` from what stays fixed while ADAM moves the
parameters: the raster grid's ``SpanGrid``, the target, the regularizer's
matrices and, with frozen weights, the rational denominator, folded into the
target, sum weights and gradient magnitudes.  Its rasters are laid out
span-major, by u knot span, so the height field and the back-projection
each take one stacked product with a cubic's 4 basis values per column, not
a dense one with all 35 of a 35-point net.  A frozen-weight iteration then
costs the height field, one residual pass, one product for both data terms
and the back-projection; ADAM's step and the loss bookkeeping work in
control-grid buffers allocated once per fit, under one ``np.errstate``.
``total_loss`` evaluates a free-weight one once, so one-off evaluations take
the fit loop's path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import Mask, Raster, check_finite
from .nurbs import NurbsSurface, SpanGrid

# bound on |log w| during fitting; weight ratios beyond e^4 between lattice
# neighbors add no useful shape freedom for a height field
_LOG_WEIGHT_CLIP = 2.0

# ADAM moment decay rates and denominator guard (Kingma & Ba 2015 defaults)
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8

# step factor of each plateau drop, and the drops before a plateau ends a fit
_DROP_FACTOR, _MAX_DROPS = 0.3, 6


@dataclass
class LossWeights:
    """Term weights for the composite loss.

    The roughness term is the thin-plate energy of the control net (see
    ``Roughness``), 0 on planes, so it charges curvature and not grade.  On
    clean synthetic scenes weights of 0.5 to 2 gave the lowest road error;
    the default takes the low end, the one that smooths least.
    """

    lambda_terrain: float = 1.0
    lambda_reg: float = 0.5

    def __post_init__(self):
        if self.lambda_terrain < 0 or self.lambda_reg < 0:
            raise ValueError("loss weights must be non-negative")
        check_finite(self)  # NaN passes the comparison above


@dataclass
class FitConfig:
    """ADAM's start steps, the plateau test and a cap on iterations.  A
    weight step of 0 freezes the weights (a B-spline fit); above 0 the fit
    is rational.  A fit normally ends on a plateau well before max_iters."""

    learning_rate: float = 0.1
    weight_learning_rate: float = 0.0
    max_iters: int = 1000
    early_stop_patience: int = 10
    early_stop_min_delta: float = 1e-4

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0 <= self.weight_learning_rate < math.inf:
            raise ValueError("weight_learning_rate must be finite and non-negative")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be at least 1")
        if self.early_stop_min_delta < 0:
            raise ValueError("early_stop_min_delta must be non-negative")
        check_finite(self)  # NaN passes every comparison above


@dataclass
class FitReport:
    """Loss trace and outcome of one optimization run.

    The history lists hold one entry per performed iteration, evaluated at
    that iteration's iterate; a step after a plateau drop starts from the
    best iterate instead.  ``drops`` counts the plateau drops taken,
    ``final_step`` is the elevation step at the end, and ``plateau_gain``
    the best loss at the last drop less the final one (0 without a drop).
    """

    loss_total: list[float] = field(default_factory=list)
    loss_road: list[float] = field(default_factory=list)
    loss_terrain: list[float] = field(default_factory=list)
    loss_reg: list[float] = field(default_factory=list)
    iterations: int = 0
    best_iteration: int = -1
    best_loss: float = float("inf")
    stop_reason: str = ""
    drops: int = 0
    final_step: float = 0.0
    plateau_gain: float = 0.0


def _differences(knots: np.ndarray, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """First and second divided differences over the Greville abscissae of a
    uniform clamped knot vector, as (n - 1, n) and (n - 2, n) matrices times
    the interior knot span h and h ** 2, so that between evenly spaced
    abscissae they read plain index differences."""
    greville = sliding_window_view(knots[1:-1], degree).mean(axis=1)
    n, h = greville.size, knots[degree + 1] - knots[degree]
    first = np.diff(np.eye(n), axis=0) * (h / np.diff(greville))[:, None]
    second = np.diff(first, axis=0) * (2 * h / (greville[2:] - greville[:-2]))[:, None]
    return first, second


class Roughness:
    """Thin-plate energy of a surface's control elevations: the mean over
    nodes of z_uu² + 2 z_uv² + z_vv², the P-spline difference penalty of
    Eilers & Marx 1996 taken as divided differences over each axis's
    Greville abscissae (see ``_differences``).  It is 0, up to rounding, on
    the control nets of planar surfaces, which are linear in those
    abscissae, so it charges bending and not grade."""

    def __init__(self, surface: NurbsSurface):
        (self.u1, self.u2), (self.v1, self.v2) = (
            _differences(knots, degree)
            for knots, degree in zip(surface.knots(), (surface.degree_u, surface.degree_v)))
        self.count = surface.control_z.size

    def __call__(self, z: np.ndarray) -> tuple[float, np.ndarray]:
        """Loss value and its gradient with respect to the elevations z."""
        z_uu, z_vv, z_uv = self.u2 @ z, z @ self.v2.T, self.u1 @ z @ self.v1.T
        value = ((z_uu ** 2).sum() + (z_vv ** 2).sum() + 2 * (z_uv ** 2).sum()) / self.count
        grad = self.u2.T @ z_uu + z_vv @ self.v2 + 2 * (self.u1.T @ z_uv @ self.v1)
        return float(value), grad * (2 / self.count)


def _target(dsm: Raster, dtm: Raster, mask_plus: Mask) -> np.ndarray:
    """The data terms' target: the DSM on road cells, the DTM elsewhere."""
    return np.where(mask_plus.bits == 1, dsm.values, dtm.values)


_SIGN, _MAGNITUDE = np.iinfo(np.int64).min, np.iinfo(np.int64).max  # float64 bit masks


class Objective:
    """The composite loss of one fit problem as a function of control
    elevations and weights.

    With P = bv (w z)^T bu^T the weighted height field, den the weights'
    field and t the target (the DSM on road cells, the DTM elsewhere, 0
    where NaN), a cell's data term is |P - t'| / (den cells), t' = t den.
    Built once: the raster grid's ``SpanGrid``, t, the road and terrain
    cells with a target and the regularizer's matrices; ``_fold`` fills
    from den t', the (2, cells) road and terrain sum weights 1 / (den cells)
    and the gradient magnitudes k, those times 1 or lambda_terrain.  Every
    raster is kept in the grid's padded span-major layout, so each raster
    product touches only the p+1 control columns of a cell's knot span; pad
    cells have no target, so they weigh 0 in both sums and take a 0
    gradient.  A call works in rasters allocated here, P and one that takes
    |P - t'| and then d loss / d P: a fresh raster (0.5 MB at 251²) goes
    back to the system when freed and is page-faulted in anew.  The
    back-projection spreads into the raster that held r', dead by then.  A
    call allocates only control-grid-sized arrays.

    With ``free_weights`` False den is folded once here, t' over t, so six
    rasters stay resident.  A call must pass those weights and does no
    raster division and two raster products, not four: r' = P - t' over P,
    |r'| by an AND, both data terms in one matrix-vector product and
    copysign(k, r') by an AND and an OR.  It returns the free call's value,
    parts and d/d z bit for bit and None for d/d log w.  Free weights fold
    their den on each call, into a t' raster that then takes r'.  Where r'
    is an exact zero the gradient takes +k or -k by the zero's sign, not
    np.sign's 0: each is a subgradient of |r'|.

    Non-finite values are returned, not raised: the caller decides what a
    diverged loss means.  ``fit`` and ``total_loss`` call it under
    ``np.errstate(all="ignore")``, entered once per fit, so that it does not
    warn about them either.
    """

    def __init__(self, surface: NurbsSurface, dsm: Raster, dtm: Raster,
                 mask_plus: Mask, weights: LossWeights, free_weights: bool = True):
        self.grid = grid = SpanGrid(
            surface, *dsm.cell_to_world(np.arange(dsm.width), np.arange(dsm.height)))
        road = grid.to_spans(mask_plus.bits == 1, False)
        self.target = grid.to_spans(_target(dsm, dtm, mask_plus), np.nan)  # pads: no target
        has_target = ~np.isnan(self.target)
        np.nan_to_num(self.target, nan=0.0, copy=False)
        self._road, self._terrain = road & has_target, ~road & has_target
        self.cells = dsm.height * dsm.width
        self.roughness, self.weights, self.free_weights = Roughness(surface), weights, free_weights
        self.sums = np.empty((2, self.target.size))
        self.magnitude, self._height, self._words = (np.empty(grid.shape) for _ in range(3))
        if free_weights:
            self._den, self._shifted = (np.empty(grid.shape) for _ in range(2))
            self._residual = self._shifted  # P is still needed after r'
            # each call refolds; a product with a 0/1 float64 raster is faster
            # than with a bool one, and the same bits for k > 0
            self._road, self._terrain = self._road.astype(float), self._terrain.astype(float)
        else:
            # den is needed only here, so the |r'| raster holds it
            grid.product(surface.weights, self._words)
            self._shifted, self._residual = self.target, self._height
            self._fold(self._words)
            self._road = self._terrain = None

    def _fold(self, den: np.ndarray) -> None:
        """Fill t', the sum weights and k from den, in the same passes for
        free and frozen weights, so both give the same bits."""
        k, (road, terrain) = self.magnitude, self.sums.reshape(2, *den.shape)
        np.multiply(den, self.cells, out=k)
        np.divide(1.0, k, out=k)
        np.multiply(k, self._road, out=road)
        np.multiply(k, self._terrain, out=terrain)
        np.multiply(terrain, self.weights.lambda_terrain, out=k)
        k += road
        np.multiply(self.target, den, out=self._shifted)

    def __call__(self, z: np.ndarray, w: np.ndarray
                 ) -> tuple[float, dict[str, float], np.ndarray, np.ndarray | None]:
        """(value, per-term values, d/d z, d/d log w) at elevations z and
        weights w.  The returned arrays are fresh; only the workspace is
        reused from call to call."""
        grid, height, words = self.grid, self._height, self._words
        bits = words.view(np.int64)
        if self.free_weights:
            grid.product(w, self._den)
            self._fold(self._den)
        grid.product(w * z, height)
        residual = np.subtract(height, self._shifted, out=self._residual).view(np.int64)
        # |r'| clears the sign bit, as np.abs does to a float64; cells
        # without a target weigh 0 in both terms' sums
        np.bitwise_and(residual, _MAGNITUDE, out=bits)
        v_road, v_terr = (self.sums @ words.reshape(-1)).tolist()
        v_reg, g_reg = self.roughness(z)
        # d loss / d P: copysign(k, r'), k's sign bit being clear
        np.bitwise_and(residual, _SIGN, out=bits)
        bits |= self.magnitude.view(np.int64)
        back = grid.back(words, self._residual)  # (nu, nv): basis-weighted sums
        lam = self.weights
        d_z = back * w + lam.lambda_reg * g_reg
        value = v_road + lam.lambda_terrain * v_terr + lam.lambda_reg * v_reg
        parts = {"road": v_road, "terrain": v_terr, "reg": v_reg}
        if not self.free_weights:
            return value, parts, d_z, None
        height /= self._den  # the height field
        words *= height
        d_w = z * back - grid.back(words, self._residual)
        return value, parts, d_z, d_w * w  # chain through w = exp(log w)


def total_loss(surface: NurbsSurface, dsm: Raster, dtm: Raster, mask_plus: Mask,
               weights: LossWeights) -> tuple[float, dict[str, float], np.ndarray, np.ndarray]:
    """Composite loss and its gradients at the surface's own elevations and
    weights.

    Returns (value, per-term values, d/d control_z, d/d weight_params) where
    weight_params are the logs of the surface weights.
    """
    objective = Objective(surface, dsm, dtm, mask_plus, weights)
    with np.errstate(all="ignore"):
        return objective(surface.control_z, surface.weights)


def fit(surface: NurbsSurface, dsm: Raster, dtm: Raster, mask_plus: Mask,
        weights: LossWeights, config: FitConfig) -> tuple[NurbsSurface, FitReport]:
    """ADAM descent on control elevations, and on log-weights when
    config.weight_learning_rate is above 0.

    On each of the first ``_MAX_DROPS`` plateaus (early_stop_patience
    iterations without a gain of early_stop_min_delta on the best loss) the
    fit returns to the best iterate and its stored gradient, multiplies its
    steps by ``_DROP_FACTOR`` and resets ADAM's moments and bias-correction
    count; the next plateau ends it ("plateau") unless max_iters does first.
    No iterate is scored twice.  Returns the best iterate seen, frozen
    weights as the input's own array, including the update after the last
    iteration when max_iters ends the run.  Deterministic for fixed inputs.
    """
    free = config.weight_learning_rate > 0
    objective = Objective(surface, dsm, dtm, mask_plus, weights, free_weights=free)
    # elevations, and log-weights when they move, stacked so each ADAM step
    # is one pass
    theta = np.stack([surface.control_z, np.log(surface.weights)][:1 + free])
    rate = np.array([config.learning_rate, config.weight_learning_rate])[:1 + free, None, None]
    # ADAM's moments, the gradient, the best iterate and its gradient and
    # two step buffers, allocated once: a step allocates nothing
    m, v, g, best_theta, best_g, step, scale = (np.zeros_like(theta) for _ in range(7))
    z, w = theta[0], np.exp(theta[1]) if free else surface.weights
    report = FitReport()
    logs = (report.loss_total, report.loss_road, report.loss_terrain, report.loss_reg)
    best_loss, drop_loss = math.inf, math.inf  # the best loss, and that at the last drop
    stall = t = 0

    def score():
        """The loss and parts at theta, its gradient written into g."""
        value, parts, g[0], g_w = objective(z, w)
        if free:
            g[1] = g_w
        return value, parts

    with np.errstate(all="ignore"):
        for it in range(config.max_iters):
            value, parts = score()
            if not np.isfinite(value):
                raise RuntimeError(
                    f"non-finite loss at iteration {it}: road={parts['road']!r} "
                    f"terrain={parts['terrain']!r} reg={parts['reg']!r}")
            for log, part in zip(logs, (value, *parts.values())):
                log.append(part)
            if value < best_loss:
                stall = 0 if best_loss - value >= config.early_stop_min_delta else stall + 1
                best_loss = value
                np.copyto(best_theta, theta)
                np.copyto(best_g, g)
                report.best_iteration = it
            else:
                stall += 1
            if stall >= config.early_stop_patience:
                if report.drops == _MAX_DROPS:
                    report.iterations, report.stop_reason = it + 1, "plateau"
                    break
                report.drops += 1
                drop_loss = best_loss
                rate *= _DROP_FACTOR
                np.copyto(theta, best_theta)
                np.copyto(g, best_g)
                m.fill(0.0)
                v.fill(0.0)
                stall = t = 0
            t += 1
            m *= _BETA1
            np.multiply(g, 1 - _BETA1, out=step)
            m += step
            v *= _BETA2
            np.multiply(g, 1 - _BETA2, out=step)
            step *= g
            v += step
            np.divide(v, 1 - _BETA2 ** t, out=scale)
            np.sqrt(scale, out=scale)
            scale += _EPS
            np.divide(m, 1 - _BETA1 ** t, out=step)
            step *= rate
            step /= scale
            theta -= step  # rate m_hat / (sqrt(v_hat) + eps)
            if free:
                # projected step on the log-weights: constant-magnitude
                # updates would let them drift and degenerate the denominator
                np.clip(theta[1], -_LOG_WEIGHT_CLIP, _LOG_WEIGHT_CLIP, out=theta[1])
                np.exp(theta[1], out=w)
        else:
            report.iterations, report.stop_reason = config.max_iters, "max_iters"
            # the loop never evaluates the final update; give it a chance to
            # win.  A plateau breaks before its step, so it has scored its
            # last iterate.
            final_value = score()[0]
            if np.isfinite(final_value) and final_value < best_loss:
                best_loss = final_value
                np.copyto(best_theta, theta)
                report.best_iteration = report.iterations
    report.best_loss = best_loss
    report.final_step = float(rate[0, 0, 0])
    report.plateau_gain = drop_loss - best_loss if report.drops else 0.0
    fitted = replace(surface, control_z=best_theta[0],
                     weights=np.exp(best_theta[1]) if free else surface.weights)
    return fitted, report


def initialize_surface(dsm: Raster, dtm: Raster, mask_plus: Mask, num_ctrl_u: int = 35,
                       num_ctrl_v: int = 35, degree_u: int = 3,
                       degree_v: int = 3) -> NurbsSurface:
    """Lattice surface over the DSM extent with unit weights.

    Each control elevation starts at the median of the loss's target (the
    DSM on road cells of mask_plus, the DTM elsewhere, so trees and facades
    off the road do not lift it) over the non-NaN cells nearest to its
    node; nodes without one fall back to the global DTM median, then to 0.
    """
    dtm_values = dtm.values[dtm.valid]
    fallback = float(np.median(dtm_values)) if dtm_values.size else 0.0
    shape = (num_ctrl_u, num_ctrl_v)
    surface = NurbsSurface(dsm.center_extent, degree_u, degree_v,
                           np.full(shape, fallback), np.ones(shape))
    x0, x1, y0, y1 = surface.extent
    xs, ys = dsm.cell_to_world(np.arange(dsm.width), np.arange(dsm.height))
    ia = np.clip(np.round((xs - x0) / (x1 - x0) * (num_ctrl_u - 1)), 0, num_ctrl_u - 1)
    jb = np.clip(np.round((ys - y0) / (y1 - y0) * (num_ctrl_v - 1)), 0, num_ctrl_v - 1)
    target = _target(dsm, dtm, mask_plus)
    valid = ~np.isnan(target)
    vals = target[valid]
    # lattice node id ia * num_ctrl_v + jb of each valid cell, row-major, in
    # the fewest unsigned bytes, which a stable sort sorts by radix
    node = np.min_scalar_type(num_ctrl_u * num_ctrl_v - 1)
    ids = np.broadcast_to((ia * num_ctrl_v).astype(node), valid.shape)[valid]
    ids += np.broadcast_to(jb.astype(node)[:, None], valid.shape)[valid]
    del target, valid  # not held while the sorts run
    z = surface.control_z.reshape(-1)  # a view: node medians are written in place
    if ids.size:
        # one sort by node, then value, gives every node's median at once:
        # the middle value of an odd count, the mean of the two middle values
        # of an even count, as np.median takes them.  A stable sort by value,
        # then one by node, gives the order of np.lexsort((vals, ids)).
        order = np.argsort(vals, kind="stable")
        order = order[np.argsort(ids[order], kind="stable")]
        ids = ids[order]
        vals = vals[order]
        starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
        counts = np.diff(np.r_[starts, ids.size])
        upper = vals[starts + counts // 2]
        lower = vals[starts + (counts - 1) // 2]
        z[ids[starts]] = np.where(counts % 2 == 1, upper, (lower + upper) / 2)
    return surface
