"""Surface fitting: composite loss and gradient descent on control elevations
and, when they are free, weights.

The loss pulls the surface toward the DSM inside the road mask and toward the
DTM outside it, both as mean absolute residuals over the raster, plus a
squared-range penalty on control-point elevation neighborhoods that keeps the
lattice smooth.  Gradients are analytic throughout: the rasterized residual
terms chain through the rational basis, and weights are optimized through a
log reparameterization so they stay positive.  Log-weights are additionally
clipped to a fixed box after every step: the optimizer takes near-constant
magnitude steps, so an unbounded parameterization would let weights drift to
extremes that condition the rational denominator badly.

The schedule: elevations start at node medians of the loss's own target,
and ADAM's step drops on each plateau (see ``fit``), since the L1 terms'
sign gradients keep the steps near the step size and the loss stalls at a
level that size sets.  Weights move only when ``weight_learning_rate`` is
above 0; at the default 0 they stay at 1, a B-spline fit.

A fit builds one ``Objective`` from what stays fixed while ADAM moves the
parameters: the lattice basis of the raster grid, one target raster, the
per-cell gradient coefficients, the regularizer's gather table and, with
frozen weights, the rational denominator.  Each iteration then costs the
height field, one residual pass and the back-projection through the basis.
``total_loss`` builds a free-weight one and evaluates it once, so one-off
evaluations take the fit loop's path.  Its working rasters stay resident
from call to call (see ``Objective``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .grid import Mask, Raster, check_finite
from .nurbs import NurbsSurface, grid_basis, grid_product

# control-grid 8-neighborhood (da, db), fixed order; ties in the neighborhood
# range pick the earliest offset
_CTRL_OFFSETS = [
    (da, db)
    for db in (-1, 0, 1)
    for da in (-1, 0, 1)
    if (da, db) != (0, 0)
]

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

    The roughness term is normalized by control-point count, which makes it
    several times stronger per parameter than the raster-mean data terms, so
    its default weight is well below 1; larger values visibly flatten sloped
    terrain and spread any bad initial elevations sideways.
    """

    lambda_terrain: float = 1.0
    lambda_reg: float = 0.05

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
    best iterate instead.  ``drops`` counts the plateau drops taken.
    """

    loss_total: list[float] = field(default_factory=list)
    loss_road: list[float] = field(default_factory=list)
    loss_terrain: list[float] = field(default_factory=list)
    loss_reg: list[float] = field(default_factory=list)
    iterations: int = 0
    stop_reason: str = ""
    drops: int = 0
    best_iteration: int = -1
    best_loss: float = float("inf")


class Roughness:
    """Squared elevation range over each control point's 8-neighborhood,
    averaged over a (nu, nv) control grid.

    For every control index the spread max - min of the differences to its
    existing neighbors is squared; gradients flow only through the argmax and
    argmin neighbors, ties picking the earliest offset in ``_CTRL_OFFSETS``.
    The gather table of neighbor indices is built once; index nu * nv stands
    for a neighbor outside the grid and reads as -inf for the maximum and
    +inf for the minimum.  The gradient adds the argmax terms in node order,
    then the argmin terms.
    """

    def __init__(self, nu: int, nv: int):
        if nu < 2 or nv < 2:
            raise ValueError("regularizer needs a control grid of at least 2x2")
        aa, bb = np.meshgrid(np.arange(nu), np.arange(nv), indexing="ij")
        self.count = nu * nv
        # one row per node, so that each node's extremes are a search
        # along a contiguous row of 8
        self.neighbors = np.full((self.count, len(_CTRL_OFFSETS)), self.count)
        for k, (da, db) in enumerate(_CTRL_OFFSETS):
            a, b = aa + da, bb + db
            inside = ((a >= 0) & (a < nu) & (b >= 0) & (b < nv)).ravel()
            self.neighbors[inside, k] = (a * nv + b).ravel()[inside]
        self.row_start = np.arange(0, self.neighbors.size, len(_CTRL_OFFSETS))

    def _extreme(self, padded: np.ndarray, pick) -> tuple[np.ndarray, np.ndarray]:
        """Flat index into the gather table of each node's extreme neighbor,
        by ``pick`` (argmax or argmin, the first on ties), and its elevation."""
        # take: a gather faster than fancy indexing on these sizes
        stack = padded.take(self.neighbors)  # (n, 8)
        at = pick(stack, axis=1) + self.row_start
        return at, stack.take(at)

    def __call__(self, z: np.ndarray) -> tuple[float, np.ndarray]:
        """Loss value and its gradient with respect to the elevations z."""
        n = self.count
        # diff to neighbor l is z - z[l]; its max/min over l swap the roles
        # of the neighbor extrema, so the range is max(z[l]) - min(z[l])
        padded = np.append(z, -np.inf)
        hi_at, hi = self._extreme(padded, np.argmax)
        padded[n] = np.inf
        lo_at, lo = self._extreme(padded, np.argmin)
        rng = hi - lo
        value = float((rng ** 2).sum() / n)
        step = 2.0 * rng / n
        to = self.neighbors.take(np.concatenate([hi_at, lo_at]))
        grad = np.bincount(to, weights=np.concatenate([step, -step]), minlength=n + 1)
        return value, grad[:n].reshape(z.shape)


def _abs_sum(values: np.ndarray, keep: np.ndarray, out: np.ndarray) -> float:
    """Sum of ``np.where(mask, np.abs(values), 0.0)`` for a float64 array,
    with ``keep`` the mask as int64 words holding every bit but the sign bit
    on masked cells and zero elsewhere.  One bitwise AND into ``out`` clears
    the sign bit, which is all ``np.abs`` does to a float64, NaN and
    infinities included, and writes +0.0 outside the mask; so the sum is the
    one of the masked absolute values bit for bit, at a fraction of the cost
    of ``abs`` and ``where``."""
    words = out.view(np.int64)
    np.bitwise_and(values.view(np.int64), keep, out=words)
    return out.sum()


def _target(dsm: Raster, dtm: Raster, mask_plus: Mask) -> np.ndarray:
    """The data terms' target: the DSM on road cells, the DTM elsewhere."""
    return np.where(mask_plus.bits == 1, dsm.values, dtm.values)


class Objective:
    """The composite loss of one fit problem as a function of control
    elevations and weights.

    Built once from everything that stays fixed while they change: the
    lattice basis of the raster grid, one target raster (the DSM on road
    cells, the DTM elsewhere), the gradient coefficient of each cell (0 where
    the target is NaN), the road and terrain cell masks, which leave such
    cells out, and the regularizer's gather table.  Keeps four rasters of
    8-byte words resident (target, coefficients, two masks) besides the basis.

    A call also works in place, in a workspace allocated here: three more
    rasters (height field, rational denominator, and the masked absolute
    residuals, whose buffer then takes the scaled back-projection), one
    (H, nu) buffer for the matrix products and, only when the weights are
    free, a separate residual raster; frozen weights write the residual over
    the height field.  Fresh raster temporaries cost more than the
    arithmetic on them: at 251² each is 0.5 MB, and blocks that large go
    back to the system when freed, so each new one is page-faulted in again.
    A call still allocates its control-grid-sized results and the
    regularizer's (nu * nv, 8) gathers, one at a time.

    With ``free_weights`` False the denominator of the surface's weights is
    filled once here, and the coefficients divided by it; a call must pass
    those weights, does two raster products instead of four, and returns the
    free call's value, parts and d/d z bit for bit and None for d/d log w.
    """

    def __init__(self, surface: NurbsSurface, dsm: Raster, dtm: Raster,
                 mask_plus: Mask, weights: LossWeights, free_weights: bool = True):
        self.bu, self.bv = grid_basis(
            surface, *dsm.cell_to_world(np.arange(dsm.width), np.arange(dsm.height)))
        road = mask_plus.bits == 1
        target = _target(dsm, dtm, mask_plus)
        has_target = ~np.isnan(target)
        self.target = np.nan_to_num(target, nan=0.0, copy=False)
        magnitude = np.iinfo(np.int64).max  # every bit but the sign bit
        self.road_bits = (road & has_target) * magnitude
        self.terrain_bits = (~road & has_target) * magnitude
        self.cells = dsm.height * dsm.width
        # d |residual| mean / d height, up to the residual's sign
        self.coef = np.where(road, -1 / self.cells, weights.lambda_terrain * (-1 / self.cells))
        self.coef[~has_target] = 0.0
        self.roughness = Roughness(surface.num_ctrl_u, surface.num_ctrl_v)
        self.weights = weights
        self.free_weights = free_weights
        self._height, self._den, self._words = (np.empty(road.shape) for _ in range(3))
        # frozen weights read no height field after the residual, so the
        # residual overwrites it
        self._residual = np.empty(road.shape) if free_weights else self._height
        # the forward (H, nu) and backward (nu, H) products never overlap
        products = np.empty(dsm.height * surface.num_ctrl_u)
        self._rows = products.reshape(dsm.height, surface.num_ctrl_u)
        self._cols = products.reshape(surface.num_ctrl_u, dsm.height)
        if not free_weights:
            grid_product(self.bu, self.bv, surface.weights, self._den, self._rows)
            # a sign times coef / den rounds as sign times coef, over den
            self.coef /= self._den

    def __call__(self, z: np.ndarray, w: np.ndarray
                 ) -> tuple[float, dict[str, float], np.ndarray, np.ndarray | None]:
        """(value, per-term values, d/d z, d/d log w) at elevations z and
        weights w.  Non-finite values are returned, not warned about: the
        caller decides what a diverged loss means.  The returned arrays are
        fresh; only the workspace is reused from call to call."""
        z_grid, den, residual = self._height, self._den, self._residual
        with np.errstate(all="ignore"):
            if self.free_weights:
                grid_product(self.bu, self.bv, w, den, self._rows)
            grid_product(self.bu, self.bv, w * z, z_grid, self._rows)
            z_grid /= den
            # both data terms are mean absolute residuals over all cells;
            # cells without a target are outside both masks
            np.subtract(self.target, z_grid, out=residual)
            v_road = float(_abs_sum(residual, self.road_bits, self._words) / self.cells)
            v_terr = float(_abs_sum(residual, self.terrain_bits, self._words) / self.cells)
            v_reg, g_reg = self.roughness(z)
            # d loss / d raster cell over the denominator (zero subgradient
            # where the residual vanishes), in the masked words' buffer: an
            # in-place sign would take numpy's scalar loop
            scaled = np.sign(residual, out=self._words)
            scaled *= self.coef
            if self.free_weights:
                scaled /= den
            back = self._back(scaled)  # (nu, nv): basis-weighted sums
            lam = self.weights
            d_z = back * w + lam.lambda_reg * g_reg
            value = v_road + lam.lambda_terrain * v_terr + lam.lambda_reg * v_reg
            parts = {"road": v_road, "terrain": v_terr, "reg": v_reg}
            if not self.free_weights:
                return value, parts, d_z, None
            scaled *= z_grid
            d_w = z * back - self._back(scaled)
            return value, parts, d_z, d_w * w  # chain through w = exp(log w)

    def _back(self, scaled: np.ndarray) -> np.ndarray:
        """``bu.T @ scaled.T @ bv`` with the (nu, H) product written into the
        workspace."""
        return np.matmul(self.bu.T, scaled.T, out=self._cols) @ self.bv


def total_loss(surface: NurbsSurface, dsm: Raster, dtm: Raster, mask_plus: Mask,
               weights: LossWeights) -> tuple[float, dict[str, float], np.ndarray, np.ndarray]:
    """Composite loss and its gradients at the surface's own elevations and
    weights.

    Returns (value, per-term values, d/d control_z, d/d weight_params) where
    weight_params are the logs of the surface weights.
    """
    objective = Objective(surface, dsm, dtm, mask_plus, weights)
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
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    report = FitReport()
    best = (float("inf"), theta.copy(), None)  # value, iterate, its gradient
    stall = t = 0

    def score(params):
        value, parts, g_z, g_w = objective(params[0], np.exp(params[1]) if free
                                           else surface.weights)
        return value, parts, np.stack([g_z, g_w][:1 + free])

    for it in range(config.max_iters):
        value, parts, g = score(theta)
        if not np.isfinite(value):
            raise RuntimeError(
                f"non-finite loss at iteration {it}: road={parts['road']!r} "
                f"terrain={parts['terrain']!r} reg={parts['reg']!r}")
        report.loss_total.append(value)
        report.loss_road.append(parts["road"])
        report.loss_terrain.append(parts["terrain"])
        report.loss_reg.append(parts["reg"])
        if value < best[0]:
            stall = 0 if best[0] - value >= config.early_stop_min_delta else stall + 1
            best = (value, theta.copy(), g)
            report.best_iteration = it
        else:
            stall += 1
        if stall >= config.early_stop_patience:
            if report.drops == _MAX_DROPS:
                report.iterations = it + 1
                report.stop_reason = "plateau"
                break
            report.drops += 1
            rate *= _DROP_FACTOR
            theta[:], g = best[1:]
            m[:] = v[:] = 0.0
            stall = t = 0
        t += 1
        m *= _BETA1
        m += (1 - _BETA1) * g
        v *= _BETA2
        v += (1 - _BETA2) * g * g
        m_hat = m / (1 - _BETA1 ** t)
        v_hat = v / (1 - _BETA2 ** t)
        theta -= rate * m_hat / (np.sqrt(v_hat) + _EPS)
        # projected step on the log-weights, if free: constant-magnitude
        # updates would let them drift and degenerate the denominator
        np.clip(theta[1:], -_LOG_WEIGHT_CLIP, _LOG_WEIGHT_CLIP, out=theta[1:])
    else:
        report.iterations = config.max_iters
        report.stop_reason = "max_iters"
        # the loop never evaluates the final update; give it a chance to win.
        # A plateau breaks before its step, so it has scored its last iterate.
        final_value = score(theta)[0]
        if np.isfinite(final_value) and final_value < best[0]:
            best = (final_value, theta.copy(), None)
            report.best_iteration = report.iterations
    report.best_loss = best[0]
    fitted = replace(surface, control_z=best[1][0],
                     weights=np.exp(best[1][1]) if free else surface.weights)
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
