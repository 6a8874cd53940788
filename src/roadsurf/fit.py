"""Surface fitting: composite loss and gradient descent on control elevations
and weights.

The loss pulls the surface toward the DSM inside the road mask and toward the
DTM outside it, both as mean absolute residuals over the raster, plus a
squared-range penalty on control-point elevation neighborhoods that keeps the
lattice smooth.  Gradients are analytic throughout: the rasterized residual
terms chain through the rational basis, and weights are optimized through a
log reparameterization so they stay positive.  Log-weights are additionally
clipped to a fixed box after every step: the optimizer takes near-constant
magnitude steps, so an unbounded parameterization would let weights drift to
extremes that condition the rational denominator badly.

A fit builds one ``Objective`` from what stays fixed while ADAM moves the
elevations and weights: the lattice basis of the raster grid, one target
raster, the per-cell gradient coefficients and the regularizer's gather
table.  Each iteration then costs the rational height field, one residual
pass and the back-projection through the basis.  ``total_loss`` builds one
and evaluates it once, so one-off evaluations take the fit loop's path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Mask, Raster
from .nurbs import NurbsSurface, grid_basis, grid_heights, lattice_surface

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


@dataclass
class FitConfig:
    learning_rate: float = 0.1
    max_iters: int = 200
    early_stop_patience: int = 10
    early_stop_min_delta: float = 1e-4
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be at least 1")


@dataclass
class FitReport:
    """Loss trace and outcome of one optimization run.

    The history lists hold one entry per performed iteration, evaluated at
    the iterate the step started from.
    """

    loss_total: list[float] = field(default_factory=list)
    loss_road: list[float] = field(default_factory=list)
    loss_terrain: list[float] = field(default_factory=list)
    loss_reg: list[float] = field(default_factory=list)
    iterations: int = 0
    stop_reason: str = ""
    best_iteration: int = -1
    best_loss: float = float("inf")


class FitDivergedError(RuntimeError):
    """Non-finite loss during optimization; carries the partial report."""

    def __init__(self, message: str, report: FitReport):
        super().__init__(message)
        self.report = report


class Roughness:
    """Squared elevation range over each control point's 8-neighborhood,
    averaged over a (nu, nv) control grid.

    For every control index the spread max - min of the differences to its
    existing neighbors is squared; gradients flow only through the argmax and
    argmin neighbors, ties picking the earliest offset in ``_CTRL_OFFSETS``.
    The gather table of neighbor indices is built once; index nu * nv stands
    for a neighbor outside the grid and reads as NaN.
    """

    def __init__(self, nu: int, nv: int):
        if nu < 2 or nv < 2:
            raise ValueError("regularizer needs a control grid of at least 2x2")
        aa, bb = np.meshgrid(np.arange(nu), np.arange(nv), indexing="ij")
        self.count = nu * nv
        self.neighbors = np.full((len(_CTRL_OFFSETS), self.count), self.count)
        for k, (da, db) in enumerate(_CTRL_OFFSETS):
            a, b = aa + da, bb + db
            inside = ((a >= 0) & (a < nu) & (b >= 0) & (b < nv)).ravel()
            self.neighbors[k, inside] = (a * nv + b).ravel()[inside]
        self._offset = np.arange(len(_CTRL_OFFSETS))[:, None]

    def _first(self, stack: np.ndarray, extreme: np.ndarray) -> np.ndarray:
        # earliest offset holding the extreme; a node whose neighbors are
        # all NaN (NaN elevations) falls to the last offset and reads NaN
        last = len(_CTRL_OFFSETS) - 1
        return np.where(stack == extreme, self._offset, last).min(axis=0)

    def __call__(self, z: np.ndarray) -> tuple[float, np.ndarray]:
        """Loss value and its gradient with respect to the elevations z."""
        n = self.count
        stack = np.append(z, np.nan)[self.neighbors]  # (8, n)
        # diff to neighbor l is z - stack[l]; its max/min over l swap the roles
        # of the neighbor extrema, so the range is max(stack) - min(stack)
        hi = np.fmax.reduce(stack)
        lo = np.fmin.reduce(stack)
        rng = hi - lo
        value = float((rng ** 2).sum() / n)
        step = 2.0 * rng / n
        node = np.arange(n)
        hi_at, lo_at = self._first(stack, hi), self._first(stack, lo)
        # one bincount adds the terms in the order of a scatter per offset,
        # argmax terms before argmin terms, nodes in row-major order; uint8
        # keys take numpy's radix sort
        order = np.argsort(np.concatenate([hi_at, lo_at]).astype(np.uint8), kind="stable")
        to = np.concatenate([self.neighbors[hi_at, node], self.neighbors[lo_at, node]])
        grad = np.bincount(to[order], weights=np.concatenate([step, -step])[order],
                           minlength=n + 1)
        return value, grad[:n].reshape(z.shape)


def _zero_outside(values: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``np.where(mask, values, 0.0)`` for a float64 array, with ``keep`` the
    mask as int64 all-ones/all-zeros words: a bitwise AND keeps every value,
    NaN and infinities included, bit for bit and writes +0.0 elsewhere, at
    a fraction of the cost of ``where``."""
    return np.bitwise_and(values.view(np.int64), keep).view(np.float64)


class Objective:
    """The composite loss of one fit problem as a function of control
    elevations and weights.

    Built once from everything that stays fixed while they change: the
    lattice basis of the raster grid, one target raster (the DSM on road
    cells, the DTM elsewhere) and the cells that have no target, the
    gradient coefficient of each cell, the road and terrain cell masks and
    the regularizer's gather table.  Keeps four rasters of 8-byte words
    resident (target, coefficients, two masks) besides the basis.
    """

    def __init__(self, surface: NurbsSurface, dsm: Raster, dtm: Raster,
                 mask_plus: Mask, weights: LossWeights):
        xs = dsm.origin_x + np.arange(dsm.width) * dsm.cell_size_x
        ys = dsm.origin_y + np.arange(dsm.height) * dsm.cell_size_y
        self.bu, self.bv = grid_basis(surface, xs, ys)
        road = mask_plus.bits == 1
        target = np.where(road, dsm.values, dtm.values)
        self.no_target = np.flatnonzero(np.isnan(target))
        self.target = np.nan_to_num(target, nan=0.0)
        self.road_bits = -road.astype(np.int64)  # all ones on road cells
        self.terrain_bits = ~self.road_bits
        self.cells = dsm.height * dsm.width
        # d |residual| mean / d height, up to the residual's sign
        self.coef = np.where(road, -1 / self.cells, weights.lambda_terrain * (-1 / self.cells))
        self.roughness = Roughness(surface.num_ctrl_u, surface.num_ctrl_v)
        self.weights = weights

    def __call__(self, z: np.ndarray, w: np.ndarray
                 ) -> tuple[float, dict[str, float], np.ndarray, np.ndarray]:
        """(value, per-term values, d/d z, d/d log w) at elevations z and
        weights w.  Non-finite values are returned, not warned about: the
        caller decides what a diverged loss means."""
        with np.errstate(all="ignore"):
            z_grid, den = grid_heights(self.bu, self.bv, z, w)
            # both data terms are mean absolute residuals over all cells;
            # cells without a target contribute zero
            residual = self.target - z_grid
            np.put(residual, self.no_target, 0.0)
            size = np.abs(residual)
            v_road = float(_zero_outside(size, self.road_bits).sum() / self.cells)
            v_terr = float(_zero_outside(size, self.terrain_bits).sum() / self.cells)
            v_reg, g_reg = self.roughness(z)
            # d loss / d raster cell over the denominator (zero subgradient
            # where the residual vanishes)
            scaled = np.sign(residual)
            scaled *= self.coef
            scaled /= den
            back = self.bu.T @ scaled.T @ self.bv  # (nu, nv): basis-weighted sums
            lam = self.weights
            d_z = back * w + lam.lambda_reg * g_reg
            scaled *= z_grid
            d_w = z * back - self.bu.T @ scaled.T @ self.bv
            value = v_road + lam.lambda_terrain * v_terr + lam.lambda_reg * v_reg
        parts = {"road": v_road, "terrain": v_terr, "reg": v_reg}
        return value, parts, d_z, d_w * w  # chain through w = exp(log w)


def total_loss(surface: NurbsSurface, dsm: Raster, dtm: Raster, mask_plus: Mask,
               weights: LossWeights) -> tuple[float, dict[str, float], np.ndarray, np.ndarray]:
    """Composite loss and its gradients at the surface's own elevations and
    weights.

    Returns (value, per-term values, d/d control_z, d/d weight_params) where
    weight_params are the logs of the surface weights.
    """
    objective = Objective(surface, dsm, dtm, mask_plus, weights)
    return objective(surface.control_points[:, :, 2], surface.weights)


def fit(surface: NurbsSurface, dsm: Raster, dtm: Raster, mask_plus: Mask,
        weights: LossWeights, config: FitConfig) -> tuple[NurbsSurface, FitReport]:
    """ADAM descent on control elevations and log-weights.

    Runs up to max_iters iterations, stopping early when the best loss has
    not improved by at least early_stop_min_delta for early_stop_patience
    consecutive iterations.  The returned surface is the best iterate seen,
    including the final post-update one.  Deterministic for fixed inputs.
    """
    objective = Objective(surface, dsm, dtm, mask_plus, weights)
    z = surface.control_points[:, :, 2].copy()
    wp = np.log(surface.weights)
    m_z = np.zeros_like(z)
    v_z = np.zeros_like(z)
    m_w = np.zeros_like(wp)
    v_w = np.zeros_like(wp)
    report = FitReport()
    best = (float("inf"), z.copy(), wp.copy())
    stall = 0

    for it in range(config.max_iters):
        value, parts, g_z, g_w = objective(z, np.exp(wp))
        if not np.isfinite(value):
            report.stop_reason = "diverged"
            report.iterations = it
            raise FitDivergedError(
                f"non-finite loss at iteration {it}: road={parts['road']!r} "
                f"terrain={parts['terrain']!r} reg={parts['reg']!r}", report)
        report.loss_total.append(value)
        report.loss_road.append(parts["road"])
        report.loss_terrain.append(parts["terrain"])
        report.loss_reg.append(parts["reg"])
        if value < best[0]:
            if best[0] - value >= config.early_stop_min_delta:
                stall = 0
            else:
                stall += 1
            best = (value, z.copy(), wp.copy())
            report.best_iteration = it
        else:
            stall += 1
        if stall >= config.early_stop_patience:
            report.iterations = it + 1
            report.stop_reason = "early_stop"
            break
        t = it + 1
        for g, m, v, theta in ((g_z, m_z, v_z, z), (g_w, m_w, v_w, wp)):
            m *= config.adam_beta1
            m += (1 - config.adam_beta1) * g
            v *= config.adam_beta2
            v += (1 - config.adam_beta2) * g * g
            m_hat = m / (1 - config.adam_beta1 ** t)
            v_hat = v / (1 - config.adam_beta2 ** t)
            theta -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_eps)
        # projected step: constant-magnitude updates would otherwise let
        # log-weights drift without bound and degenerate the denominator
        np.clip(wp, -_LOG_WEIGHT_CLIP, _LOG_WEIGHT_CLIP, out=wp)
    else:
        report.iterations = config.max_iters
        report.stop_reason = "max_iters"

    # the loop never evaluates the final update; give it a chance to win
    final_value = objective(z, np.exp(wp))[0]
    if np.isfinite(final_value) and final_value < best[0]:
        best = (final_value, z.copy(), wp.copy())
        report.best_iteration = report.iterations
    report.best_loss = best[0]
    fitted = surface.with_updates(control_z=best[1], weights=np.exp(best[2]))
    return fitted, report


def initialize_surface(dsm: Raster, dtm: Raster, num_ctrl_u: int = 35,
                       num_ctrl_v: int = 35, degree_u: int = 3,
                       degree_v: int = 3) -> NurbsSurface:
    """Lattice surface over the DSM extent with data-driven starting heights.

    Each control elevation starts at the median DSM value over the cells
    nearest to that lattice node; nodes whose footprint holds no valid cell
    fall back to the global DTM median, then to zero.
    """
    x0, x1, y0, y1 = dsm.center_extent
    surf = lattice_surface((x0, x1), (y0, y1), num_ctrl_u, num_ctrl_v,
                           degree_u, degree_v)
    xs = dsm.origin_x + np.arange(dsm.width) * dsm.cell_size_x
    ys = dsm.origin_y + np.arange(dsm.height) * dsm.cell_size_y
    ia = np.clip(np.round((xs - x0) / (x1 - x0) * (num_ctrl_u - 1)), 0, num_ctrl_u - 1).astype(int)
    jb = np.clip(np.round((ys - y0) / (y1 - y0) * (num_ctrl_v - 1)), 0, num_ctrl_v - 1).astype(int)
    group = ia[None, :] * num_ctrl_v + jb[:, None]  # (H, W) lattice node id
    valid = dsm.valid
    ids = group[valid].ravel()
    vals = dsm.values[valid].ravel()
    dtm_values = dtm.values[dtm.valid]
    fallback = float(np.median(dtm_values)) if dtm_values.size else 0.0
    z = np.full(num_ctrl_u * num_ctrl_v, fallback)
    if ids.size:
        # one sort by node, then value, gives every node's median at once:
        # the middle value of an odd count, the mean of the two middle values
        # of an even count, as np.median takes them
        order = np.lexsort((vals, ids))
        ids = ids[order]
        vals = vals[order]
        starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
        counts = np.diff(np.r_[starts, ids.size])
        upper = vals[starts + counts // 2]
        lower = vals[starts + (counts - 1) // 2]
        z[ids[starts]] = np.where(counts % 2 == 1, upper, (lower + upper) / 2)
    return surf.with_updates(control_z=z.reshape(num_ctrl_u, num_ctrl_v))
