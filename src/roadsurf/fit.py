"""Surface fitting: composite loss and gradient descent on control elevations.

The loss pulls the surface toward the DSM inside the road mask and toward the
DTM outside it, both as mean absolute residuals over the raster, plus a
thin-plate penalty on the control elevations' second differences that keeps
the surface smooth and leaves planes free.  Gradients are analytic
throughout: the rasterized residual terms chain through the basis.  The
surface is a B-spline, whose height field is linear in its control
elevations, and only the elevations move.

The schedule: elevations start at node medians of the loss's own target,
and ADAM's step drops on each plateau (see ``fit``), since the L1 terms'
sign gradients keep the steps near the step size and the loss stalls at a
level that size sets.

A fit builds one ``Objective`` from what stays fixed while ADAM moves the
elevations: the raster grid's ``SpanGrid``, the target, the regularizer's
matrices, the data terms' sum weights and the gradient magnitudes.  Its
rasters are laid out span-major, by u knot span, so the height field and
the back-projection each take one stacked product with a cubic's 4 basis
values per column, not a dense one with all 35 of a 35-point net.  An
iteration then costs the height field, one residual pass, one product for
both data terms and the back-projection; ADAM's step is a few control-grid
expressions, and the fit runs under one ``np.errstate``.  ``total_loss``
evaluates the fit's objective once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import Mask, Raster, check_finite
from .nurbs import NurbsSurface, grid_basis

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
    """ADAM's start step on the control elevations, the plateau test and a
    cap on iterations.  A fit normally ends on a plateau well before
    max_iters."""

    learning_rate: float = 0.1
    max_iters: int = 1000
    early_stop_patience: int = 10
    early_stop_min_delta: float = 1e-4

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
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
            _differences(knots, surface.degree) for knots in surface.knots())
        self.count = surface.control_z.size

    def __call__(self, z: np.ndarray) -> tuple[float, np.ndarray]:
        """Loss value and its gradient with respect to the elevations z."""
        z_uu, z_vv, z_uv = self.u2 @ z, z @ self.v2.T, self.u1 @ z @ self.v1.T
        value = ((z_uu ** 2).sum() + (z_vv ** 2).sum() + 2 * (z_uv ** 2).sum()) / self.count
        grad = self.u2.T @ z_uu + z_vv @ self.v2 + 2 * (self.u1.T @ z_uv @ self.v1)
        return float(value), grad * (2 / self.count)


class SpanGrid:
    """The tensor grid of world columns xs and rows ys, laid out by u knot
    span for products with a control grid.

    A column's p+1 nonzero u-basis functions are those of its knot span, so
    the u basis is banded (Piegl & Tiller, *The NURBS Book*, §2.2; Eilers &
    Marx 1996).  A field on the grid is stored span-major, as an array of
    ``shape`` (spans, C, len(ys)): span s owns C rows, its grid columns in
    their order and then pad rows, C being the most columns any span holds
    and at least p+1, so that such an array can take ``back``'s p+1 sums per
    span.  ``rows[k]`` is the row of column k in the flattened
    (spans * C) axis.  ``local`` holds each row's p+1 u-basis values, 0 in
    pad rows.  The v basis ``bv`` stays dense: its products are control-grid
    sized.
    """

    def __init__(self, surface: NurbsSurface, xs: np.ndarray, ys: np.ndarray):
        bu, self.bv = grid_basis(surface, xs, ys)
        p = surface.degree
        self.spans = surface.num_ctrl_u - p
        # a column's first nonzero function starts its window; on a knot its
        # last function is 0, so either neighbouring span holds it
        first = np.minimum((bu > 0).argmax(axis=1), self.spans - 1)
        counts = np.bincount(first, minlength=self.spans)
        width = max(int(counts.max()), p + 1)
        order = np.argsort(first, kind="stable")  # by span, in order within each
        span = first[order]
        self.rows = np.empty(len(first), dtype=np.intp)
        self.rows[order] = span * width + np.arange(len(span)) - (np.cumsum(counts) - counts)[span]
        local = np.zeros((self.spans * width, p + 1))
        local[self.rows] = np.take_along_axis(bu, first[:, None] + np.arange(p + 1), axis=1)
        self.local = local.reshape(self.spans, width, p + 1)
        self.shape = (self.spans, width, len(ys))
        # the (nu, len(ys)) v products, and each span's p+1 rows of them
        self._factor = np.empty((surface.num_ctrl_u, len(ys)))
        self._windows = sliding_window_view(self._factor, p + 1, axis=0).swapaxes(1, 2)

    def product(self, coeffs: np.ndarray, out: np.ndarray) -> None:
        """Write the field of the control-grid coefficients ``coeffs``
        (nu, nv) into ``out`` of this layout: one (nu, len(ys)) product with
        the v basis, then one stacked product of each span's local u basis
        with its p+1 rows of that."""
        np.matmul(coeffs, self.bv.T, out=self._factor)
        np.matmul(self.local, self._windows, out=out)

    def back(self, field: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """The (nu, nv) basis-weighted sums of ``field``, in this layout, on
        the control grid: the transpose of ``product``.  ``scratch``, an array
        of this layout whose values are no longer needed, takes each span's
        p+1 sums before they are added into place."""
        p1 = self.local.shape[2]
        # (p+1, spans, len(ys)), so that each shifted add reads one block;
        # numpy would copy a strided operand through its ufunc buffer
        spread = scratch.reshape(-1)[:p1 * self.spans * self.shape[2]].reshape(
            p1, self.spans, self.shape[2])
        np.matmul(self.local.swapaxes(1, 2), field, out=spread.swapaxes(0, 1))
        sums = self._factor
        sums.fill(0.0)
        for j in range(p1):
            sums[j:j + self.spans] += spread[j]
        return sums @ self.bv

    def to_spans(self, raster: np.ndarray, fill: float | bool) -> np.ndarray:
        """A (len(ys), len(xs)) raster in this layout, ``fill`` in pad rows."""
        out = np.full(self.shape, fill, dtype=raster.dtype)
        out.reshape(-1, self.shape[2])[self.rows] = raster.T
        return out


def _target(dsm: Raster, dtm: Raster, mask_plus: Mask) -> np.ndarray:
    """The data terms' target: the DSM on road cells, the DTM elsewhere."""
    return np.where(mask_plus.bits == 1, dsm.values, dtm.values)


_SIGN = np.iinfo(np.int64).min  # the float64 sign bit


class Objective:
    """The composite loss of one fit problem as a function of the control
    elevations of a B-spline surface.

    With P = bv z^T bu^T the height field and t the target (the DSM on road
    cells, the DTM elsewhere, 0 where NaN), a cell's data term is
    |P - t| / cells.  Built once: the raster grid's ``SpanGrid``, the
    regularizer's matrices, t, the (2, cells) road and terrain sum weights
    1 / cells on cells with a target and the gradient magnitudes k, those
    times 1 or lambda_terrain.  Every raster is kept in the grid's padded
    span-major layout, so each raster product touches only the p+1 control
    columns of a cell's knot span; pad cells have no target, so they weigh 0
    in both sums and take a 0 gradient.

    Six rasters stay resident: t, the two sum weights, k and two that a call
    reuses, P and one that takes |P - t| and then d loss / d P.  A fresh
    raster (0.5 MB at 251²) goes back to the system when freed and is
    page-faulted in anew, so a call allocates only control-grid-sized
    arrays.  It does two raster products, P and the back-projection:
    r = P - t over P, np.abs(r) into the other raster, both data terms in
    one matrix-vector product, copysign(k, r) by an AND and an OR over it,
    and the back-projection into the raster that held r, dead by then.
    Where r is an exact zero the gradient takes +k or -k by the zero's sign,
    not np.sign's 0: each is a subgradient of |r|.

    Non-finite values are returned, not raised: the caller decides what a
    diverged loss means.  ``fit`` and ``total_loss`` call it under
    ``np.errstate(all="ignore")``, entered once per fit, so that it does not
    warn about them either.
    """

    def __init__(self, surface: NurbsSurface, dsm: Raster, dtm: Raster,
                 mask_plus: Mask, weights: LossWeights):
        self.grid = grid = SpanGrid(
            surface, *dsm.cell_to_world(np.arange(dsm.width), np.arange(dsm.height)))
        road = grid.to_spans(mask_plus.bits == 1, False)
        self.target = grid.to_spans(_target(dsm, dtm, mask_plus), np.nan)  # pads: no target
        has_target = ~np.isnan(self.target)
        np.nan_to_num(self.target, nan=0.0, copy=False)
        self.roughness, self.weights = Roughness(surface), weights
        share = 1.0 / (dsm.height * dsm.width)  # a cell's share of a mean
        self.sums = (np.stack((road, ~road)) & has_target).reshape(2, -1) * share
        road_sums, terrain_sums = self.sums.reshape(2, *grid.shape)
        self.magnitude = terrain_sums * weights.lambda_terrain + road_sums
        self._height, self._words = np.empty(grid.shape), np.empty(grid.shape)

    def __call__(self, z: np.ndarray) -> tuple[float, dict[str, float], np.ndarray]:
        """(value, per-term values, d/d z) at elevations z.  The returned
        gradient is fresh; only the workspace is reused from call to call."""
        grid, height, words = self.grid, self._height, self._words
        grid.product(z, height)
        residual = np.subtract(height, self.target, out=height)
        # cells without a target weigh 0 in both terms' sums
        v_road, v_terr = (self.sums @ np.abs(residual, out=words).reshape(-1)).tolist()
        v_reg, g_reg = self.roughness(z)
        # d loss / d P: copysign(k, r) by bits, k's sign bit being clear;
        # np.copysign takes about twice as long on a 72k-cell raster
        bits = np.bitwise_and(residual.view(np.int64), _SIGN, out=words.view(np.int64))
        bits |= self.magnitude.view(np.int64)
        back = grid.back(words, height)  # (nu, nv): basis-weighted sums
        lam = self.weights
        d_z = back + lam.lambda_reg * g_reg
        value = v_road + lam.lambda_terrain * v_terr + lam.lambda_reg * v_reg
        return value, {"road": v_road, "terrain": v_terr, "reg": v_reg}, d_z


def total_loss(surface: NurbsSurface, dsm: Raster, dtm: Raster, mask_plus: Mask,
               weights: LossWeights) -> tuple[float, dict[str, float], np.ndarray]:
    """Composite loss, its per-term values and its gradient with respect to
    control_z, at the surface's own elevations (see ``Objective``)."""
    objective = Objective(surface, dsm, dtm, mask_plus, weights)
    with np.errstate(all="ignore"):
        return objective(surface.control_z)


def fit(surface: NurbsSurface, dsm: Raster, dtm: Raster, mask_plus: Mask,
        weights: LossWeights, config: FitConfig) -> tuple[NurbsSurface, FitReport]:
    """ADAM descent on the control elevations of a start B-spline surface.

    On each of the first ``_MAX_DROPS`` plateaus (early_stop_patience
    iterations without a gain of early_stop_min_delta on the best loss) the
    fit returns to the best iterate and its stored gradient, multiplies its
    step by ``_DROP_FACTOR`` and resets ADAM's moments and bias-correction
    count; the next plateau ends it ("plateau") unless max_iters does first.
    No iterate is scored twice.  Returns the best iterate seen, including
    the update after the last iteration when max_iters ends the run.
    Deterministic for fixed inputs.
    """
    objective = Objective(surface, dsm, dtm, mask_plus, weights)
    z, rate = surface.control_z.copy(), config.learning_rate
    m = v = 0.0  # ADAM's moments
    report = FitReport()
    logs = (report.loss_total, report.loss_road, report.loss_terrain, report.loss_reg)
    best_loss, drop_loss = math.inf, math.inf  # the best loss, and that at the last drop
    stall = t = 0
    with np.errstate(all="ignore"):
        for it in range(config.max_iters):
            value, parts, g = objective(z)
            if not np.isfinite(value):
                raise RuntimeError(
                    f"non-finite loss at iteration {it}: road={parts['road']!r} "
                    f"terrain={parts['terrain']!r} reg={parts['reg']!r}")
            for log, part in zip(logs, (value, *parts.values())):
                log.append(part)
            if value < best_loss:
                stall = 0 if best_loss - value >= config.early_stop_min_delta else stall + 1
                best_loss, best_z, best_g = value, z.copy(), g  # z steps in place, g is fresh
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
                z, g = best_z.copy(), best_g
                m = v = 0.0
                stall = t = 0
            t += 1
            m = m * _BETA1 + g * (1 - _BETA1)
            v = v * _BETA2 + g * (1 - _BETA2) * g
            z -= m / (1 - _BETA1 ** t) * rate / (np.sqrt(v / (1 - _BETA2 ** t)) + _EPS)
        else:
            report.iterations, report.stop_reason = config.max_iters, "max_iters"
            # the loop never scores the final update; give it a chance to win.
            # A plateau breaks before its step, so it has scored its last iterate.
            final_value = objective(z)[0]
            if np.isfinite(final_value) and final_value < best_loss:
                best_loss, best_z = final_value, z
                report.best_iteration = report.iterations
    report.best_loss = best_loss
    report.final_step = rate
    report.plateau_gain = drop_loss - best_loss if report.drops else 0.0
    return replace(surface, control_z=best_z), report


def initialize_surface(dsm: Raster, dtm: Raster, mask_plus: Mask, ctrl_spacing: float = 3.0,
                       degree: int = 3) -> NurbsSurface:
    """Lattice surface of ``degree`` over the DSM's cell-centre extent: an
    axis of extent E gets max(degree + 1, ceil(E / ctrl_spacing) + 1) evenly
    spaced nodes, at most ctrl_spacing apart (3 m by default, 35 on a 100 m
    tile).

    Each control elevation starts at the median of the loss's target (the
    DSM on road cells of mask_plus, the DTM elsewhere, so trees and facades
    off the road do not lift it) over the non-NaN cells nearest to its
    node; nodes without one fall back to the global DTM median, then to 0.
    """
    x0, x1, y0, y1 = dsm.center_extent
    # the 1e-9 keeps the rounding of E / ctrl_spacing from adding a node
    nu, nv = (max(degree + 1, math.ceil(e / ctrl_spacing - 1e-9) + 1) for e in (x1 - x0, y1 - y0))
    z = np.full(nu * nv, np.nan)  # first: a net too large for memory fails here
    xs, ys = dsm.cell_to_world(np.arange(dsm.width), np.arange(dsm.height))
    ia = np.clip(np.round((xs - x0) / (x1 - x0) * (nu - 1)), 0, nu - 1)
    jb = np.clip(np.round((ys - y0) / (y1 - y0) * (nv - 1)), 0, nv - 1)
    target = _target(dsm, dtm, mask_plus)
    valid = ~np.isnan(target)
    vals = target[valid]
    # lattice node id ia * nv + jb of each valid cell, row-major, in the
    # fewest unsigned bytes, which np.lexsort sorts by radix
    node = np.min_scalar_type(nu * nv - 1)
    ids = np.broadcast_to((ia * nv).astype(node), valid.shape)[valid]
    ids += np.broadcast_to(jb.astype(node)[:, None], valid.shape)[valid]
    del target, valid  # not held while the sorts run
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
    empty = np.isnan(z)
    if empty.any():  # np.median, which loads numpy.ma, only where a node needs it
        dtm_values = dtm.values[dtm.valid]
        z[empty] = float(np.median(dtm_values)) if dtm_values.size else 0.0
    return NurbsSurface(dsm.center_extent, degree, z.reshape(nu, nv))
