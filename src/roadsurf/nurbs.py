"""Rational tensor-product B-spline surfaces over a frozen plan-view lattice.

A surface is defined by degrees (p, q), clamped knot vectors, a grid of 3D
control points, and positive per-control weights:

    S(u, v) = sum_ij N_i(u) N_j(v) w_ij P_ij / sum_ij N_i(u) N_j(v) w_ij

Basis functions follow the standard recursion with the convention that
degree-0 boxes are half-open on the right, except that the final span of the
domain is closed so the upper domain end evaluates to the last control point.
Only (p+1)(q+1) basis products are nonzero at any parameter; basis_matrix
forms just those, for all parameters at once.  The single-point evaluate and
gradients take full-grid basis rows, whose other entries are exact zeros.

Surfaces used for terrain work keep their control x/y fixed on a uniform
lattice (``xy_frozen``); the lattice corners define an affine map between
world x/y and the parameter domain, and only elevations and weights are ever
optimized.  The z component of the rational sum is then read as a height
field over the plan rectangle.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


def uniform_clamped_knots(num_ctrl: int, degree: int, low: float = 0.0,
                          high: float = 1.0) -> np.ndarray:
    """Clamped knot vector with evenly spaced interior knots.

    Length is num_ctrl + degree + 1; the first and last degree+1 knots repeat
    the domain ends.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    if num_ctrl < degree + 1:
        raise ValueError(f"need at least degree+1={degree + 1} control points, got {num_ctrl}")
    if not high > low:
        raise ValueError("empty parameter domain")
    interior = num_ctrl - degree - 1
    inner = np.linspace(low, high, interior + 2)[1:-1]
    return np.concatenate([np.full(degree + 1, low), inner, np.full(degree + 1, high)])


def basis_matrix(knots: np.ndarray, degree: int, params: np.ndarray) -> np.ndarray:
    """Dense matrix B with B[k, i] = N_i(params[k]) over all control indices.

    Raises ValueError for a parameter outside the knot domain.  All rows run
    the stable triangular recurrence together over the degree+1 functions
    nonzero in their knot spans, so 0/0 terms never arise.
    """
    knots = np.asarray(knots, dtype=float)
    u = np.asarray(params, dtype=float).reshape(-1)
    num_ctrl = len(knots) - degree - 1
    lo, hi = knots[degree], knots[num_ctrl]
    eps = 1e-12 * max(1.0, abs(hi - lo))
    outside = (u < lo - eps) | (u > hi + eps)
    if outside.any():
        raise ValueError(f"parameter {u[outside][0]} outside domain [{lo}, {hi}]")
    u = np.clip(u, lo, hi)
    # the last nonempty span is closed on the right, so hi lands in it
    span = np.clip(np.searchsorted(knots, u, side="right") - 1, degree, num_ctrl - 1)
    j = np.arange(degree + 1)
    left = u[:, None] - knots[span[:, None] + 1 - j]   # left[:, d] = u - knots[span + 1 - d]
    right = knots[span[:, None] + j] - u[:, None]      # right[:, d] = knots[span + d] - u
    values = np.ones((u.size, degree + 1))  # column d is set by pass d before any read
    for d in range(1, degree + 1):
        saved = 0.0
        for r in range(d):
            tmp = values[:, r] / (right[:, r + 1] + left[:, d - r])
            values[:, r] = saved + right[:, r + 1] * tmp
            saved = left[:, d - r] * tmp
        values[:, d] = saved
    out = np.zeros((u.size, num_ctrl))
    np.put_along_axis(out, span[:, None] - degree + j, values, axis=1)
    return out


@dataclass
class NurbsSurface:
    degree_u: int
    degree_v: int
    knots_u: np.ndarray
    knots_v: np.ndarray
    control_points: np.ndarray  # (nu, nv, 3), [a, b] with a along u and b along v
    weights: np.ndarray         # (nu, nv), strictly positive
    xy_frozen: bool = False

    def __post_init__(self):
        self.knots_u = np.asarray(self.knots_u, dtype=float)
        self.knots_v = np.asarray(self.knots_v, dtype=float)
        self.control_points = np.asarray(self.control_points, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.control_points.ndim != 3 or self.control_points.shape[2] != 3:
            raise ValueError("control_points must have shape (nu, nv, 3)")
        nu, nv, _ = self.control_points.shape
        if self.weights.shape != (nu, nv):
            raise ValueError("weights shape must match the control grid")
        if not (self.weights > 0).all():
            raise ValueError("weights must be strictly positive")
        for knots, degree, n, axis in ((self.knots_u, self.degree_u, nu, "u"),
                                       (self.knots_v, self.degree_v, nv, "v")):
            if degree < 1:
                raise ValueError(f"degree_{axis} must be at least 1")
            if len(knots) != n + degree + 1:
                raise ValueError(
                    f"knots_{axis} must have {n + degree + 1} entries, got {len(knots)}")
            if (np.diff(knots) < 0).any():
                raise ValueError(f"knots_{axis} must be non-decreasing")
            if not (np.all(knots[:degree + 1] == knots[0])
                    and np.all(knots[-degree - 1:] == knots[-1])):
                raise ValueError(f"knots_{axis} must be clamped")
            if knots[0] == knots[-1]:
                raise ValueError(f"knots_{axis} spans an empty domain")

    @property
    def num_ctrl_u(self) -> int:
        return self.control_points.shape[0]

    @property
    def num_ctrl_v(self) -> int:
        return self.control_points.shape[1]

    @property
    def domain_u(self) -> tuple[float, float]:
        return float(self.knots_u[self.degree_u]), float(self.knots_u[-self.degree_u - 1])

    @property
    def domain_v(self) -> tuple[float, float]:
        return float(self.knots_v[self.degree_v]), float(self.knots_v[-self.degree_v - 1])

    def xy_extent(self) -> tuple[float, float, float, float]:
        """(x_min, x_max, y_min, y_max) of the control lattice."""
        xs = self.control_points[:, :, 0]
        ys = self.control_points[:, :, 1]
        return float(xs.min()), float(xs.max()), float(ys.min()), float(ys.max())

    def world_to_param(self, x, y):
        """Affine map from world x/y to (u, v) via the lattice extent.

        Inputs up to a relative 1e-6 outside the extent are clamped onto the
        domain edge; anything further out raises ValueError. Accepts arrays.
        """
        if not self.xy_frozen:
            raise ValueError("world mapping requires an xy_frozen lattice surface")
        x0, x1, y0, y1 = self.xy_extent()
        u0, u1 = self.domain_u
        v0, v1 = self.domain_v
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        tol_x = 1e-6 * (x1 - x0)
        tol_y = 1e-6 * (y1 - y0)
        if (x < x0 - tol_x).any() or (x > x1 + tol_x).any() \
                or (y < y0 - tol_y).any() or (y > y1 + tol_y).any():
            raise ValueError("world position outside the surface extent")
        u = u0 + (np.clip(x, x0, x1) - x0) / (x1 - x0) * (u1 - u0)
        v = v0 + (np.clip(y, y0, y1) - y0) / (y1 - y0) * (v1 - v0)
        return u, v

    def with_updates(self, control_z: np.ndarray | None = None,
                     weights: np.ndarray | None = None) -> "NurbsSurface":
        """Copy of the surface with new control elevations and/or weights."""
        ctrl = self.control_points.copy()
        if control_z is not None:
            ctrl[:, :, 2] = control_z
        w = self.weights.copy() if weights is None else np.asarray(weights, dtype=float)
        return NurbsSurface(self.degree_u, self.degree_v,
                            self.knots_u.copy(), self.knots_v.copy(),
                            ctrl, w, self.xy_frozen)


def lattice_surface(x_range: tuple[float, float], y_range: tuple[float, float],
                    num_u: int, num_v: int, degree_u: int = 3, degree_v: int = 3,
                    control_z: np.ndarray | None = None,
                    weights: np.ndarray | None = None) -> NurbsSurface:
    """Surface whose control x/y form a uniform lattice over the given ranges."""
    x0, x1 = x_range
    y0, y1 = y_range
    if not (x1 > x0 and y1 > y0):
        raise ValueError("lattice ranges must be non-degenerate")
    xs = np.linspace(x0, x1, num_u)
    ys = np.linspace(y0, y1, num_v)
    ctrl = np.zeros((num_u, num_v, 3))
    ctrl[:, :, 0] = xs[:, None]
    ctrl[:, :, 1] = ys[None, :]
    if control_z is not None:
        ctrl[:, :, 2] = control_z
    if weights is None:
        weights = np.ones((num_u, num_v))
    return NurbsSurface(
        degree_u, degree_v,
        uniform_clamped_knots(num_u, degree_u),
        uniform_clamped_knots(num_v, degree_v),
        ctrl, weights, xy_frozen=True)


def evaluate(surface: NurbsSurface, u: float, v: float) -> np.ndarray:
    """Surface point at (u, v) as an xyz array."""
    bu = basis_matrix(surface.knots_u, surface.degree_u, [u])[0]
    bv = basis_matrix(surface.knots_v, surface.degree_v, [v])[0]
    coeff = np.outer(bu, bv) * surface.weights
    return np.tensordot(coeff, surface.control_points, axes=([0, 1], [0, 1])) / coeff.sum()


def gradients(surface: NurbsSurface, u: float, v: float) -> tuple[np.ndarray, np.ndarray]:
    """Partials of the surface elevation at (u, v).

    Returns (d_z / d_control_z, d_z / d_weight), each shaped like the control
    grid; entries outside the active (p+1) x (q+1) window are zero.
    """
    bu = basis_matrix(surface.knots_u, surface.degree_u, [u])[0]
    bv = basis_matrix(surface.knots_v, surface.degree_v, [v])[0]
    coeff = np.outer(bu, bv) * surface.weights
    den = coeff.sum()
    z = surface.control_points[:, :, 2]
    sz = float((coeff * z).sum() / den)
    # for weights the basis product enters without the weight factor
    return coeff / den, coeff / surface.weights * (z - sz) / den


def grid_basis(surface: NurbsSurface, xs: np.ndarray,
               ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Basis matrices of the tensor grid of world columns xs and rows ys:
    bu is (len(xs), nu) and bv is (len(ys), nv).  They depend only on the
    frozen lattice, so one pair serves any control elevations and weights."""
    us, _ = surface.world_to_param(xs, np.full(np.size(xs), surface.xy_extent()[2]))
    _, vs = surface.world_to_param(np.full(np.size(ys), surface.xy_extent()[0]), ys)
    return (basis_matrix(surface.knots_u, surface.degree_u, us),
            basis_matrix(surface.knots_v, surface.degree_v, vs))


def grid_heights(bu: np.ndarray, bv: np.ndarray, control_z: np.ndarray,
                 weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Height field and rational denominator, each (len(ys), len(xs)), on the
    grid of ``grid_basis`` for the given control elevations and weights."""
    den = bv @ weights.T @ bu.T
    height = bv @ (weights * control_z).T @ bu.T
    height /= den
    return height, den


def evaluate_grid(surface: NurbsSurface, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Height field sampled on the tensor grid of world columns xs and rows ys.

    Output has shape (len(ys), len(xs)).
    """
    bu, bv = grid_basis(surface, xs, ys)
    return grid_heights(bu, bv, surface.control_points[:, :, 2], surface.weights)[0]


def save_surface(surface: NurbsSurface, path: str | Path) -> None:
    """Plain-text serialization; see load_surface for the layout."""
    lines = [
        "roadsurf-surface 1",
        f"degree {surface.degree_u} {surface.degree_v}",
        f"shape {surface.num_ctrl_u} {surface.num_ctrl_v}",
        f"xy_frozen {int(surface.xy_frozen)}",
        "knots_u " + " ".join(repr(float(k)) for k in surface.knots_u),
        "knots_v " + " ".join(repr(float(k)) for k in surface.knots_v),
    ]
    for a in range(surface.num_ctrl_u):
        for b in range(surface.num_ctrl_v):
            x, y, z = (float(c) for c in surface.control_points[a, b])
            w = float(surface.weights[a, b])
            lines.append(f"cp {x!r} {y!r} {z!r} {w!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_surface(path: str | Path) -> NurbsSurface:
    """Read a surface written by save_surface.

    Format: a signature line, then ``degree p q``, ``shape nu nv``,
    ``xy_frozen 0|1``, the two knot vectors, and one ``cp x y z w`` line per
    control point in row-major (u-major) order.
    """
    lines = [(n, line.split()) for n, line in
             enumerate(Path(path).read_text().splitlines(), start=1) if line.strip()]
    if not lines or not lines[0][1][0].startswith("roadsurf-surface"):
        raise ValueError(f"{path}: not a surface file")
    casts = {"cp": float, "knots_u": float, "knots_v": float, "degree": int, "shape": int, "xy_frozen": int}
    arity = {"cp": 4, "degree": 2, "shape": 2, "xy_frozen": 1}
    fields: dict[str, list] = {}
    cps: list[list[float]] = []
    for line_no, (key, *raw) in lines[1:]:
        try:
            values = [casts.get(key, str)(v) for v in raw]
        except ValueError as err:
            raise ValueError(f"{path}:{line_no}: {err}") from None
        if len(values) != arity.get(key, len(values)):
            raise ValueError(f"{path}:{line_no}: {key} takes {arity[key]} value(s), got {len(values)}")
        if casts.get(key) is float and not np.isfinite(values).all():
            raise ValueError(f"{path}:{line_no}: {key} values must be finite")
        if key == "cp":
            cps.append(values)
        else:
            fields[key] = values
    try:
        p, q = fields["degree"]
        nu, nv = fields["shape"]
        frozen = bool(fields["xy_frozen"][0])
        knots_u = np.array(fields["knots_u"])
        knots_v = np.array(fields["knots_v"])
    except KeyError as missing:
        raise ValueError(f"{path}: missing field {missing}") from None
    if len(cps) != nu * nv:
        raise ValueError(f"{path}: expected {nu * nv} 'cp x y z w' lines")
    arr = np.array(cps).reshape(nu, nv, 4)
    return NurbsSurface(p, q, knots_u, knots_v, arr[:, :, :3], arr[:, :, 3], frozen)
