"""Tensor-product B-spline height fields over a plan-view lattice.

A surface is defined by one degree p for both axes, clamped knot vectors
and a grid of control points:

    S(u, v) = sum_ij N_i(u) N_j(v) P_ij

Basis functions follow the standard recursion with the convention that
degree-0 boxes are half-open on the right, except that the final span of the
domain is closed so the upper domain end evaluates to the last control point.
Only (p+1)² basis products are nonzero at any parameter; basis_matrix
forms just those, for all parameters at once, for any clamped knot vector.
``evaluate_grid`` samples a surface on a tensor grid with two products of
the dense ``grid_basis`` matrices; the fit lays its raster grid out by knot
span instead (``fit.SpanGrid``).

Every surface is a lattice surface whose control elevations alone are free,
so ``NurbsSurface`` holds just those, the degree and the plan extent.  The
rest is derived: the knots are ``uniform_clamped_knots`` and the control
x/y the ``np.linspace`` lattice over the extent, whose corners map world x/y
affinely onto the domain [0, 1]; the z component of the sum is a height
field over the plan rectangle.  It is a NURBS surface of unit weights, which
is exactly a B-spline (Piegl & Tiller, *The NURBS Book*, ch. 4).  A surface
file holds the same three things; see ``load_surface``.

The control x/y lattice is nominal: world x/y map onto u/v affinely, and a
planar surface a·u + b·v + c has the control elevations a·g_i + b·g_j + c,
linear in each axis's Greville abscissae g (the mean of the degree inner
knots of each basis function's support), which bunch toward the clamped
ends.  Elevations linear in the ``np.linspace`` lattice do not give a plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grid import FieldError, read_lines


def uniform_clamped_knots(num_ctrl: int, degree: int) -> np.ndarray:
    """Clamped knot vector on [0, 1] with evenly spaced interior knots.

    Length is num_ctrl + degree + 1; the first and last degree+1 knots repeat
    the domain ends.  Needs degree >= 1 and num_ctrl > degree, as the
    NurbsSurface constructor checks.
    """
    interior = num_ctrl - degree - 1
    inner = np.linspace(0.0, 1.0, interior + 2)[1:-1]
    return np.concatenate([np.full(degree + 1, 0.0), inner, np.full(degree + 1, 1.0)])


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
    extent: tuple[float, float, float, float]  # (x0, x1, y0, y1) of the lattice
    degree: int            # of both axes
    control_z: np.ndarray  # (nu, nv), [a, b] with a along u (x) and b along v (y)

    def __post_init__(self):
        self.extent = tuple(map(float, self.extent))
        self.control_z = np.asarray(self.control_z, dtype=float)
        x0, x1, y0, y1 = self.extent
        if not (np.isfinite(self.extent).all() and x0 < x1 and y0 < y1):
            raise FieldError(("extent",), f"extent must be finite with x0 < x1 and y0 < y1, "
                                          f"got {self.extent}")
        if self.control_z.ndim != 2:
            raise FieldError(("control_z",), "control_z must have shape (nu, nv)")
        bad = ~np.isfinite(self.control_z)
        if bad.any():
            raise FieldError(("control_z",), "control_z must be finite", int(bad.argmax()))
        if self.degree < 1:
            raise FieldError(("degree",), "degree must be at least 1")
        n = min(self.control_z.shape)
        if n <= self.degree:
            raise FieldError(("degree",), f"degree {self.degree} needs at least "
                                          f"{self.degree + 1} control points, got {n}")

    @property
    def num_ctrl_u(self) -> int:
        return self.control_z.shape[0]

    @property
    def num_ctrl_v(self) -> int:
        return self.control_z.shape[1]

    def knots(self) -> tuple[np.ndarray, np.ndarray]:
        """The uniform clamped knot vectors along u and v."""
        return (uniform_clamped_knots(self.num_ctrl_u, self.degree),
                uniform_clamped_knots(self.num_ctrl_v, self.degree))


def grid_basis(surface: NurbsSurface, xs: np.ndarray,
               ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Basis matrices of the tensor grid of world columns xs and rows ys:
    bu is (len(xs), nu) and bv is (len(ys), nv).  They depend only on the
    frozen lattice, so one pair serves any control elevations.  Positions up
    to a relative 1e-6 outside the extent are clamped onto its edge; anything
    further out raises ValueError."""
    bases = []
    for t, (lo, hi), knots in zip((xs, ys), np.reshape(surface.extent, (2, 2)), surface.knots()):
        t = np.asarray(t, dtype=float)
        tol = 1e-6 * (hi - lo)
        if (t < lo - tol).any() or (t > hi + tol).any():
            raise ValueError("world position outside the surface extent")
        bases.append(basis_matrix(knots, surface.degree, (np.clip(t, lo, hi) - lo) / (hi - lo)))
    return bases[0], bases[1]


def evaluate_grid(surface: NurbsSurface, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Height field sampled on the tensor grid of world columns xs and rows ys.

    Output has shape (len(ys), len(xs)).  The height grid is allocated
    before the dense bases, so a grid too large for memory fails before the
    bases fill.
    """
    height = np.empty((len(ys), len(xs)))
    bu, bv = grid_basis(surface, xs, ys)
    np.matmul(bv @ surface.control_z.T, bu.T, out=height)
    return height


def save_surface(surface: NurbsSurface) -> list[str]:
    """Plain-text serialization, for grid.write_lines; see load_surface for the layout."""
    lines = [
        "roadsurf-surface 3",
        f"degree {surface.degree}",
        f"shape {surface.num_ctrl_u} {surface.num_ctrl_v}",
        "extent " + " ".join(map(repr, surface.extent)),
    ]
    # one elevation per control point, u-major, as Python floats
    lines += [f"cp {z!r}" for z in surface.control_z.reshape(-1).tolist()]
    return lines


# the value count and caster of each key; cp repeats, the others appear once
_KEYS = {"degree": (1, int), "shape": (2, int), "extent": (4, float), "cp": (1, float)}
# the key whose line sets each NurbsSurface field
_FIELD_KEYS = {"extent": "extent", "degree": "degree", "control_z": "cp"}


def load_surface(path: str | Path) -> NurbsSurface:
    """Read a surface written by save_surface.

    Layout: the signature line ``roadsurf-surface 3``, then ``degree p``,
    ``shape nu nv``, ``extent x0 x1 y0 y1`` and one ``cp z`` line per
    control point in u-major order.  Every value check is the NurbsSurface
    constructor's; its ``grid.FieldError``, like a parse error, names the line
    that set the rejected value.
    """
    lines = [(n, line.split()) for n, line in
             enumerate(read_lines(path), start=1) if line.strip()]
    if not lines or lines[0][1] != ["roadsurf-surface", "3"]:
        raise ValueError(f"{path}:{lines[0][0] if lines else 1}: not a surface file "
                         f"(expected 'roadsurf-surface 3')")
    values: dict[str, list[list]] = {key: [] for key in _KEYS}  # each line's values by key
    where: dict[str, list[int]] = {key: [] for key in _KEYS}    # and its line number
    for line_no, (key, *raw) in lines[1:]:
        if key not in _KEYS:
            raise ValueError(f"{path}:{line_no}: unknown key {key!r}")
        if key != "cp" and where[key]:
            raise ValueError(f"{path}:{line_no}: repeated key {key!r}")
        arity, cast = _KEYS[key]
        if len(raw) != arity:
            raise ValueError(f"{path}:{line_no}: {key} takes {arity} value(s), got {len(raw)}")
        try:
            values[key].append([cast(v) for v in raw])
        except ValueError as err:
            raise ValueError(f"{path}:{line_no}: {err}") from None
        where[key].append(line_no)
    missing = [key for key in ("degree", "shape", "extent") if not where[key]]
    if missing:
        raise ValueError(f"{path}: missing field {missing[0]!r}")
    (p,), (nu, nv) = values["degree"][0], values["shape"][0]
    if min(nu, nv) < 1:
        raise ValueError(f"{path}:{where['shape'][0]}: shape values must be positive")
    if len(values["cp"]) != nu * nv:
        raise ValueError(f"{path}:{where['shape'][0]}: shape {nu} {nv} needs {nu * nv} "
                         f"'cp z' lines, got {len(values['cp'])}")
    try:
        return NurbsSurface(values["extent"][0], p, np.array(values["cp"]).reshape(nu, nv))
    except FieldError as err:
        raise ValueError(f"{path}:{where[_FIELD_KEYS[err.keys[0]]][err.index]}: {err}") from None
