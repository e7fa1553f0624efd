"""Uniform 1D mesh and second-order finite-difference operators.

All fields are plain float64 arrays co-located with the grid nodes.  Every
operator acts on the last axis, so a ``(B, n)`` array holds one field of each
of B runs on the same grid (an ensemble; see :func:`dynamics.simulate`), and
each row gets the same bits as the 1D field would.  The operators come in
matched pairs so that discrete integration by parts holds
exactly where the time integrator needs it:

* ``div_flux`` is the conservative form ``(c w_x)_x`` built from half-node
  fluxes with arithmetic-mean coefficients,
* ``gradient_mid`` is the staggered first difference living on cell
  midpoints, and
* ``integrate`` is the trapezoid rule.

For any field ``w`` vanishing at both end nodes and any positive nodal
coefficient ``c``::

    integrate(w * div_flux(c, z)) == -sum(c_mid * gradient_mid(w) * gradient_mid(z)) * dx

to machine precision.  The same exact pairing holds for the Neumann
(mirror-ghost) second difference against the trapezoid weights, which is what
makes the discrete thermal mass and energy budgets close without an O(dx^2)
spatial remainder.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError

FloatArray = np.ndarray


class BcKind(enum.Enum):
    """Boundary-condition type for second-derivative stencils."""

    DIRICHLET_BOTH = "dirichlet_both"
    NEUMANN_BOTH = "neumann_both"
    MIXED_LEFT_DIRICHLET_RIGHT_NEUMANN = "mixed"


@dataclass(frozen=True)
class Grid1D:
    """Uniform mesh on (0, L) with ``n`` nodes at x_i = i * dx, dx = L/(n-1)."""

    length: float
    n: int
    nodes: FloatArray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.length <= 0:
            raise ConfigError(f"grid length must be positive, got {self.length}")
        if self.n < 4:
            raise ConfigError(f"grid needs at least 4 nodes (the Dirichlet d2 closure), got {self.n}")
        object.__setattr__(self, "nodes", np.linspace(0.0, self.length, self.n))

    @property
    def dx(self) -> float:
        return self.length / (self.n - 1)


def _check_size(w: FloatArray, grid: Grid1D, name: str = "field") -> FloatArray:
    w = np.asarray(w, dtype=float)
    if w.ndim not in (1, 2) or w.shape[-1] != grid.n:
        raise ConfigError(f"{name} has shape {w.shape}, expected ({grid.n},) or (B, {grid.n})")
    return w


# The stencils index the node axis through the transpose: ``w.T[0]`` is a
# numpy scalar for one field and the column of end values for a batch, while
# ``w[..., 0]`` of a 1D array is a 0-d array, on which every arithmetic
# operation is a full ufunc call.  ``d1`` and ``d2`` compute their interior
# over the rows laid end to end, in one contiguous pass: a strided pass over
# a small batch costs numpy's buffered iterator more than the arithmetic.
# The entries that straddle a seam between two rows are end values, which
# the closures then set.


def _end_to_end(w: FloatArray, out: FloatArray | None) -> tuple:
    """``out``, or a new array of ``w``'s shape, then the rows of ``w`` and of
    ``out`` laid end to end.  A given ``out`` must be C-contiguous, or the
    rows laid end to end would be a copy of it."""
    if out is not None and not out.flags.c_contiguous:
        raise ValueError("a stencil's out array must be C-contiguous")
    out = np.empty(w.shape) if out is None else out
    return out, w.reshape(-1), out.reshape(-1)


def d1(w: FloatArray, grid: Grid1D, out: FloatArray | None = None) -> FloatArray:
    """First derivative: central interior, one-sided second order at the ends.

    Exact on polynomials up to degree 2 (the boundary stencils included).
    Written into ``out`` if given (a C-contiguous array of ``w``'s shape, not
    ``w`` itself), with the same bits.
    """
    w = _check_size(w, grid)
    two_dx = 2.0 * grid.dx
    out, flat, out_flat = _end_to_end(w, out)
    inner = np.subtract(flat[2:], flat[:-2], out=out_flat[1:-1])
    inner /= two_dx
    o, w = out.T, w.T
    o[0] = (-3.0 * w[0] + 4.0 * w[1] - w[2]) / two_dx
    o[-1] = (3.0 * w[-1] - 4.0 * w[-2] + w[-3]) / two_dx
    return out


def d1_lowend(w: FloatArray, grid: Grid1D) -> FloatArray:
    """First derivative with first-order one-sided closures at the two end nodes.

    Interior values coincide with :func:`d1`.  This is the summation-by-parts
    closure: with trapezoid weights P it satisfies

        <w, D z> + <D w, z> = w[-1] z[-1] - w[0] z[0]

    exactly, so cross terms built from it telescope in the energy budget.
    The price is O(dx) truncation at the two boundary nodes only.
    """
    w = _check_size(w, grid)
    dx = grid.dx
    out = np.empty_like(w)
    o, w = out.T, w.T
    o[1:-1] = (w[2:] - w[:-2]) / (2.0 * dx)
    o[0] = (w[1] - w[0]) / dx
    o[-1] = (w[-1] - w[-2]) / dx
    return out


def d2(w: FloatArray, grid: Grid1D, bc: BcKind, out: FloatArray | None = None) -> FloatArray:
    """Second derivative with boundary closures selected by ``bc``.

    Interior nodes use the standard 3-point stencil.  Neumann ends use the
    mirror ghost node (zero flux), Dirichlet ends a one-sided 4-point stencil
    that is exact on cubics.  Written into ``out`` if given (a C-contiguous
    array of ``w``'s shape, not ``w`` itself), with the same bits: the
    interior is ``(w[i+1] - 2 w[i] + w[i-1]) / dx^2`` in this order either
    way.
    """
    w = _check_size(w, grid)
    dx2 = grid.dx * grid.dx
    out, flat, out_flat = _end_to_end(w, out)
    inner = np.multiply(2.0, flat[1:-1], out=out_flat[1:-1])
    np.subtract(flat[2:], inner, out=inner)
    inner += flat[:-2]
    inner /= dx2
    o, w = out.T, w.T

    def left_dirichlet():
        return (2.0 * w[0] - 5.0 * w[1] + 4.0 * w[2] - w[3]) / dx2

    def right_dirichlet():
        return (2.0 * w[-1] - 5.0 * w[-2] + 4.0 * w[-3] - w[-4]) / dx2

    if bc is BcKind.DIRICHLET_BOTH:
        o[0] = left_dirichlet()
        o[-1] = right_dirichlet()
    elif bc is BcKind.NEUMANN_BOTH:
        o[0] = 2.0 * (w[1] - w[0]) / dx2
        o[-1] = 2.0 * (w[-2] - w[-1]) / dx2
    elif bc is BcKind.MIXED_LEFT_DIRICHLET_RIGHT_NEUMANN:
        o[0] = left_dirichlet()
        o[-1] = 2.0 * (w[-2] - w[-1]) / dx2
    else:  # pragma: no cover
        raise DomainError(f"unknown boundary kind {bc}")
    return out


def gradient_mid(w: FloatArray, grid: Grid1D, out: FloatArray | None = None) -> FloatArray:
    """Staggered first difference on the n-1 cell midpoints; written into
    ``out`` if given (an array of the shape of ``w[..., 1:]``)."""
    w = _check_size(w, grid)
    out = np.subtract(w[..., 1:], w[..., :-1], out=out)
    out /= grid.dx
    return out


def mid_to_node(psi_mid: FloatArray, grid: Grid1D) -> FloatArray:
    """Average a midpoint field back to the nodes.

    The map is the adjoint of trapezoid sampling: ``integrate(mid_to_node(psi))``
    equals ``sum(psi) * dx`` exactly, so per-cell production terms can be
    deposited on nodes without creating or destroying mass.
    """
    psi_mid = np.asarray(psi_mid, dtype=float)
    if psi_mid.shape[-1:] != (grid.n - 1,):
        raise ConfigError(f"midpoint field has shape {psi_mid.shape}, expected ({grid.n - 1},)")
    out = np.empty(psi_mid.shape[:-1] + (grid.n,))
    o, psi = out.T, psi_mid.T
    o[1:-1] = 0.5 * (psi[:-1] + psi[1:])
    o[0] = psi[0]
    o[-1] = psi[-1]
    return out


def div_flux(coef: FloatArray, w: FloatArray, grid: Grid1D) -> FloatArray:
    """Conservative variable-coefficient diffusion ``(c(x) w_x)_x``.

    Half-node coefficients are arithmetic means of the nodal values.  The two
    boundary entries are zero: every caller owns its boundary rows (Dirichlet
    rows are forced, Neumann fields use :func:`d2` instead).
    """
    coef = _check_size(coef, grid, "coefficient")
    w = _check_size(w, grid)
    if (coef <= 0.0).any():
        raise DomainError("div_flux requires a strictly positive coefficient")
    c_mid = 0.5 * (coef[..., 1:] + coef[..., :-1])
    flux = c_mid * np.diff(w)  # dx * (c w_x) at midpoints
    out = np.zeros_like(w)
    out[..., 1:-1] = np.diff(flux) / (grid.dx * grid.dx)
    return out


def integrate(w: FloatArray, grid: Grid1D, work: FloatArray | None = None) -> float:
    """Trapezoid quadrature over (0, L); exact for piecewise-linear node data.

    A float for one field, one value per row for a batch.  ``work``, if
    given, is a C-contiguous array of the shape of ``w[..., 1:]`` that takes
    the trapezoid terms; the result has the same bits either way.
    """
    w = _check_size(w, grid)
    # np.trapezoid's expression dx * (w[1:] + w[:-1]) / 2, in its order and
    # without its call overhead; the sum runs along the contiguous last axis,
    # so a row sums pairwise like one field
    terms = np.add(w[..., 1:], w[..., :-1], out=work)
    np.multiply(grid.dx, terms, out=terms)
    terms /= 2.0
    total = terms.sum(axis=-1)
    return float(total) if w.ndim == 1 else total


def cumulative_integral(w: FloatArray, grid: Grid1D, out: FloatArray | None = None) -> FloatArray:
    """Running trapezoid antiderivative from the left end; result[0] == 0.

    Written into ``out`` if given (an array of ``w``'s shape, not ``w``
    itself), with the same bits.
    """
    w = _check_size(w, grid)
    out = np.empty_like(w) if out is None else out
    out[..., 0] = 0.0
    terms = np.add(w[..., 1:], w[..., :-1], out=out[..., 1:])
    terms *= 0.5 * grid.dx
    np.cumsum(terms, axis=-1, out=terms)
    return out
