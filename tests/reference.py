"""The per-state oracle of a run's timeseries: each diagnostic of one plain
state, written out with numpy, ``viscowave.grid`` and the material laws.

``diagnostics.Rows`` evaluates the same quantities over blocks of states, in
work arrays.  The replay tests compare the two bit for bit, so that this
module and ``Rows`` must each keep the documented order of operations; none
of ``diagnostics``' own helpers is used here.  Fields are ``(n,)`` arrays.
"""

import math

import numpy as np

from viscowave import grid as g
from viscowave import material as mat
from viscowave.diagnostics import DiagRow, TheoryMonitors
from viscowave.errors import DomainError


def _material(state, laws):
    """(gamma, f) at max(theta, 0)."""
    theta = np.maximum(state.theta, 0.0)
    return np.asarray(mat.eval_gamma(laws, theta)), np.asarray(mat.eval_f(laws, theta))


def instantaneous_monitors(state, q, grid_) -> dict:
    """Pointwise-in-time monitor values for one snapshot."""
    vx = g.d1(state.v, grid_)
    uxx = g.d2(state.u, grid_, g.BcKind.DIRICHLET_BOTH)
    l2_thetax = g.integrate(g.d1(state.theta, grid_) ** 2, grid_)
    return {
        "l2_thetax": l2_thetax,
        "l2_vx": g.integrate(vx * vx, grid_),
        "l2_uxx": g.integrate(uxx * uxx, grid_),
        "lq_value": g.integrate((state.theta + 1.0) ** q, grid_),
        "w12_theta": math.sqrt(g.integrate(state.theta ** 2, grid_) + l2_thetax),
    }


def accumulate_monitors(prev: TheoryMonitors, state, dt: float, alpha, grid_) -> TheoryMonitors:
    """The four ``cum_*`` accumulators advanced by ``dt`` x (integrand at
    ``state``), the left-rectangle rule; the instantaneous fields are zero.
    The ``v_x^4`` integrand is ``vx2 * vx2``."""
    if dt <= 0:
        raise DomainError("monitor update requires dt > 0")
    vx = g.d1(state.v, grid_)
    vx2 = vx * vx
    vxx = g.d2(state.v, grid_, g.BcKind.DIRICHLET_BOTH)
    thxx = g.d2(state.theta, grid_, g.BcKind.NEUMANN_BOTH)
    integrands = {"cum_vx4": vx2 * vx2, "cum_theta_pow": (state.theta + 1.0) ** (4.0 * alpha),
                  "cum_thetaxx2": thxx * thxx, "cum_vxx2": vxx * vxx}
    return TheoryMonitors(**{k: getattr(prev, k) + dt * g.integrate(w, grid_)
                             for k, w in integrands.items()})


def z_transform(state, kappa: float, grid_):
    """Antiderivative V(x) = int_0^x v and its damped version z = e^{-kappa t} V."""
    V = g.cumulative_integral(state.v, grid_)
    return math.exp(-kappa * state.t) * V, V


def left_end_flux(state, laws, a: float, grid_) -> float:
    """gamma(Theta) v_x + a u_x - f(Theta) at x = 0."""
    gam, f = _material(state, laws)
    return float(gam[0] * g.d1(state.v, grid_)[0] + a * g.d1(state.u, grid_)[0] - f[0])


def z_residual(state_prev, state_next, laws, a: float, kappa: float, grid_) -> float:
    """L2 norm of the residual of the transformed parabolic problem between
    two consecutive snapshots:
    ``(z_new - z_old) / dt - (gamma0 z_xx - kappa z_new + h - damp flux)``
    with ``h = (gamma - gamma0) z_xx + a damp u_x - damp f``, each operation
    in this order, all but z_old taken at the later snapshot."""
    dt = state_next.t - state_prev.t
    if dt <= 0:
        raise DomainError("z_residual needs snapshots in increasing time order")
    damp = math.exp(-kappa * state_next.t)
    z_new, _ = z_transform(state_next, kappa, grid_)
    z_old, _ = z_transform(state_prev, kappa, grid_)
    gam, f = _material(state_next, laws)
    zxx = g.d2(z_new, grid_, g.BcKind.MIXED_LEFT_DIRICHLET_RIGHT_NEUMANN)
    h = (gam - laws.gamma0) * zxx + a * damp * g.d1(state_next.u, grid_) - damp * f
    rhs = laws.gamma0 * zxx - kappa * z_new + h - damp * left_end_flux(state_next, laws, a, grid_)
    res = (z_new - z_old) / dt - rhs
    return math.sqrt(g.integrate(res ** 2, grid_))


def make_row(state, a: float, grid_, monitors: TheoryMonitors, q, e0, z_res,
             clamp_count) -> DiagRow:
    """One timeseries row: the energy split (the elastic part by the
    staggered strain), mass, min(theta) and the instantaneous monitors at
    ``state``; the cumulative monitors are taken from ``monitors``."""
    kin = 0.5 * g.integrate(state.v ** 2, grid_)
    du = g.gradient_mid(state.u, grid_)
    ela = 0.5 * a * float((du * du).sum()) * grid_.dx
    th = g.integrate(state.theta, grid_)
    total = kin + ela + th
    return DiagRow(t=state.t, E_total=total, E_kin=kin, E_el=ela, E_th=th, drift=total - e0,
                   mass_theta=th, min_theta=float(state.theta.min()),
                   cum_vx4=monitors.cum_vx4, cum_theta_pow=monitors.cum_theta_pow,
                   cum_thetaxx2=monitors.cum_thetaxx2, cum_vxx2=monitors.cum_vxx2,
                   z_residual=z_res, clamp_count=clamp_count,
                   **instantaneous_monitors(state, q, grid_))
