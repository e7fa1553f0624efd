"""Runtime diagnostics: energy budget, trajectory monitors, and the
parabolic-regularity instrumentation.

Everything here is a pure function of state snapshots.  The monitors mirror
the a-priori functionals that the underlying theory keeps finite: space-time
integrals of ``v_x^4`` and ``(Theta+1)^{4 alpha}``, instantaneous Sobolev
norms of the temperature and velocity, and the damped-antiderivative
transform that turns the velocity equation into a scalar parabolic problem
with mixed boundary conditions.  The maximal-regularity constant of that
scalar problem is probed numerically by :func:`estimate_K`; the smallness
parameters derived from it are assembled by :func:`theory_constants`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import grid as g
from . import material as mat
from . import tridiag
from .errors import ConfigError, DomainError

# --------------------------------------------------------------------------
# per-state evaluation
# --------------------------------------------------------------------------


class StateEval:
    """One snapshot with its derived fields, each computed on first use.

    Every diagnostic below, and the stepper, reads its snapshot through this
    cache and accepts either a plain state or a ``StateEval``.  A loop that
    passes the same ``StateEval`` to all of them (the left end of a step is
    stepped, accumulated, and, if it was sampled, recorded and fed to the
    blow-up detector) differentiates and integrates that state once.  The
    snapshot fields ``t``, ``u``, ``v``, ``theta`` are exposed unchanged.

    The fields of an ensemble state are ``(B, n)`` arrays, one row per member
    at the same time t; each derived field then has one row (an integral one
    value) per member.  The laws are then a :class:`material.LawRows`, and
    ``q``, ``alpha`` and ``kappa`` are ``(B, 1)`` columns: each row meets its
    own member's parameters.
    """

    def __init__(self, state, grid_: g.Grid1D):
        self.state = state
        self.grid = grid_
        self.t, self.u, self.v, self.theta = state.t, state.u, state.v, state.theta
        self.inst = None  # (q, the instantaneous monitors at q) for the last q asked
        self._laws = None
        self._material = None
        self._members: dict[int, StateEval] = {}

    @classmethod
    def of(cls, state, grid_: g.Grid1D) -> "StateEval":
        """``state`` itself if it is a ``StateEval`` on ``grid_``, else a new one."""
        if not isinstance(state, cls):
            return cls(state, grid_)
        if state.grid is not grid_ and state.grid != grid_:
            raise ConfigError("StateEval was built on a different grid")
        return state

    def member(self, i: int) -> "StateEval":
        """Member ``i`` of an ensemble state on its own (copied arrays), made
        once; a single state is its own member 0."""
        if self.v.ndim == 1:
            return self
        if i not in self._members:
            s = self.state
            self._members[i] = StateEval(
                type(s)(s.t, s.u[i].copy(), s.v[i].copy(), s.theta[i].copy()), self.grid)
        return self._members[i]

    def material(self, laws) -> tuple[np.ndarray, np.ndarray]:
        """(gamma, f) at max(theta, 0), kept for the last ``laws`` asked."""
        if self._laws is not laws:
            theta = self.theta_pos
            if isinstance(laws, mat.LawRows):
                self._material = laws.evaluate(theta)
            else:
                self._material = (np.asarray(mat.eval_gamma(laws, theta)),
                                  np.asarray(mat.eval_f(laws, theta)))
            self._laws = laws
        return self._material

    @functools.cached_property
    def theta_pos(self) -> np.ndarray:
        """max(theta, 0), where the material laws are evaluated."""
        return np.maximum(self.theta, 0.0)

    @functools.cached_property
    def vx(self) -> np.ndarray:
        return g.d1(self.v, self.grid)

    @functools.cached_property
    def ux(self) -> np.ndarray:
        return g.d1(self.u, self.grid)

    @functools.cached_property
    def thx(self) -> np.ndarray:
        return g.d1(self.theta, self.grid)

    @functools.cached_property
    def vxx(self) -> np.ndarray:
        return g.d2(self.v, self.grid, g.BcKind.DIRICHLET_BOTH)

    @functools.cached_property
    def uxx(self) -> np.ndarray:
        return g.d2(self.u, self.grid, g.BcKind.DIRICHLET_BOTH)

    @functools.cached_property
    def thxx(self) -> np.ndarray:
        return g.d2(self.theta, self.grid, g.BcKind.NEUMANN_BOTH)

    @functools.cached_property
    def vx2(self) -> np.ndarray:
        return self.vx * self.vx

    @functools.cached_property
    def V(self) -> np.ndarray:
        """Antiderivative int_0^x v."""
        return g.cumulative_integral(self.v, self.grid)

    @functools.cached_property
    def l2_thetax(self) -> float:
        return g.integrate(self.thx ** 2, self.grid)

    @functools.cached_property
    def w12_theta(self) -> float:
        """W^{1,2} norm of the temperature, the blow-up detector's input."""
        return _sqrt(g.integrate(self.theta ** 2, self.grid) + self.l2_thetax)


def _sqrt(x):
    return math.sqrt(x) if isinstance(x, float) else np.sqrt(x)


def _scalar_or_rows(x):
    """A reduction over the last axis: a float for one field, one value per
    row for a batch."""
    return float(x) if x.ndim == 0 else x


def _power(base: np.ndarray, p) -> np.ndarray:
    """``base ** p``; a ``(B, 1)`` column ``p`` raises each row to its own
    scalar, as in a solo run: an array exponent may take another numpy path
    (no fast ``square`` for 2, say) and round differently."""
    if not isinstance(p, np.ndarray):
        return base ** p
    out = np.empty_like(base)
    for i, e in enumerate(p[:, 0].tolist()):
        out[i] = base[i] ** e
    return out


# --------------------------------------------------------------------------
# energy budget
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EnergyBudget:
    """Kinetic + elastic + thermal split of the conserved functional."""

    t: float
    kinetic: float
    elastic: float
    thermal: float

    @property
    def total(self) -> float:
        return self.kinetic + self.elastic + self.thermal


def energy(state, a: float, grid_: g.Grid1D) -> EnergyBudget:
    """Discrete energy  (1/2) int v^2 + (a/2) int u_x^2 + int Theta.

    The elastic part uses the staggered (midpoint) strain so that it pairs
    exactly with the flux-form operator of the time stepper; kinetic and
    thermal parts are trapezoid sums of nodal values.
    """
    kin = 0.5 * g.integrate(state.v ** 2, grid_)
    du = g.gradient_mid(state.u, grid_)
    ela = 0.5 * a * _scalar_or_rows((du * du).sum(axis=-1)) * grid_.dx
    th = g.integrate(state.theta, grid_)
    return EnergyBudget(t=state.t, kinetic=kin, elastic=ela, thermal=th)


# --------------------------------------------------------------------------
# trajectory monitors
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoryMonitors:
    """Running values of the functionals the regularity theory bounds.

    ``cum_*`` fields are left-rectangle time integrals accumulated along the
    run; the rest are instantaneous values at the last update.
    """

    cum_vx4: float = 0.0
    cum_theta_pow: float = 0.0
    cum_thetaxx2: float = 0.0
    cum_vxx2: float = 0.0
    l2_thetax: float = 0.0
    l2_vx: float = 0.0
    l2_uxx: float = 0.0
    lq_value: float = 0.0
    w12_theta: float = 0.0

    def all_finite(self) -> bool:
        return all(math.isfinite(getattr(self, f.name)) for f in fields(self))


def instantaneous_monitors(state, q, grid_: g.Grid1D) -> dict:
    """Pointwise-in-time monitor values for one snapshot.

    On a :class:`StateEval` the values are kept for the last ``q`` asked (as
    for its material coefficients, the same object), so asking again with it
    recomputes nothing.
    """
    ev = StateEval.of(state, grid_)
    if ev.inst is None or ev.inst[0] is not q:
        ev.inst = q, {
            "l2_thetax": ev.l2_thetax,
            "l2_vx": g.integrate(ev.vx2, grid_),
            "l2_uxx": g.integrate(ev.uxx ** 2, grid_),
            "lq_value": g.integrate(_power(ev.theta + 1.0, q), grid_),
            "w12_theta": ev.w12_theta,
        }
    return dict(ev.inst[1])


def accumulate_monitors(prev: TheoryMonitors, state, dt: float, alpha,
                        grid_: g.Grid1D) -> TheoryMonitors:
    """Advance only the four ``cum_*`` accumulators by ``dt`` x (integrand at
    ``state``); the instantaneous fields of the result are zero.

    The time quadrature is the left-rectangle rule: the caller passes the
    snapshot at the left end of the step about to be taken.  The ``v_x^4``
    integrand is ``vx2 * vx2``: numpy computes ``vx ** 4`` on a sign-changing
    array one scalar ``pow`` at a time, tens of times slower.
    """
    if dt <= 0:
        raise DomainError("monitor update requires dt > 0")
    ev = StateEval.of(state, grid_)
    return TheoryMonitors(
        cum_vx4=prev.cum_vx4 + dt * g.integrate(ev.vx2 * ev.vx2, grid_),
        cum_theta_pow=prev.cum_theta_pow + dt * g.integrate(_power(ev.theta + 1.0, 4.0 * alpha), grid_),
        cum_thetaxx2=prev.cum_thetaxx2 + dt * g.integrate(ev.thxx ** 2, grid_),
        cum_vxx2=prev.cum_vxx2 + dt * g.integrate(ev.vxx ** 2, grid_),
    )


def monitors_update(prev: TheoryMonitors, state, dt: float, q: float, alpha: float,
                    grid_: g.Grid1D) -> TheoryMonitors:
    """Advance the accumulators by ``dt`` x (integrand at ``state``) and set
    the instantaneous fields to their values at ``state``."""
    ev = StateEval.of(state, grid_)
    return replace(accumulate_monitors(prev, ev, dt, alpha, grid_),
                   **instantaneous_monitors(ev, q, grid_))


# --------------------------------------------------------------------------
# Lq balance
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LqBalance:
    """Terms of the exact rate identity for int (Theta+1)^q.

    lhs_rate = -dissipation + viscous_gain - coupling_loss, which equals
    d/dt int (Theta+1)^q along exact solutions.
    """

    lhs_rate: float
    dissipation: float
    viscous_gain: float
    coupling_loss: float


def lq_balance(state, laws: mat.MaterialLaws, q: float, grid_: g.Grid1D) -> LqBalance:
    """Evaluate the three right-hand terms of the Lq rate identity."""
    if q <= 1.0:
        raise DomainError(f"lq_balance requires q > 1, got q={q}")
    ev = StateEval.of(state, grid_)
    theta, vx, thx = ev.theta, ev.vx, ev.thx
    w = theta + 1.0
    gam, f = ev.material(laws)
    dissipation = q * (q - 1.0) * g.integrate(w ** (q - 2.0) * thx ** 2, grid_)
    viscous_gain = q * g.integrate(gam * w ** (q - 1.0) * vx ** 2, grid_)
    coupling_loss = q * g.integrate(f * w ** (q - 1.0) * vx, grid_)
    return LqBalance(
        lhs_rate=-dissipation + viscous_gain - coupling_loss,
        dissipation=dissipation,
        viscous_gain=viscous_gain,
        coupling_loss=coupling_loss,
    )


# --------------------------------------------------------------------------
# damped antiderivative transform and its residual
# --------------------------------------------------------------------------


def _damping(kappa, t: float):
    """e^{-kappa t} by ``math.exp``; a column of rates, entry by entry
    (``np.exp`` may round differently)."""
    if isinstance(kappa, np.ndarray):
        return np.array([math.exp(-k * t) for k in kappa[:, 0].tolist()])[:, None]
    return math.exp(-kappa * t)


def z_transform(state, kappa, grid_: g.Grid1D):
    """Antiderivative V(x) = int_0^x v and its damped version z = e^{-kappa t} V.

    Both vanish at x = 0 by construction; the right-end slope of V equals
    v(L), so states with pinned velocity give z the mixed boundary pair
    z(0) = 0, z_x(L) = 0 up to stencil error.
    """
    ev = StateEval.of(state, grid_)
    return _damping(kappa, ev.t) * ev.V, ev.V


def left_end_flux(state, laws, a: float, grid_: g.Grid1D):
    """Discrete left-boundary flux  gamma(Theta) v_x + a u_x - f(Theta)  at x=0.

    Integrating the velocity equation from the left end picks up this term;
    the scalar parabolic form of the antiderivative is exact only after it is
    subtracted, so the residual below carries it as a spatially constant
    source correction.  The laws are evaluated at a scalar: on an ensemble
    state, once per member (a (B, 1) column of fluxes).
    """
    ev = StateEval.of(state, grid_)
    if ev.v.ndim == 1:
        return _flux(laws, ev.theta[0], ev.vx[0], ev.ux[0], a)
    ends = zip(laws, ev.theta[:, 0].tolist(), ev.vx[:, 0].tolist(), ev.ux[:, 0].tolist())
    return np.array([[_flux(law, th0, vx0, ux0, a)] for law, th0, vx0, ux0 in ends])


def _flux(laws: mat.MaterialLaws, th0, vx0, ux0, a: float) -> float:
    th0 = max(float(th0), 0.0)
    return mat.eval_gamma(laws, th0) * float(vx0) + a * float(ux0) - mat.eval_f(laws, th0)


def z_residual(state_prev, state_next, laws, a: float, kappa, grid_: g.Grid1D):
    """L2 norm of the discrete residual of the transformed parabolic problem.

    The pair of consecutive snapshots provides the backward time difference;
    the source is assembled from the later snapshot: the viscosity-excess
    diffusion ``(gamma(Theta) - gamma0) z_xx``, the damped elastic term
    ``a e^{-kappa t} u_x``, the damped coupling ``-e^{-kappa t} f(Theta)``,
    and the left-end flux correction.  Vanishes at first order in dt and
    second order in dx along smooth trajectories.  On ensemble states, one
    value per member.
    """
    dt = state_next.t - state_prev.t
    if dt <= 0:
        raise DomainError("z_residual needs snapshots in increasing time order")
    new = StateEval.of(state_next, grid_)
    damp = _damping(kappa, new.t)
    z_new = damp * new.V  # z_transform(new)
    z_old, _ = z_transform(state_prev, kappa, grid_)
    zxx = g.d2(z_new, grid_, g.BcKind.MIXED_LEFT_DIRICHLET_RIGHT_NEUMANN)
    gam, f = new.material(laws)
    h = (gam - laws.gamma0) * zxx + a * damp * new.ux - damp * f
    correction = damp * left_end_flux(new, laws, a, grid_)
    res = (z_new - z_old) / dt - (laws.gamma0 * zxx - kappa * z_new + h - correction)
    return _sqrt(g.integrate(res ** 2, grid_))


# --------------------------------------------------------------------------
# maximal-regularity constant estimation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class KEstimate:
    """Lower bound for the mixed-BC maximal-regularity constant K(p, D).

    ``K`` is the running maximum of per-trial ratios; it is an estimate from
    below, not a certified constant.
    """

    p: float
    D: float
    K: float
    ratios: tuple[float, ...]


def _mixed_modes(grid_: g.Grid1D, ks, coeffs) -> np.ndarray:
    x = grid_.nodes
    L = grid_.length
    out = np.zeros(grid_.n)
    for k, c in zip(ks, coeffs):
        out += c * np.sin((k + 0.5) * np.pi * x / L)
    return out


def _solve_mixed_heat(z0, gsrc, D, T, dt, grid_: g.Grid1D, p: float) -> float:
    """Space-time L^p integral of z_xx for z_t = D z_xx + g with z(0)=z_x(L)=0.

    Solved on the evenly reflected doubling of the interval as a Dirichlet
    problem (Crank-Nicolson in time), then restricted back; the quadrature in
    time is trapezoidal.
    """
    zh, dgrid = g.reflect_extend(z0, grid_)
    gh, _ = g.reflect_extend(gsrc, grid_)
    nsteps = max(1, int(round(T / dt)))
    dt = T / nsteps
    r = 0.5 * dt * D / dgrid.dx ** 2
    solve = tridiag.dirichlet(dgrid.n, r).factor()  # one matrix for every step
    src = dt * gh[1:-1]

    def zxx_p(zfull):
        zres = zfull[:grid_.n]
        zxx = g.d2(zres, grid_, g.BcKind.MIXED_LEFT_DIRICHLET_RIGHT_NEUMANN)
        return g.integrate(np.abs(zxx) ** p, grid_)

    acc = 0.5 * zxx_p(zh)
    for _ in range(nsteps):
        rhs = zh.copy()
        rhs[1:-1] += r * (zh[2:] - 2.0 * zh[1:-1] + zh[:-2]) + src
        rhs[0] = rhs[-1] = 0.0
        zh = solve(rhs)
        acc += zxx_p(zh)
    acc -= 0.5 * zxx_p(zh)
    return acc * dt


def estimate_K(p: float, D: float, trials: int, grid_: g.Grid1D, T: float,
               dt: float | None = None, seed: int = 0) -> KEstimate:
    """Probe the maximal-regularity ratio over a family of trial problems.

    Trial 0 is the pure decaying fundamental mode (closed-form ratio
    ``(1 - e^{-4 D lambda T}) / (4 D lambda)`` for p = 4); trial 1 is pure
    steady forcing by the same mode; later trials draw random mixed-mode
    combinations from a seeded generator, so the trial sequence is a
    deterministic prefix: more trials can only raise the estimate.
    """
    if trials < 1:
        raise DomainError("estimate_K needs at least one trial")
    if p <= 1 or D <= 0 or T <= 0:
        raise DomainError("estimate_K requires p > 1, D > 0, T > 0")
    if dt is None:
        dt = T / 512.0
    rng = np.random.default_rng(seed)
    zero = np.zeros(grid_.n)
    ratios = []
    for trial in range(trials):
        if trial == 0:
            z0, gsrc = _mixed_modes(grid_, [0], [1.0]), zero
        elif trial == 1:
            z0, gsrc = zero, _mixed_modes(grid_, [0], [1.0])
        else:
            ks = np.arange(4)
            z0 = _mixed_modes(grid_, ks, rng.standard_normal(4) / (1.0 + ks) ** 2)
            gsrc = _mixed_modes(grid_, ks, rng.standard_normal(4) / (1.0 + ks) ** 2)
        z0xx = g.d2(z0, grid_, g.BcKind.MIXED_LEFT_DIRICHLET_RIGHT_NEUMANN)
        denom = g.integrate(np.abs(z0xx) ** p, grid_) + T * g.integrate(np.abs(gsrc) ** p, grid_)
        if denom == 0.0:
            continue
        num = _solve_mixed_heat(z0, gsrc, D, T, dt, grid_, p)
        ratios.append(num / denom)
    if not ratios:
        raise DomainError("all estimate_K trials were degenerate")
    return KEstimate(p=p, D=D, K=max(ratios), ratios=tuple(ratios))


# --------------------------------------------------------------------------
# derived theory constants
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoryConstants:
    """Smallness parameters derived from a (lower-bound) estimate of K.

    ``delta_est`` saturates 256 K delta^4 = 1/4 and ``kappa_est`` saturates
    27*32 K a^4 T0 / kappa^3 = 1/4.  Because K is only a lower bound, the
    derived delta_est may overestimate the admissible viscosity oscillation;
    both values are estimates, not certified constants.
    """

    K_est: float
    delta_est: float
    kappa_est: float
    q: float
    q_admissible: bool


def theory_constants(K_est: float, a: float, T0: float, alpha: float) -> TheoryConstants:
    """Solve the two smallness relations for delta and kappa, and set q = 4 alpha - 2."""
    if K_est <= 0 or a <= 0 or T0 <= 0:
        raise DomainError("theory_constants requires K_est, a, T0 > 0")
    if not (0.0 < alpha < mat.ALPHA_MAX):
        raise DomainError(f"alpha outside (0, 3/2): {alpha}")
    delta_est = (1.0 / (1024.0 * K_est)) ** 0.25
    kappa_est = (3456.0 * K_est * a ** 4 * T0) ** (1.0 / 3.0)
    q = 4.0 * alpha - 2.0
    return TheoryConstants(K_est=K_est, delta_est=delta_est, kappa_est=kappa_est,
                           q=q, q_admissible=q > 1.0)


# --------------------------------------------------------------------------
# blow-up detection
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BlowupReport:
    """Verdict of the finite-time blow-up heuristic on the W^{1,2} trace."""

    fired: bool
    t_fire: float | None
    rate: float
    tail: tuple[float, ...] = field(default=())


@functools.lru_cache(maxsize=16)
def _slope_weights(window: int) -> np.ndarray:
    """Weights c with c . y the least-squares slope of y against 0..window-1."""
    x = np.arange(window, dtype=float)
    x -= x.mean()
    c = x / np.dot(x, x)
    c.flags.writeable = False
    return c


def blowup_check(trace, window: int, threshold: float, rate_min: float,
                 times=None) -> BlowupReport:
    """Fire iff the last trace value exceeds ``threshold`` AND the fitted
    exponential growth rate over the last ``window`` samples exceeds
    ``rate_min``.

    The rate is the slope of a least-squares line through log(trace) per
    sample, so benign large-but-decaying transients do not trigger.  ``trace``
    may be any sequence holding at least ``window`` samples, such as a
    ``deque`` bounded at ``window``.
    """
    trace = np.asarray(trace, dtype=float)
    if window < 2:
        raise DomainError("blowup_check needs window >= 2")
    if trace.size < window:
        raise DomainError(f"trace has {trace.size} samples, needs >= {window}")
    tail = trace[-window:]
    rate = float(np.dot(_slope_weights(window), np.log(np.maximum(tail, 1e-300))))
    fired = bool(tail[-1] > threshold and rate > rate_min)
    t_fire = None
    if fired:
        t_fire = float(times[-1]) if times is not None else float(trace.size - 1)
    return BlowupReport(fired=fired, t_fire=t_fire, rate=rate, tail=tuple(tail))


# --------------------------------------------------------------------------
# monitor configuration
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MonitorConfig:
    """Diagnostic controls for a run: Lq exponent, damping rate for the
    antiderivative transform, monitoring horizon, sampling cadence, and the
    blow-up heuristic's knobs."""

    q: float = 2.0
    kappa: float = 1.0
    T0: float = 1.0
    cadence: int = 1
    blowup_threshold: float = 1e4
    blowup_window: int = 16
    blowup_rate_min: float = 0.2

    def __post_init__(self):
        if self.q <= 1:
            raise ConfigError("monitor exponent q must exceed 1")
        if self.cadence < 1:
            raise ConfigError("cadence must be at least 1")
        if self.blowup_window < 2:
            raise ConfigError("blowup_window must be at least 2")


# --------------------------------------------------------------------------
# diagnostic row (the timeseries schema)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagRow:
    """One timeseries row; the field order is the CSV column order."""

    t: float
    E_total: float
    E_kin: float
    E_el: float
    E_th: float
    drift: float
    mass_theta: float
    min_theta: float
    l2_vx: float
    l2_uxx: float
    l2_thetax: float
    cum_vx4: float
    cum_theta_pow: float
    cum_thetaxx2: float
    cum_vxx2: float
    lq_value: float
    w12_theta: float
    z_residual: float
    clamp_count: int

    def as_tuple(self):
        return tuple(getattr(self, c) for c in DIAG_COLUMNS)


DIAG_COLUMNS = tuple(f.name for f in fields(DiagRow))


def make_row(state, a: float, grid_: g.Grid1D, monitors: TheoryMonitors, q,
             e0, z_res, clamp_count):
    """Assemble one timeseries row: energy split, mass, min(theta) and the
    instantaneous monitors at the sampled state; cumulative monitors are
    taken from the accumulator.

    On an ensemble state the other arguments hold one value per member
    (``clamp_count`` a sequence) or one value for all, and the result is the
    list of the members' rows.
    """
    ev = StateEval.of(state, grid_)
    budget = energy(ev, a, grid_)
    values = dict(
        E_total=budget.total,
        E_kin=budget.kinetic,
        E_el=budget.elastic,
        E_th=budget.thermal,
        drift=budget.total - e0,
        mass_theta=budget.thermal,
        min_theta=_scalar_or_rows(ev.theta.min(axis=-1)),
        cum_vx4=monitors.cum_vx4,
        cum_theta_pow=monitors.cum_theta_pow,
        cum_thetaxx2=monitors.cum_thetaxx2,
        cum_vxx2=monitors.cum_vxx2,
        z_residual=z_res,
        clamp_count=clamp_count,
        **instantaneous_monitors(ev, q, grid_),
    )
    if ev.v.ndim == 1:
        return DiagRow(t=ev.t, **values)
    columns = [np.full(len(ev.v), values[c]).tolist() for c in DIAG_COLUMNS[1:]]
    return [DiagRow(ev.t, *member) for member in zip(*columns)]
