"""Time integration of the coupled viscous-wave / heat system.

The semi-discrete system on the co-located grid is

    v_t = (gamma(Theta) v_x)_x + a u_xx - (f(Theta))_x,      v|ends = 0,
    u_t = v,                                                  u|ends = 0,
    Theta_t = Theta_xx + gamma(Theta) v_x^2 - f(Theta) v_x,   mirror flux ends,

stepped by an IMEX splitting: both diffusion operators are implicit (one
tridiagonal solve per field per step, the elastic term folded into the v
solve through the displacement update), the nonlinear sources explicit with
the viscosity frozen at the step's start.

The heating and coupling sources are quadrature-matched to the mechanical
losses: the dissipation is accumulated per cell (midpoint strain rates,
averaged back to nodes mass-exactly) and the coupling gradient uses the
summation-by-parts closure, so the discrete energy identity has no spatial
remainder at all.  What is left is the time-splitting defect: backward Euler
loses exactly

    (1/2) ||v_new - v_old||^2 + (a dt^2 / 2) ||grad v_new||^2

per step (a signed O(dt) drift over a fixed horizon), while the trapezoidal
variant cancels it and conserves the discrete energy to roundoff.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import diagnostics as diag
from . import grid as g
from . import material as mat
from . import tridiag
from .errors import ConfigError, DomainError, StepError

if TYPE_CHECKING:  # pragma: no cover
    from .config import RunConfig

SCHEMES = ("imex_be", "imex_cn")
POSITIVITY_POLICIES = ("clamp_and_count", "reject_step")


@dataclass(frozen=True)
class State:
    """Snapshot of the simulation at time t."""

    t: float
    u: np.ndarray
    v: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        for name in ("u", "v", "theta"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))


@dataclass(frozen=True)
class SchemeConfig:
    """Time-stepping controls.

    ``solver_tol`` bounds the residual of each tridiagonal solve (a failed
    bound signals pathological coefficients); ``max_step_retries`` caps how
    often a positivity-rejected step is retried with a halved dt.
    """

    dt_initial: float = 1e-3
    dt_max: float = 1e-2
    cfl_safety: float = 0.9
    scheme: str = "imex_be"
    positivity_policy: str = "clamp_and_count"
    positivity_tolerance: float = 1e-8
    adaptive: bool = False
    solver_tol: float = 1e-8
    max_step_retries: int = 20

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")
        if self.positivity_policy not in POSITIVITY_POLICIES:
            raise ConfigError(f"unknown positivity_policy {self.positivity_policy!r}")
        if self.dt_initial <= 0 or self.dt_max <= 0:
            raise ConfigError("time steps must be positive")
        if not (0.0 < self.cfl_safety <= 1.0):
            raise ConfigError("cfl_safety must lie in (0, 1]")
        if self.positivity_tolerance < 0 or self.solver_tol <= 0:
            raise ConfigError("tolerances must be positive")


@dataclass(frozen=True)
class Forcing:
    """Manufactured source terms added to the v and Theta equations."""

    fv: Callable[[np.ndarray, float], np.ndarray]
    ftheta: Callable[[np.ndarray, float], np.ndarray]


def adapt_dt(state, laws: mat.MaterialLaws, grid_: g.Grid1D, cfg: SchemeConfig) -> float:
    """Step-size suggestion from the explicit terms.

    dt = min(dt_max, cfl_safety * dx / max(1, |v|_inf), cfl_safety / L) where
    L is the nodal Lipschitz scale of the explicit sources; inactive terms
    (zero velocity, zero source slope) impose no restriction, so the zero
    state returns dt_max.  ``state`` may be a :class:`diagnostics.StateEval`,
    whose v_x and max(theta, 0) are then shared with the step and the
    accumulators.
    """
    ev = diag.StateEval.of(state, grid_)
    dt = cfg.dt_max
    vmax = float(np.max(np.abs(ev.v)))
    if vmax > 0.0:
        dt = min(dt, cfg.cfl_safety * grid_.dx / max(1.0, vmax))
    theta = ev.theta_pos
    lip = float(np.max(
        np.abs(np.asarray(mat.eval_f_prime(laws, theta))) * np.abs(ev.vx)
        + np.abs(np.asarray(mat.eval_gamma_prime(laws, theta))) * ev.vx2
    ))
    if lip > 0.0:
        dt = min(dt, cfg.cfl_safety / lip)
    return max(dt, 1e-14)


# --------------------------------------------------------------------------
# tridiagonal machinery
# --------------------------------------------------------------------------


def _checked_solve(op: tridiag.Tridiag, rhs_, tol, label):
    try:
        x = op.solve(rhs_)
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise StepError(f"{label} solve failed: {exc}") from exc
    if not np.isfinite(x).all():
        raise StepError(f"{label} solve produced non-finite values")
    res = np.abs(op.residual(x, rhs_)).max(axis=-1)
    scale = np.abs(rhs_).max(axis=-1)
    if ((res > tol) & (res > tol * scale)).any():  # res > tol * max(1, scale)
        raise StepError(f"{label} solve residual exceeds tolerance")
    return x


def _solve_banded(op: tridiag.Tridiag, rhs_, tol, *, label):
    """Solve ``op x = rhs_``; check that x is finite and that the residual
    is at most ``tol * max(1, |rhs_|_inf)``.

    A batch (``rhs_`` of shape (B, n)) is solved in one stacked call, and
    each member's residual is checked at its own scale.  One member's NaN or
    singular matrix spoils the stacked solve for the others, so when the
    stacked solve or a check fails, the members are solved again one at a
    time: only a failing member raises, with its row in ``StepError.member``.
    """
    try:
        return _checked_solve(op, rhs_, tol, label)
    except StepError:
        if rhs_.ndim == 1:
            raise
    x = np.empty_like(rhs_)
    for i in range(len(rhs_)):
        try:
            x[i] = _checked_solve(op.member(i), rhs_[i], tol, label)
        except StepError as exc:
            exc.member = i
            raise
    return x


def _solve_v_stage(src, gam_mid, a, grid_, dt, theta_weight, tol):
    """Implicit velocity stage shared by both schemes.

    Solves (I - theta_weight*dt*L_gamma - a*(theta_weight*dt)^2*D2) v_new =
    rhs with homogeneous Dirichlet rows; ``src`` holds the fully assembled
    explicit part of the right-hand side (interior nodes).
    """
    shape = gam_mid.shape[:-1] + (grid_.n,)
    dx2 = grid_.dx ** 2
    w = theta_weight * dt
    diag_ = np.ones(shape)
    lower = np.zeros(gam_mid.shape)
    upper = np.zeros(gam_mid.shape)
    diag_[..., 1:-1] = 1.0 + w * (gam_mid[..., :-1] + gam_mid[..., 1:]) / dx2 + 2.0 * a * w * w / dx2
    lower[..., :-1] = -w * gam_mid[..., :-1] / dx2 - a * w * w / dx2
    upper[..., 1:] = -w * gam_mid[..., 1:] / dx2 - a * w * w / dx2
    rhs_ = np.zeros(shape)
    rhs_[..., 1:-1] = src
    return _solve_banded(tridiag.Tridiag(lower, diag_, upper), rhs_, tol, label="velocity")


def _solve_theta_stage(rhs_, grid_, dt, theta_weight, tol):
    """Implicit heat stage: (I - theta_weight*dt*D2_N) theta_new = rhs.

    The mirror-ghost Neumann rows keep the trapezoid mass of the operator
    identically zero, so the solve conserves int Theta up to the sources
    already contained in ``rhs_``.
    """
    op = tridiag.neumann(grid_.n, theta_weight * dt / grid_.dx ** 2)
    return _solve_banded(op, rhs_, tol, label="heat")


def _heat_source(v_used, f_old, gam_mid, grid_):
    """Nodal heating/coupling source matched to the mechanical losses.

    Dissipation is gamma_mid * (strain rate)^2 per cell scattered back to the
    nodes (mass-exact); the coupling gradient uses the SBP closure so the
    kinetic/thermal cross terms telescope exactly.  Both agree with the nodal
    forms gamma v_x^2 and f v_x to O(dx^2) in the interior.
    """
    dv = np.diff(v_used) / grid_.dx
    visc = g.mid_to_node(gam_mid * dv * dv, grid_)
    return visc - f_old * g.d1_lowend(v_used, grid_)


def step_with_count(state, laws: mat.MaterialLaws, a: float, grid_: g.Grid1D,
                    cfg: SchemeConfig, dt: float, forcing: Forcing | None = None):
    """Advance one IMEX step; returns (new state, number of clamped
    temperature nodes).  Raises StepError on solver failure or rejection.

    ``state`` may be a :class:`diagnostics.StateEval`; its cached (gamma, f)
    and second differences are then used, and kept for the next caller.

    An ensemble state ((B, n) fields, ``laws`` a :class:`material.LawRows`
    with one law per row) takes the step of every member at once, each
    member's bits as in its own step; the clamp counts are then one per
    member, and a StepError names the failing member's row in ``member``.
    """
    if dt <= 0:
        raise DomainError("dt must be positive")
    if a <= 0:
        raise DomainError("a must be positive")
    n = grid_.n
    if state.u.ndim not in (1, 2) or state.u.shape[-1] != n:
        raise ConfigError("state not sized to grid")

    ev = diag.StateEval.of(state, grid_)
    gam, f_old = ev.material(laws)
    if (gam <= 0.0).any():
        raise DomainError("viscosity must stay positive")
    gam_mid = 0.5 * (gam[..., 1:] + gam[..., :-1])

    d2u = ev.uxx[..., 1:-1]
    dfdx = (f_old[..., 2:] - f_old[..., :-2]) / (2.0 * grid_.dx)

    if cfg.scheme == "imex_be":
        w, t_force = 1.0, state.t + dt
        src = state.v[..., 1:-1] + dt * (a * d2u - dfdx)
    else:  # imex_cn
        w, t_force = 0.5, state.t + 0.5 * dt
        lgam_v = g.div_flux(gam, state.v, grid_)[..., 1:-1]
        d2v = ev.vxx[..., 1:-1]
        src = state.v[..., 1:-1] + 0.5 * dt * lgam_v + dt * a * d2u \
            + 0.25 * a * dt * dt * d2v - dt * dfdx
    if forcing is not None:
        src = src + dt * forcing.fv(grid_.nodes, t_force)[1:-1]
    v_new = _solve_v_stage(src, gam_mid, a, grid_, dt, w, cfg.solver_tol)
    if cfg.scheme == "imex_be":
        u_new = state.u + dt * v_new
        v_used = v_new
        theta_rhs = state.theta
    else:
        u_new = state.u + 0.5 * dt * (state.v + v_new)
        v_used = 0.5 * (state.v + v_new)
        theta_rhs = state.theta + 0.5 * dt * ev.thxx
    heat_extra = np.zeros(n) if forcing is None else forcing.ftheta(grid_.nodes, t_force)
    rhs_theta = theta_rhs + dt * (_heat_source(v_used, f_old, gam_mid, grid_) + heat_extra)
    theta_new = _solve_theta_stage(rhs_theta, grid_, dt, w, cfg.solver_tol)

    v_new[..., 0] = v_new[..., -1] = 0.0
    u_new[..., 0] = u_new[..., -1] = 0.0

    clamped = np.zeros(theta_new.shape[:-1], dtype=int)
    if theta_new.min() < 0.0:
        if cfg.positivity_policy == "reject_step":
            min_theta = np.atleast_1d(theta_new.min(axis=-1))
            dipped = np.flatnonzero(min_theta < -cfg.positivity_tolerance)
            if dipped.size:
                i = int(dipped[0])
                raise StepError(
                    f"temperature dipped to {min_theta[i]:.3e}; retry with smaller dt",
                    suggested_dt=0.5 * dt, member=i if theta_new.ndim == 2 else None,
                )
        else:
            mask = theta_new < 0.0
            clamped = np.count_nonzero(mask, axis=-1)
            theta_new = np.where(mask, 0.0, theta_new)

    new = State(t=state.t + dt, u=u_new, v=v_new, theta=theta_new)
    return new, (clamped if theta_new.ndim == 2 else int(clamped))


# --------------------------------------------------------------------------
# eta-regularized triangular system
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EtaState:
    """Snapshot of the regularized triangular system (v_eta, u_eta); a batch
    holds (B, n) fields and one ``eta`` per row."""

    t: float
    v_eta: np.ndarray
    u_eta: np.ndarray
    eta: float | np.ndarray

    def __post_init__(self):
        if np.any(np.asarray(self.eta) < 0):
            raise ConfigError("eta must be nonnegative")
        for name in ("v_eta", "u_eta"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))


def step_eta(state: EtaState, A: np.ndarray, gsrc: np.ndarray, a: float,
             grid_: g.Grid1D, cfg: SchemeConfig, dt: float) -> EtaState:
    """One step of the triangular cross-diffusion system

        v_t = A(x) v_xx + a u_xx + g(x),    u_t = eta u_xx + v,

    with homogeneous Dirichlet conditions on both components.  Both diffusion
    terms are implicit (two tridiagonal solves); the couplings are explicit.
    At eta = 0 the displacement update reduces to the backward form used by
    the main stepper.

    A batch state steps every row at once, each with the bits of its own
    step: the velocity stage is one stacked solve, the rows with eta > 0
    share one stacked displacement solve, and a StepError names the failing
    row in ``member``.
    """
    if dt <= 0:
        raise DomainError("dt must be positive")
    A = np.asarray(A, dtype=float)
    gsrc = np.asarray(gsrc, dtype=float)
    n = grid_.n
    if A.shape != (n,) or gsrc.shape != (n,):
        raise ConfigError("coefficient fields not sized to grid")
    if np.any(A <= 0.0):
        raise DomainError("A must be bounded below by a positive constant")
    dx2 = grid_.dx ** 2
    tol = cfg.solver_tol

    d2u = g.d2(state.u_eta, grid_, g.BcKind.DIRICHLET_BOTH)[..., 1:-1]
    rhs_ = np.zeros(state.v_eta.shape)
    rhs_[..., 1:-1] = state.v_eta[..., 1:-1] + dt * (a * d2u + gsrc[1:-1])
    v_new = _solve_banded(tridiag.dirichlet(n, dt * A[1:-1] / dx2), rhs_, tol, label="eta velocity")
    v_new[..., 0] = v_new[..., -1] = 0.0

    u_new = state.u_eta + dt * v_new  # the backward update, and the right-hand side where eta > 0
    u_new[..., 0] = u_new[..., -1] = 0.0
    eta = np.atleast_1d(state.eta)
    rows = np.flatnonzero(eta > 0.0)
    if rows.size:
        u2 = u_new.reshape(-1, n)  # a view; a single state is a batch of one
        try:
            u2[rows] = _solve_banded(tridiag.dirichlet(n, dt * eta[rows, None] / dx2),
                                     u2[rows], tol, label="eta displacement")
        except StepError as exc:
            exc.member = int(rows[exc.member]) if u_new.ndim > 1 else None
            raise
    u_new[..., 0] = u_new[..., -1] = 0.0
    return EtaState(t=state.t + dt, v_eta=v_new, u_eta=u_new, eta=state.eta)


# --------------------------------------------------------------------------
# recorders: what a run keeps of the states it passes through
# --------------------------------------------------------------------------


class Recorder:
    """Base of the objects :func:`simulate` feeds: ``sample`` is called once
    per recorded state ``ev``, a :class:`diagnostics.StateEval` of one run,
    also in an ensemble.  It does nothing here."""

    def sample(self, ev: diag.StateEval) -> None:
        pass


class Rows:
    """The timeseries of :func:`simulate`: the four accumulators advanced
    every step, and one row with its transformed residual per recorded state.

    Over an ensemble state it does this for every member at once: ``laws``,
    ``q`` and ``kappa`` are then the per-member parameters of
    :func:`_params`, ``e0`` and the accumulators hold one value per member,
    ``sample`` takes one clamp count per member, and ``rows[i]`` is the i-th
    member's timeseries.
    """

    def __init__(self, laws, a: float, grid_: g.Grid1D, q, kappa, e0, members: int = 1):
        self.laws, self.a, self.grid, self.q, self.kappa, self.e0 = laws, a, grid_, q, kappa, e0
        self.cum = diag.TheoryMonitors()
        if members > 1:  # one running value per member
            self.cum = diag.TheoryMonitors(**dict.fromkeys(_CUMULATIVE, np.zeros(members)))
        self.rows: list[list[diag.DiagRow]] = [[] for _ in range(members)]

    def step(self, left, dt):
        self.cum = diag.accumulate_monitors(self.cum, left, dt, self.laws.alpha, self.grid)

    def sample(self, left, ev, clamps):
        """The row at ``ev``, whose step started at ``left`` (None at t = 0),
        with the clamp count ``clamps`` so far."""
        z_res = 0.0 if left is None else diag.z_residual(
            left, ev, self.laws, self.a, self.kappa, self.grid)
        made = diag.make_row(ev, self.a, self.grid, self.cum, self.q, self.e0, z_res, clamps)
        for rows, row in zip(self.rows, made if isinstance(made, list) else [made]):
            rows.append(row)

    def keep(self, idx: list, laws, q, kappa) -> None:
        """Go on with the members at rows ``idx`` only, whose parameters are
        now ``laws``, ``q`` and ``kappa``."""
        self.laws, self.q, self.kappa, self.e0 = laws, q, kappa, self.e0[idx]
        self.cum = diag.TheoryMonitors(**{k: v[idx] for k, v in _cumulative(self.cum).items()})
        self.rows = [self.rows[i] for i in idx]

    def alone(self, i: int, laws, q, kappa) -> "Rows":
        """Member ``i`` alone from here, with its ``laws``, ``q`` and ``kappa``:
        float ``e0`` and accumulators as in its solo run, the same ``rows[i]``."""
        own = Rows(laws, self.a, self.grid, q, kappa, float(self.e0[i]))
        own.cum = diag.TheoryMonitors(**{k: float(v[i]) for k, v in _cumulative(self.cum).items()})
        own.rows = [self.rows[i]]
        return own


_CUMULATIVE = ("cum_vx4", "cum_theta_pow", "cum_thetaxx2", "cum_vxx2")


def _cumulative(mon: diag.TheoryMonitors) -> dict:
    return {k: getattr(mon, k) for k in _CUMULATIVE}


class Snapshots(Recorder):
    """Every recorded state, in order, for callers that need a history."""

    def __init__(self):
        self.states: list[State] = []

    def sample(self, ev):
        self.states.append(ev.state)


# --------------------------------------------------------------------------
# full trajectory driver
# --------------------------------------------------------------------------


@dataclass
class Trajectory:
    """What a run produced: its first and last states, the sample times, its
    timeseries rows (without them, ``monitors`` is None), and its verdict."""

    grid: g.Grid1D
    laws: mat.MaterialLaws
    a: float
    initial_state: State | None = None
    final_state: State | None = None
    times: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    e0: float = 0.0
    clamp_total: int = 0
    steps_taken: int = 0
    blowup: diag.BlowupReport | None = None
    status: str = "completed"
    error: str | None = None

    @property
    def monitors(self) -> diag.TheoryMonitors | None:
        """The final monitors: those of the last row."""
        if not self.rows:
            return None
        return diag.TheoryMonitors(**{f.name: getattr(self.rows[-1], f.name)
                                      for f in fields(diag.TheoryMonitors)})

    @property
    def max_drift(self) -> float:
        return max(abs(r.drift) for r in self.rows)

    def clamp_fraction(self) -> float:
        if self.steps_taken == 0:
            return 0.0
        return self.clamp_total / (self.grid.n * self.steps_taken)


class Ensemble(list):
    """The trajectories of an ensemble run, in member order."""

    @property
    def steps_taken(self) -> int:
        """Accepted steps, summed over the members."""
        return sum(traj.steps_taken for traj in self)


class _Member:
    """One run of a :func:`simulate` call: its inputs and recorders, its
    trajectory, the W^{1,2} history its blow-up detector reads, and, once
    its step failed in a batch, ``resume``: the state it stood at, the left
    state of the step that produced it, the steps since its last sample and
    its own :class:`Rows` (or None)."""

    def __init__(self, laws, data, monitor_cfg, recorders, grid_, a):
        self.laws, self.data, self.cfg, self.recs = laws, data, monitor_cfg, list(recorders)
        self.traj = Trajectory(grid=grid_, laws=laws, a=a)
        self.w12 = deque(maxlen=monitor_cfg.blowup_window)
        self.resume = None

    def halts(self) -> bool:
        """Run the blow-up detector on a full window whose last value is above
        the threshold (it cannot fire otherwise); True if it fires."""
        cfg = self.cfg
        if len(self.w12) < cfg.blowup_window or not (self.w12[-1] > cfg.blowup_threshold):
            return False
        report = diag.blowup_check(self.w12, cfg.blowup_window, cfg.blowup_threshold,
                                   cfg.blowup_rate_min, times=self.traj.times)
        if report.fired:
            self.traj.blowup = report
            self.traj.status = "blowup_halt"
        return report.fired


def _params(act: list, batch: bool):
    """The laws, q and kappa of the members ``act`` as the diagnostics take
    them: one member's own, or for a batch a :class:`material.LawRows` and
    (B, 1) columns, one row per member.  Built once per active set."""
    if not batch:
        return act[0].laws, act[0].cfg.q, act[0].cfg.kappa
    return (mat.LawRows(m.laws for m in act), np.array([[m.cfg.q] for m in act]),
            np.array([[m.cfg.kappa] for m in act]))


def _listed(x) -> list:
    """A per-member result as a list (one value, for a single run)."""
    return x.tolist() if isinstance(x, np.ndarray) else [x]


def _rows(ev: diag.StateEval, idx: list) -> diag.StateEval:
    s = ev.state
    return diag.StateEval(State(s.t, s.u[idx], s.v[idx], s.theta[idx]), ev.grid)


def simulate(laws, a: float, grid_: g.Grid1D, data, t_end: float, scheme_cfg: SchemeConfig,
             monitor_cfg=None, forcing: Forcing | None = None, *, rows: bool = True,
             recorders=()):
    """Integrate from t = 0 to t_end, recording at the configured cadence;
    halts early if the blow-up detector fires.

    The loop keeps what decides how the run ends: every step check and
    retry, the clamp count, the sample times, the first and last accepted
    states, and the blow-up detector, fed the W^{1,2} norm of the
    temperature at every recorded state.  When ``rows`` is true, a
    :class:`Rows` table fills ``traj.rows`` (and so ``traj.monitors``).
    Every recorded state is then handed to the ``sample`` of each of
    ``recorders``, in order.

    Each state is wrapped once in a :class:`diagnostics.StateEval`, and a
    recorded state's evaluation (material coefficients included) is reused
    as the left state of the next step.  The last accepted state is always
    recorded: at t_end, and on an abort even off the cadence.

    A list ``data`` integrates an ensemble, one member per entry, and
    returns an :class:`Ensemble` of their trajectories.  ``laws``,
    ``monitor_cfg`` and ``recorders`` (if any) then hold one entry per
    member, a sequence of recorders each.  The members share the grid, ``a``,
    ``t_end`` and ``scheme_cfg``.  With a fixed dt, one cadence and no forcing
    they run as one batch, else one after another.  A batch holds their
    fields as the rows of (B, n) arrays: every operator, the accumulators
    and the rows act on all of them at once, and each stage is one stacked
    tridiagonal solve.  Each member keeps its own laws, monitors, clamp
    count, detector, verdict and recorders, and gets the bits of its own
    run.  A member that halts leaves the batch.  A member whose step raises
    StepError leaves it too, and goes on alone from that step once the batch
    is done, its trajectory, detector history and recorders carrying on: its
    outcome is its solo outcome, and each recorder sees each sample once.
    """
    batch = isinstance(data, (list, tuple))
    if not batch:
        laws, data, monitor_cfg, recorders = [laws], [data], [monitor_cfg], [recorders]
    recorders = list(recorders) or [()] * len(data)
    monitor_cfg = [diag.MonitorConfig() if c is None else c for c in monitor_cfg]
    if not data or not len(laws) == len(data) == len(monitor_cfg) == len(recorders):
        raise ConfigError("an ensemble needs laws, monitors and recorders for each member")
    if any(d.u0.shape != (grid_.n,) for d in data):
        raise ConfigError("initial data not sized to grid")
    if t_end <= 0:
        raise ConfigError("t_end must be positive")

    members = [_Member(*inputs, grid_, a) for inputs in zip(laws, data, monitor_cfg, recorders)]
    together = (not scheme_cfg.adaptive and forcing is None
                and len({c.cadence for c in monitor_cfg}) == 1)
    for m in _march(members, a, grid_, t_end, scheme_cfg, forcing, rows) if together else members:
        _march([m], a, grid_, t_end, scheme_cfg, forcing, rows)  # from t = 0, or where it failed
    trajs = [m.traj for m in members]
    return Ensemble(trajs) if batch else trajs[0]


def _march(act: list, a, grid_, t_end, scheme_cfg, forcing, rows) -> list:
    """The loop of :func:`simulate` over the members ``act``, whose fields
    are the rows of (B, n) arrays, or (n,) arrays for a single member; a
    single member with a ``resume`` point goes on from there.  Returns the
    members whose step failed in the batch, each with its ``resume`` point."""
    batch = len(act) > 1
    laws, q, kappa = _params(act, batch)
    cadence = act[0].cfg.cadence
    failed = []

    def record(left: diag.StateEval | None, ev: diag.StateEval):
        for m in act:
            m.traj.times.append(ev.t)
        if row_rec is not None:
            clamps = [m.traj.clamp_total for m in act]
            row_rec.sample(left, ev, clamps if batch else clamps[0])
        for i, m in enumerate(act):
            for rec in m.recs:
                rec.sample(ev.member(i))
        for m, w12 in zip(act, _listed(ev.w12_theta)):
            m.w12.append(w12)

    def drop(out, *evs) -> list:
        """Go on without the members at rows ``out``; returns ``evs`` without
        them (``left`` and ``ev`` always share the rows of ``act``)."""
        nonlocal act, laws
        idx = [i for i in range(len(act)) if i not in out]
        act = [act[i] for i in idx]
        if not act:
            return evs
        laws, q, kappa = _params(act, batch)
        if row_rec is not None:
            row_rec.keep(idx, laws, q, kappa)
        return [_rows(ev, idx) for ev in evs]

    if act[0].resume is not None:  # it left a batch: it goes on from where it stood
        ev, left, steps_since_sample, row_rec = act[0].resume
    else:
        fields0 = [np.stack(f) if batch else f[0]
                   for f in zip(*((m.data.u0, m.data.v0, m.data.theta0) for m in act))]
        state = State(0.0, *fields0)
        ev = diag.StateEval(state, grid_)
        e0 = diag.energy(state, a, grid_).total
        for i, (m, e) in enumerate(zip(act, _listed(e0))):
            m.traj.initial_state, m.traj.e0 = ev.member(i).state, e
        row_rec = None
        if rows:
            row_rec = Rows(laws, a, grid_, q, kappa, e0, len(act))
            for m, own in zip(act, row_rec.rows):
                m.traj.rows = own
        record(None, ev)
        left, steps_since_sample = ev, 0  # left: the left state of the step that produced ev

    eps_end = 1e-12 * max(t_end, 1.0)
    while act and ev.t < t_end - eps_end:
        dt = adapt_dt(ev, laws, grid_, scheme_cfg) if scheme_cfg.adaptive else scheme_cfg.dt_initial
        dt = min(dt, t_end - ev.t)

        prev = ev
        retries = 0
        while True:
            try:
                state, clamped = step_with_count(prev, laws, a, grid_, scheme_cfg, dt, forcing)
                break
            except StepError as exc:
                if batch:  # the member goes on alone from here once the batch is done
                    i, m = exc.member, act[exc.member]
                    m.resume = (prev.member(i), left.member(i), steps_since_sample,
                                row_rec and row_rec.alone(i, *_params([m], False)))
                    failed.append(m)
                    left, prev = drop([i], left, prev)
                    if not act:
                        return failed
                    continue
                if exc.suggested_dt is None or retries >= scheme_cfg.max_step_retries:
                    act[0].traj.status = "aborted"
                    act[0].traj.error = str(exc)
                    if steps_since_sample:
                        record(left, ev)
                    act[0].traj.final_state = ev.state
                    return failed
                dt = min(exc.suggested_dt, t_end - prev.t)
                retries += 1
        if row_rec is not None:
            row_rec.step(prev, dt)
        left, ev = prev, diag.StateEval(state, grid_)
        for m, c in zip(act, _listed(clamped)):
            m.traj.clamp_total += c
            m.traj.steps_taken += 1
        steps_since_sample += 1

        if steps_since_sample >= cadence or ev.t >= t_end - eps_end:
            record(left, ev)
            steps_since_sample = 0
            halted = [i for i, m in enumerate(act) if m.halts()]
            if halted:
                for i in halted:
                    act[i].traj.final_state = ev.member(i).state
                left, ev = drop(halted, left, ev)

    for i, m in enumerate(act):
        m.traj.final_state = ev.member(i).state
    return failed


def run(config, *, rows: bool = True, recorders=()):
    """Validated front door: check the material hypotheses, build the grid
    and initial data from the configured scenario, then integrate with the
    given recorders (see :func:`simulate`).

    A list of configs runs as one ensemble (``recorders`` then holds one
    sequence per config) and returns an :class:`Ensemble`; the configs must
    agree on everything but the material laws, the initial data and the
    monitors, the manufactured solution (and so the forcing) included.
    """
    batch = isinstance(config, (list, tuple))
    scens = [c.scenario for c in config] if batch else [config.scenario]
    for scen in scens:
        mat.require_hypotheses(scen.laws)
    scen = scens[0]
    grid_ = scen.make_grid()
    if not batch:
        return simulate(scen.laws, scen.a, grid_, scen.make_data(grid_), scen.t_end,
                        scen.scheme, scen.monitors, scen.make_forcing(), rows=rows,
                        recorders=recorders)
    shared = (grid_, scen.a, scen.t_end, scen.scheme, scen.mms_id)
    if any((s.make_grid(), s.a, s.t_end, s.scheme, s.mms_id) != shared for s in scens):
        raise ConfigError("ensemble configs must share the grid, a, T_end, the scheme "
                          "and the mms case")
    return simulate([s.laws for s in scens], scen.a, grid_, [s.make_data(grid_) for s in scens],
                    scen.t_end, scen.scheme, [s.monitors for s in scens], scen.make_forcing(),
                    rows=rows, recorders=recorders)
