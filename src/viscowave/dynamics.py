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
from dataclasses import dataclass, field, replace
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


def rhs(state: State, laws: mat.MaterialLaws, a: float, grid_: g.Grid1D):
    """Instantaneous right-hand side of the first-order system.

    Returns (dv, du, dtheta) with nodal sources: the heating term is
    gamma(Theta) (d1 v)^2 and the coupling loss f(Theta) (d1 v); boundary
    entries of dv and du are forced to zero.
    """
    if a <= 0:
        raise DomainError("a must be positive")
    theta = np.maximum(state.theta, 0.0)
    gam = np.asarray(mat.eval_gamma(laws, theta))
    f = np.asarray(mat.eval_f(laws, theta))
    dv = g.div_flux(gam, state.v, grid_) \
        + a * g.d2(state.u, grid_, g.BcKind.DIRICHLET_BOTH) \
        - g.d1(f, grid_)
    dv[0] = dv[-1] = 0.0
    du = state.v.copy()
    du[0] = du[-1] = 0.0
    vx = g.d1(state.v, grid_)
    dtheta = g.d2(theta, grid_, g.BcKind.NEUMANN_BOTH) + gam * vx ** 2 - f * vx
    return dv, du, dtheta


def adapt_dt(state: State, laws: mat.MaterialLaws, grid_: g.Grid1D, cfg: SchemeConfig) -> float:
    """Step-size suggestion from the explicit terms.

    dt = min(dt_max, cfl_safety * dx / max(1, |v|_inf), cfl_safety / L) where
    L is the nodal Lipschitz scale of the explicit sources; inactive terms
    (zero velocity, zero source slope) impose no restriction, so the zero
    state returns dt_max.
    """
    dt = cfg.dt_max
    vmax = float(np.max(np.abs(state.v)))
    if vmax > 0.0:
        dt = min(dt, cfg.cfl_safety * grid_.dx / max(1.0, vmax))
    theta = np.maximum(state.theta, 0.0)
    vx = g.d1(state.v, grid_)
    lip = float(np.max(
        np.abs(np.asarray(mat.eval_f_prime(laws, theta))) * np.abs(vx)
        + np.abs(np.asarray(mat.eval_gamma_prime(laws, theta))) * vx ** 2
    ))
    if lip > 0.0:
        dt = min(dt, cfg.cfl_safety / lip)
    return max(dt, 1e-14)


# --------------------------------------------------------------------------
# tridiagonal machinery
# --------------------------------------------------------------------------


def _solve_banded(op: tridiag.Tridiag, rhs_, tol, *, label):
    """Solve ``op x = rhs_``; check that x is finite and that the residual
    is at most ``tol * max(1, |rhs_|_inf)``."""
    try:
        x = op.solve(rhs_)
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise StepError(f"{label} solve failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise StepError(f"{label} solve produced non-finite values")
    res = op.residual(x, rhs_)
    scale = max(1.0, float(np.max(np.abs(rhs_))))
    if float(np.max(np.abs(res))) > tol * scale:
        raise StepError(f"{label} solve residual exceeds tolerance")
    return x


def _solve_v_stage(src, gam_mid, a, grid_, dt, theta_weight, tol):
    """Implicit velocity stage shared by both schemes.

    Solves (I - theta_weight*dt*L_gamma - a*(theta_weight*dt)^2*D2) v_new =
    rhs with homogeneous Dirichlet rows; ``src`` holds the fully assembled
    explicit part of the right-hand side (interior nodes).
    """
    n = grid_.n
    dx2 = grid_.dx ** 2
    w = theta_weight * dt
    diag_ = np.ones(n)
    lower = np.zeros(n - 1)
    upper = np.zeros(n - 1)
    diag_[1:-1] = 1.0 + w * (gam_mid[:-1] + gam_mid[1:]) / dx2 + 2.0 * a * w * w / dx2
    lower[:-1] = -w * gam_mid[:-1] / dx2 - a * w * w / dx2
    upper[1:] = -w * gam_mid[1:] / dx2 - a * w * w / dx2
    rhs_ = np.zeros(n)
    rhs_[1:-1] = src
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
    forms of :func:`rhs` to O(dx^2) in the interior.
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
    """
    if dt <= 0:
        raise DomainError("dt must be positive")
    if a <= 0:
        raise DomainError("a must be positive")
    n = grid_.n
    if state.u.shape != (n,):
        raise ConfigError("state not sized to grid")
    if n < 4:
        raise ConfigError("the stepper needs at least 4 nodes (Dirichlet d2 closure)")

    ev = diag.StateEval.of(state, grid_)
    gam, f_old = ev.material(laws)
    if np.any(gam <= 0.0):
        raise DomainError("viscosity must stay positive")
    gam_mid = 0.5 * (gam[1:] + gam[:-1])

    d2u = ev.uxx[1:-1]
    dfdx = (f_old[2:] - f_old[:-2]) / (2.0 * grid_.dx)

    if cfg.scheme == "imex_be":
        src = state.v[1:-1] + dt * (a * d2u - dfdx)
        if forcing is not None:
            src = src + dt * forcing.fv(grid_.nodes, state.t + dt)[1:-1]
        v_new = _solve_v_stage(src, gam_mid, a, grid_, dt, 1.0, cfg.solver_tol)
        u_new = state.u + dt * v_new
        v_used = v_new
        heat_extra = np.zeros(n)
        if forcing is not None:
            heat_extra = forcing.ftheta(grid_.nodes, state.t + dt)
        rhs_theta = state.theta + dt * (_heat_source(v_used, f_old, gam_mid, grid_) + heat_extra)
        theta_new = _solve_theta_stage(rhs_theta, grid_, dt, 1.0, cfg.solver_tol)
    else:  # imex_cn
        lgam_v = g.div_flux(gam, state.v, grid_)[1:-1]
        d2v = ev.vxx[1:-1]
        src = state.v[1:-1] + 0.5 * dt * lgam_v + dt * a * d2u \
            + 0.25 * a * dt * dt * d2v - dt * dfdx
        if forcing is not None:
            src = src + dt * forcing.fv(grid_.nodes, state.t + 0.5 * dt)[1:-1]
        v_new = _solve_v_stage(src, gam_mid, a, grid_, dt, 0.5, cfg.solver_tol)
        u_new = state.u + 0.5 * dt * (state.v + v_new)
        v_used = 0.5 * (state.v + v_new)
        heat_extra = np.zeros(n)
        if forcing is not None:
            heat_extra = forcing.ftheta(grid_.nodes, state.t + 0.5 * dt)
        rhs_theta = state.theta + 0.5 * dt * ev.thxx \
            + dt * (_heat_source(v_used, f_old, gam_mid, grid_) + heat_extra)
        theta_new = _solve_theta_stage(rhs_theta, grid_, dt, 0.5, cfg.solver_tol)

    v_new[0] = v_new[-1] = 0.0
    u_new[0] = u_new[-1] = 0.0

    clamped = 0
    min_theta = float(np.min(theta_new))
    if min_theta < 0.0:
        if cfg.positivity_policy == "reject_step":
            if min_theta < -cfg.positivity_tolerance:
                raise StepError(
                    f"temperature dipped to {min_theta:.3e}; retry with smaller dt",
                    suggested_dt=0.5 * dt,
                )
        else:
            mask = theta_new < 0.0
            clamped = int(np.count_nonzero(mask))
            theta_new = np.where(mask, 0.0, theta_new)

    return State(t=state.t + dt, u=u_new, v=v_new, theta=theta_new), clamped


# --------------------------------------------------------------------------
# eta-regularized triangular system
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EtaState:
    """Snapshot of the regularized triangular system (v_eta, u_eta)."""

    t: float
    v_eta: np.ndarray
    u_eta: np.ndarray
    eta: float

    def __post_init__(self):
        if self.eta < 0:
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

    d2u = (state.u_eta[2:] - 2.0 * state.u_eta[1:-1] + state.u_eta[:-2]) / dx2
    rhs_ = np.zeros(n)
    rhs_[1:-1] = state.v_eta[1:-1] + dt * (a * d2u + gsrc[1:-1])
    op = tridiag.dirichlet(n, dt * A[1:-1] / dx2)
    v_new = _solve_banded(op, rhs_, cfg.solver_tol, label="eta velocity")
    v_new[0] = v_new[-1] = 0.0

    if state.eta == 0.0:
        u_new = state.u_eta + dt * v_new
    else:
        rhs_u = np.zeros(n)
        rhs_u[1:-1] = state.u_eta[1:-1] + dt * v_new[1:-1]
        op = tridiag.dirichlet(n, dt * state.eta / dx2)
        u_new = _solve_banded(op, rhs_u, cfg.solver_tol, label="eta displacement")
    u_new[0] = u_new[-1] = 0.0
    return EtaState(t=state.t + dt, v_eta=v_new, u_eta=u_new, eta=state.eta)


# --------------------------------------------------------------------------
# recorders: what a run keeps of the states it passes through
# --------------------------------------------------------------------------


class Recorder:
    """Base of the objects :func:`simulate` feeds; both hooks do nothing.

    ``step`` is called once per accepted step, at its left state and dt.
    ``sample`` is called once per recorded state ``ev``, with ``left`` the
    left state of the step that produced it (None for the initial state) and
    the clamp count so far.  Both states are :class:`diagnostics.StateEval`.
    """

    def step(self, left: diag.StateEval, dt: float) -> None:
        pass

    def sample(self, left: diag.StateEval | None, ev: diag.StateEval, clamp_total: int) -> None:
        pass


class Rows(Recorder):
    """The timeseries: the four accumulators advanced every step, and one
    row with its transformed residual per recorded state."""

    def __init__(self, laws: mat.MaterialLaws, a: float, grid_: g.Grid1D,
                 monitor_cfg: diag.MonitorConfig, e0: float):
        self.laws, self.a, self.grid, self.cfg, self.e0 = laws, a, grid_, monitor_cfg, e0
        self.cum = diag.TheoryMonitors()
        self.rows: list[diag.DiagRow] = []

    def step(self, left, dt):
        self.cum = diag.accumulate_monitors(self.cum, left, dt, self.laws.alpha, self.grid)

    def sample(self, left, ev, clamp_total):
        z_res = 0.0 if left is None else diag.z_residual(
            left, ev, self.laws, self.a, self.cfg.kappa, self.grid)
        self.rows.append(diag.make_row(ev, self.a, self.grid, self.cum, self.cfg.q,
                                       self.e0, z_res, clamp_total))


class Snapshots(Recorder):
    """Every recorded state, in order, for callers that need a history."""

    def __init__(self):
        self.states: list[State] = []

    def sample(self, left, ev, clamp_total):
        self.states.append(ev.state)


# --------------------------------------------------------------------------
# full trajectory driver
# --------------------------------------------------------------------------


@dataclass
class Trajectory:
    """What a run produced: its first and last states, the sample times, the
    rows of its :class:`Rows` recorder, and its verdict.  A run without that
    recorder has no rows, and its ``monitors`` is None."""

    grid: g.Grid1D
    laws: mat.MaterialLaws
    a: float
    initial_state: State | None = None
    final_state: State | None = None
    times: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    monitors: diag.TheoryMonitors | None = None
    e0: float = 0.0
    clamp_total: int = 0
    steps_taken: int = 0
    blowup: diag.BlowupReport | None = None
    status: str = "completed"
    error: str | None = None

    @property
    def max_drift(self) -> float:
        return max(abs(r.drift) for r in self.rows)

    def clamp_fraction(self) -> float:
        if self.steps_taken == 0:
            return 0.0
        return self.clamp_total / (self.grid.n * self.steps_taken)


def simulate(laws: mat.MaterialLaws, a: float, grid_: g.Grid1D, data: mat.InitialData,
             t_end: float, scheme_cfg: SchemeConfig, monitor_cfg: diag.MonitorConfig | None = None,
             forcing: Forcing | None = None, *, rows: bool = True,
             recorders=()) -> Trajectory:
    """Integrate from t = 0 to t_end, recording at the configured cadence;
    halts early if the blow-up detector fires.

    The loop keeps what decides how the run ends: every step check and
    retry, the clamp count, the sample times, the first and last accepted
    states, and the blow-up detector, fed the W^{1,2} norm of the
    temperature at every recorded state.  Everything else is left to the
    recorders: a :class:`Rows` recorder when ``rows`` is true (it fills
    ``traj.rows`` and ``traj.monitors``), then ``recorders`` in order.

    Each state is wrapped once in a :class:`diagnostics.StateEval`, and a
    recorded state's evaluation (material coefficients included) is reused
    as the left state of the next step.  The last accepted state is always
    recorded: at t_end, and on an abort even off the cadence.
    """
    if monitor_cfg is None:
        monitor_cfg = diag.MonitorConfig()
    if data.u0.shape != (grid_.n,):
        raise ConfigError("initial data not sized to grid")
    if t_end <= 0:
        raise ConfigError("t_end must be positive")

    state = State(t=0.0, u=data.u0, v=data.v0, theta=data.theta0)
    traj = Trajectory(grid=grid_, laws=laws, a=a, initial_state=state)
    traj.e0 = diag.energy(state, a, grid_).total
    recs = list(recorders)
    if rows:
        row_rec = Rows(laws, a, grid_, monitor_cfg, traj.e0)
        recs.insert(0, row_rec)
        traj.rows = row_rec.rows
    q = monitor_cfg.q
    w12 = deque(maxlen=monitor_cfg.blowup_window)

    def record(left: diag.StateEval | None, ev: diag.StateEval):
        traj.times.append(ev.t)
        for rec in recs:
            rec.sample(left, ev, traj.clamp_total)
        w12.append(ev.w12_theta)

    def finish() -> Trajectory:
        traj.final_state = ev.state
        if rows:
            traj.monitors = replace(row_rec.cum, **diag.instantaneous_monitors(ev, q, grid_))
        return traj

    ev = diag.StateEval(state, grid_)
    record(None, ev)
    left = ev  # the left state of the step that produced ev

    eps_end = 1e-12 * max(t_end, 1.0)
    steps_since_sample = 0
    while state.t < t_end - eps_end:
        dt = adapt_dt(state, laws, grid_, scheme_cfg) if scheme_cfg.adaptive else scheme_cfg.dt_initial
        dt = min(dt, t_end - state.t)

        prev = ev
        retries = 0
        while True:
            try:
                state, clamped = step_with_count(prev, laws, a, grid_, scheme_cfg, dt, forcing)
                break
            except StepError as exc:
                if exc.suggested_dt is None or retries >= scheme_cfg.max_step_retries:
                    traj.status = "aborted"
                    traj.error = str(exc)
                    if steps_since_sample:
                        record(left, ev)
                    return finish()
                dt = min(exc.suggested_dt, t_end - prev.t)
                retries += 1
        for rec in recs:
            rec.step(prev, dt)
        left, ev = prev, diag.StateEval(state, grid_)
        traj.clamp_total += clamped
        traj.steps_taken += 1
        steps_since_sample += 1

        if steps_since_sample >= monitor_cfg.cadence or state.t >= t_end - eps_end:
            record(left, ev)
            steps_since_sample = 0
            if len(w12) == monitor_cfg.blowup_window:
                report = diag.blowup_check(
                    w12, monitor_cfg.blowup_window, monitor_cfg.blowup_threshold,
                    monitor_cfg.blowup_rate_min, times=traj.times)
                if report.fired:
                    traj.blowup = report
                    traj.status = "blowup_halt"
                    return finish()

    return finish()


def run(config: "RunConfig", *, rows: bool = True, recorders=()) -> Trajectory:
    """Validated front door: check the material hypotheses, build the grid
    and initial data from the configured scenario, then integrate with the
    given recorders (see :func:`simulate`)."""
    scen = config.scenario
    report = mat.validate_hypotheses(scen.laws)
    if not report.ok:
        msgs = "; ".join(f"{c.name}: {c.detail}" for c in report.failures())
        raise ConfigError(f"material laws fail hypothesis validation: {msgs}")
    grid_ = scen.make_grid()
    data = scen.make_data(grid_)
    return simulate(scen.laws, scen.a, grid_, data, scen.t_end, scen.scheme,
                    scen.monitors, scen.make_forcing(), rows=rows, recorders=recorders)
