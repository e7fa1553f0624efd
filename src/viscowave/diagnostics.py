"""Runtime diagnostics: energy budget, trajectory monitors, and the
parabolic-regularity instrumentation.

Everything here is a pure function of state snapshots.  The monitors mirror
the a-priori functionals that the underlying theory keeps finite: space-time
integrals of ``v_x^4`` and ``(Theta+1)^{4 alpha}``, instantaneous Sobolev
norms of the temperature and velocity, and the damped-antiderivative
transform that turns the velocity equation into a scalar parabolic problem
with mixed boundary conditions.  The maximal-regularity constant of that
scalar problem is bounded below in closed form by D^-p, the supremum of the
single-mode ratios that :func:`estimate_K` marches; the smallness parameters
derived from it are assembled by :func:`theory_constants`.
"""

from __future__ import annotations

import collections.abc
import functools
import math
from dataclasses import dataclass, field, fields

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
    stepped, and, if it was sampled, recorded and fed to the blow-up
    detector) differentiates and integrates that state once; a block of
    states is evaluated as the rows of one ``StateEval`` (:class:`Rows`).
    The snapshot fields ``t``, ``u``, ``v``, ``theta`` are exposed unchanged.

    The fields of an ensemble state are ``(B, n)`` arrays, one row per member
    at the same time t; each derived field then has one row (an integral one
    value) per member.  The laws are then a :class:`material.LawRows`, and
    ``q``, ``alpha`` and ``kappa`` are ``(B, 1)`` columns: each row meets its
    own member's parameters.

    ``out`` maps the name of a derived field (``vx``, ``vx2``, ``vxx``,
    ``thxx``, ``V``) to the array it is written into, with the bits it
    would have in a new one: :class:`Rows` evaluates a block of states in
    work arrays kept for the run.  Any other field is made new.
    """

    def __init__(self, state, grid_: g.Grid1D, out: dict | None = None):
        self.state = state
        self.grid = grid_
        self.t, self.u, self.v, self.theta = state.t, state.u, state.v, state.theta
        self._laws = None
        self._material = None
        self._members: dict[int, StateEval] = {}
        self._out = {} if out is None else out

    @classmethod
    def of(cls, state, grid_: g.Grid1D) -> "StateEval":
        """``state`` itself if it is a ``StateEval`` on ``grid_``, else a new one."""
        if not isinstance(state, cls):
            return cls(state, grid_)
        if state.grid is not grid_ and state.grid != grid_:
            raise ConfigError("StateEval was built on a different grid")
        return state

    def member(self, i: int) -> "StateEval":
        """Member ``i`` of an ensemble state on its own, made once; a single
        state is its own member 0.  Its arrays are views of row ``i``:
        nothing writes to a state's arrays once it is built."""
        if self.v.ndim == 1:
            return self
        if i not in self._members:
            s = self.state
            self._members[i] = StateEval(type(s)(s.t, s.u[i], s.v[i], s.theta[i]), self.grid)
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
        return g.d1(self.v, self.grid, out=self._out.get("vx"))

    @functools.cached_property
    def thx(self) -> np.ndarray:
        return g.d1(self.theta, self.grid)

    @functools.cached_property
    def vxx(self) -> np.ndarray:
        return g.d2(self.v, self.grid, g.BcKind.DIRICHLET_BOTH, out=self._out.get("vxx"))

    @functools.cached_property
    def uxx(self) -> np.ndarray:
        return g.d2(self.u, self.grid, g.BcKind.DIRICHLET_BOTH)

    @functools.cached_property
    def thxx(self) -> np.ndarray:
        return g.d2(self.theta, self.grid, g.BcKind.NEUMANN_BOTH, out=self._out.get("thxx"))

    @functools.cached_property
    def vx2(self) -> np.ndarray:
        return np.multiply(self.vx, self.vx, out=self._out.get("vx2"))

    @functools.cached_property
    def V(self) -> np.ndarray:
        """Antiderivative int_0^x v."""
        return g.cumulative_integral(self.v, self.grid, out=self._out.get("V"))

    @functools.cached_property
    def l2_thetax(self) -> float:
        return g.integrate(self.thx ** 2, self.grid)

    @functools.cached_property
    def w12_theta(self) -> float:
        """W^{1,2} norm of the temperature, the blow-up detector's input."""
        return np.sqrt(g.integrate(self.theta ** 2, self.grid) + self.l2_thetax)


def _scalar_or_rows(x):
    """A reduction over the last axis: a float for one field, one value per
    row for a batch."""
    return float(x) if x.ndim == 0 else x


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
    th = g.integrate(state.theta, grid_)
    return EnergyBudget(t=state.t, kinetic=kin, elastic=_elastic(state.u, a, grid_), thermal=th)


def _elastic(u, a: float, grid_: g.Grid1D, work=None):
    """(a/2) int u_x^2 by the staggered strain; ``work``, if given, of the
    shape of ``u[..., 1:]``, takes the strain."""
    du = g.gradient_mid(u, grid_, out=work)
    du *= du
    return 0.5 * a * _scalar_or_rows(du.sum(axis=-1)) * grid_.dx


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


CUMULATIVE = ("cum_vx4", "cum_theta_pow", "cum_thetaxx2", "cum_vxx2")


def _accumulated(ev: StateEval, alpha, out=None):
    """The integrands of the ``CUMULATIVE`` monitors at ``ev``, in order,
    each made when it is asked for: into ``out`` if given, each over the
    last."""
    yield np.multiply(ev.vx2, ev.vx2, out=out)
    base = np.add(ev.theta, 1.0, out=out)
    yield mat.power(base, 4.0 * alpha, out=base)
    yield np.multiply(ev.thxx, ev.thxx, out=out)
    yield np.multiply(ev.vxx, ev.vxx, out=out)


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
# damped antiderivative transform
# --------------------------------------------------------------------------


def _damping(kappa: np.ndarray, t: float) -> np.ndarray:
    """e^{-kappa t} for a (B, 1) column of rates, entry by entry by
    ``math.exp`` (``np.exp`` may round differently)."""
    return np.array([math.exp(-k * t) for k in kappa[:, 0].tolist()])[:, None]


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


K_MIN_STEPS = 64  # the fewest time steps of a march that estimate_K accepts


def _solve_mixed_heat(z0, gsrc, D, T, dt, grid_: g.Grid1D, p: float) -> np.ndarray:
    """Space-time L^p integral of z_xx for z_t = D z_xx + g with z(0)=z_x(L)=0.

    One problem per row of the (B, n) arrays ``z0`` and ``gsrc``; returns B
    integrals.  A plain forward march on the grid's n nodes (Crank-Nicolson
    in time): row 0 is the Dirichlet identity, row n-1 the mirror-ghost
    Neumann row, whose ghost value z[n-2] stands in for the node beyond
    x = L; the quadrature in time is trapezoidal.  Every problem has the same
    matrix, so each step is one solve with the B rows as its right-hand-side
    columns, and each row gets the bits of its own march.
    """
    nsteps = max(1, int(round(T / dt)))
    dt = T / nsteps
    r = 0.5 * dt * D / grid_.dx ** 2
    op = tridiag.neumann(grid_.n, r)  # one matrix for every step and row
    op.diag[0], op.upper[0] = 1.0, 0.0  # the Dirichlet row at x = 0

    def zxx_p(w):
        zxx = g.d2(w, grid_, g.BcKind.MIXED_LEFT_DIRICHLET_RIGHT_NEUMANN)
        return g.integrate(np.abs(zxx) ** p, grid_)

    z = z0
    acc = 0.5 * zxx_p(z)
    for _ in range(nsteps):
        # rows 1..n-1: z + (r (right - 2 z + left) + dt g), in this order; the
        # right neighbour of row n-1 is its ghost z[n-2]
        right = np.concatenate((z[:, 2:], z[:, -2:-1]), axis=1)
        rhs = np.zeros_like(z)  # row 0 stays 0
        rhs[:, 1:] = z[:, 1:] + (r * (right - 2.0 * z[:, 1:] + z[:, :-1]) + dt * gsrc[:, 1:])
        z = op.solve(rhs)
        acc += zxx_p(z)
    acc -= 0.5 * zxx_p(z)
    return acc * dt


def estimate_K(p: float, D: float, trials: int, grid_: g.Grid1D, T: float,
               dt: float | None = None) -> KEstimate:
    """Probe the maximal-regularity ratio over a family of trial problems.

    Trial 0 is the pure decaying fundamental mode (closed-form ratio
    ``(1 - e^{-4 D lambda T}) / (4 D lambda)`` for p = 4); trial t >= 1 is
    steady forcing by the single mode sin(mu_k x), mu_k = (k + 1/2) pi / L,
    k = t - 1, which vanishes at x = 0 and is flat at x = L; its ratio has
    the closed form
    ``R_k = (1 / (T D^p)) int_0^T (1 - e^{-D mu_k^2 t})^p dt``, rising to
    D^-p as k grows.  The trial sequence is a prefix: more trials can only
    raise the estimate.  The trials march together, as the right-hand-side
    columns of one solve per step, each with the bits of its own march.

    The march must resolve its fastest mode, mu_max = mu_k at the last
    trial: the dt it takes, T / round(T / dt), must satisfy
    D mu_max^2 dt <= 1, or Crank-Nicolson, which does not damp a stiff mode,
    reports fast modes' ratios above D^-p.  It must also take at least
    :data:`K_MIN_STEPS` steps: a march of a few steps resolves nothing.  The
    default dt is the largest of whole steps within T / 512 and
    1 / (D mu_max^2).  The grid must resolve that mode in space,
    mu_max dx <= pi / 4 (four intervals or more per half wavelength), or the
    one-sided z_xx row at x = 0 reports fast modes' ratios above D^-p (at
    n = 33, mode 15, mu dx = 1.52, read 1.54 against D^-p = 1).
    """
    if trials < 1:
        raise DomainError("estimate_K needs at least one trial")
    mu_max = (max(trials - 2, 0) + 0.5) * np.pi / grid_.length
    fewest = D * mu_max ** 2 * T  # the fewest steps with D mu_max^2 dt <= 1
    if dt is None:
        dt = T / max(512, math.ceil(fewest)) if math.isfinite(fewest) else math.nan
    if not all(math.isfinite(v) and v > 0 for v in (p - 1, D, T, dt)):
        raise DomainError("estimate_K requires finite p > 1, D > 0, T > 0 and dt > 0")
    if not (math.isfinite(T / dt) and round(T / dt) >= K_MIN_STEPS):
        raise DomainError(f"estimate_K needs T / dt finite and at least {K_MIN_STEPS} steps, "
                          f"got T = {T!r}, dt = {dt!r}")
    if round(T / dt) < fewest:
        raise DomainError(f"estimate_K's dt must resolve its fastest mode, D mu_max^2 dt <= 1: "
                          f"got {fewest / round(T / dt):.4g} at T = {T!r}, dt = {dt!r}")
    if mu_max * grid_.dx > math.pi / 4:
        raise DomainError(f"estimate_K's grid must resolve its fastest mode, mu_max dx <= pi / 4: "
                          f"got {mu_max * grid_.dx:.4g} at n = {grid_.n}")
    modes = [np.sin((k + 0.5) * np.pi * grid_.nodes / grid_.length)
             for k in range(max(trials - 1, 1))]
    zero = np.zeros(grid_.n)
    z0s = np.array(modes[:1] + [zero] * (trials - 1))
    gsrcs = np.array([zero] + modes[:trials - 1])
    z0xx = g.d2(modes[0], grid_, g.BcKind.MIXED_LEFT_DIRICHLET_RIGHT_NEUMANN)
    denoms = [g.integrate(np.abs(z0xx) ** p, grid_)]
    denoms += [T * g.integrate(np.abs(m) ** p, grid_) for m in modes[:trials - 1]]
    nums = _solve_mixed_heat(z0s, gsrcs, D, T, dt, grid_, p)
    ratios = tuple(float(num / denom) for num, denom in zip(nums, denoms))
    return KEstimate(p=p, D=D, K=max(ratios), ratios=ratios)


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
        if not self.T0 > 0:
            raise ConfigError("monitoring horizon T0 must be positive")
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


DIAG_COLUMNS = tuple(f.name for f in fields(DiagRow))
_CLAMP = DIAG_COLUMNS.index("clamp_count")


# --------------------------------------------------------------------------
# the timeseries: rows evaluated in blocks of recorded states
# --------------------------------------------------------------------------

BLOCK_VALUES = 4096  # one member's field in a block: at most this many values (32 KiB)


def block_size(n: int) -> int:
    """The most states on ``n`` nodes that a block holds: as many for each
    member of a batch as for a solo run, so a field of a B-member block
    holds at most B x ``BLOCK_VALUES`` values."""
    return max(1, BLOCK_VALUES // n)


def _diag_row(values: list) -> DiagRow:
    values[_CLAMP] = int(values[_CLAMP])
    return DiagRow(*values)


class Timeseries(collections.abc.Sequence):
    """A run's timeseries rows, kept as float64 columns: the
    ``(rows, len(DIAG_COLUMNS))`` array of each flushed block, joined into
    one array when they are first read.

    Reading index i builds the i-th :class:`DiagRow` (``clamp_count`` an
    int), and a slice gives a list of them; a Timeseries equals the list of
    its rows.  :meth:`column` gives one column, for reductions.
    """

    def __init__(self):
        self._blocks = []

    def extend(self, block: np.ndarray) -> None:
        """The rows of ``block``, a ``(rows, len(DIAG_COLUMNS))`` array, follow."""
        self._blocks.append(block)

    @property
    def values(self) -> np.ndarray:
        """Every row, as one ``(rows, len(DIAG_COLUMNS))`` float64 array."""
        if len(self._blocks) != 1:
            self._blocks = [np.concatenate(self._blocks) if self._blocks
                            else np.empty((0, len(DIAG_COLUMNS)))]
        return self._blocks[0]

    def column(self, name: str) -> np.ndarray:
        return self.values[:, DIAG_COLUMNS.index(name)]

    def __len__(self) -> int:
        return sum(len(b) for b in self._blocks)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(_diag_row, self.values[i].tolist()))
        return _diag_row(self.values[i].tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, Timeseries)):
            return NotImplemented
        return list(self) == list(other)


_Stacked = collections.namedtuple("_Stacked", "t u v theta")


def _stack(arrays: list, n: int, out=None) -> np.ndarray:
    """The fields of states, each (n,) or (B, n), as the rows of one array
    (``out`` if given); a single state's without a copy."""
    if len(arrays) == 1:
        return arrays[0].reshape(-1, n)
    return np.concatenate(arrays, out=out) if arrays[0].ndim == 2 else np.stack(arrays, out=out)


def _column(p, states: int):
    """A member parameter (a scalar, or a (B, 1) column) repeated for each of
    ``states`` stacked states; as it is for one state."""
    return p if states == 1 else np.tile(np.reshape(p, (-1, 1)), (states, 1))


def _pick(column: np.ndarray, idx: list, width: int) -> np.ndarray:
    """The entries of a column of stacked states (``width`` each) at the
    states ``idx``, as a column."""
    return column.reshape(-1, width)[idx].reshape(-1, 1)


class Rows:
    """The timeseries of a run: the four accumulators advanced every step,
    and one row with its transformed residual per recorded state.

    Over an ensemble state it does this for every member at once: ``laws``,
    ``q`` and ``kappa`` are then the members' parameters as a
    :class:`material.LawRows` and (B, 1) columns, ``e0`` and the
    accumulators hold one value per member, ``sample`` takes one clamp count
    per member, and ``rows[i]`` is the i-th member's :class:`Timeseries`.

    ``step`` and ``sample`` only note what a state owes; ``flush`` evaluates
    the noted states as one block.  A block is flushed once it holds
    :func:`block_size` states, as many as a solo run's whatever the number
    of members, and the step from its last state is noted (a state a block
    holds owes nothing more), and by ``keep`` and ``alone``; whoever reads
    ``rows`` flushes first.

    A block is evaluated in work arrays made at the first flush that needs
    them and kept for the run, each of ``block_size(n)`` states of every
    member at the start (``block_size(n) x members`` rows of n values); a
    block uses their first rows.  A block's fields would otherwise be new
    arrays of several MiB at each flush, which the C heap hands back to the
    system and faults in again at the next one.
    """

    def __init__(self, laws, a: float, grid_: g.Grid1D, q, kappa, e0, members: int = 1):
        self.laws, self.a, self.grid, self.q, self.kappa, self.e0 = laws, a, grid_, q, kappa, e0
        self.cum = np.zeros((members, len(CUMULATIVE)))  # a row of accumulators per member
        self.rows = [Timeseries() for _ in range(members)]
        self.size = block_size(grid_.n)
        self._states = []  # the block's distinct StateEvals, in order
        self._steps = []  # (state index, dt) per step, in order
        self._samples = []  # (state index, left, clamps, steps before it) per sample
        self._arrays = {}  # the work arrays, by name
        self._capacity = self.size * members  # rows of a work array

    def step(self, left: StateEval, dt) -> None:
        """The accumulators advance by ``dt`` x (integrand at ``left``)."""
        self._note(left, self._steps, dt)
        if len(self._states) == self.size:  # full, and its states owe nothing more
            self.flush()

    def sample(self, left: StateEval | None, ev: StateEval, clamps) -> None:
        """The row at ``ev``, whose step started at ``left`` (None at t = 0),
        with the clamp count ``clamps`` so far."""
        self._note(ev, self._samples, left, clamps, len(self._steps))

    def _note(self, ev, owed: list, *item) -> None:
        if not (self._states and self._states[-1] is ev):
            self._states.append(ev)
        owed.append((len(self._states) - 1, *item))

    def _work(self, name: str, rows: int) -> np.ndarray:
        """The first ``rows`` rows of the work array ``name``, made at its
        first use: n values a row, n - 1 for ``terms`` (trapezoid terms), and
        the rows of one state more for ``z`` (the damped transform, whose
        first rows hold the state left of the block)."""
        if name not in self._arrays:
            extra = len(self.rows) if name == "z" else 0
            self._arrays[name] = np.empty((self._capacity + extra,
                                           self.grid.n - (name == "terms")))
        return self._arrays[name][:rows]

    def _rows_of(self, x: np.ndarray, idx: list, name: str) -> np.ndarray:
        """The rows of the states ``idx`` (increasing) of ``x``, stacked
        states of ``len(rows)`` rows each: a view when the states are
        consecutive, else gathered into the work array ``name``."""
        width = len(self.rows)
        if idx[-1] - idx[0] == len(idx) - 1:
            return x[idx[0] * width:(idx[-1] + 1) * width]
        rows = (np.array(idx)[:, None] * width + np.arange(width)).ravel()
        return np.take(x, rows, axis=0, out=self._work(name, len(rows)))

    def _integral(self, w: np.ndarray) -> np.ndarray:
        """The trapezoid integral of each row of ``w``."""
        return g.integrate(w, self.grid, work=self._work("terms", len(w)))

    def flush(self) -> None:
        """Evaluate the block, advance the accumulators in step order and
        append its rows in sample order, each member's as an array of its
        own (no two members' rows share memory).

        Every derived field is computed once over the block's states stacked
        as rows (a block of one state is that state's own StateEval, cache
        and all), each integrand goes into one work array ``w`` and is
        integrated on its own, over all its rows at once; v_xx and theta_xx,
        each read once by the integrand that squares it, are written there
        too.  Nothing a flush keeps is a view of a work array.  Each row
        keeps the bits of its state's own evaluation: the operators act on
        the last axis and the sums run along it, the operations keep their
        order when written into given arrays, the powers are taken per
        exponent (:func:`material.power`), and u_xx, (gamma, f) and the
        detector's W^{1,2} norm come from each state's own cache, where the
        stepper left them.
        """
        if not self._states:
            return
        evs, steps, samples = self._states, self._steps, self._samples
        self._states, self._steps, self._samples = [], [], []
        n, k, width = self.grid.n, len(evs), len(self.rows)
        w = self._work("w", k * width)
        blk = evs[0]
        if k > 1:  # v_xx and theta_xx are read once, by _accumulated; V becomes z
            out = dict(vx=self._work("vx", k * width), vx2=self._work("vx2", k * width),
                       vxx=w, thxx=w, V=self._work("z", (k + 1) * width)[width:])
            blk = StateEval(_Stacked(None, *(
                _stack([getattr(ev, f) for ev in evs], n, self._work(f, k * width))
                for f in ("u", "v", "theta"))), self.grid, out)

        cums = [self.cum]  # cums[j]: the accumulators after the block's first j steps
        if steps:  # integrated over every state of the block, then picked
            acc = np.array([self._integral(x) for x in _accumulated(
                blk, _column(self.laws.alpha, k), w)]).T.reshape(k, width, len(CUMULATIVE))
            for (i, dt) in steps:
                cums.append(cums[-1] + dt * acc[i])
            self.cum = cums[-1]
        if not samples:
            return
        at = [s[0] for s in samples]
        w = w[:len(samples) * width]

        def take(x):  # the sample rows of a block field
            return self._rows_of(x.reshape(-1, n), at, "w")

        z_res = np.zeros((len(samples), width))  # 0 at t = 0, which has no left state
        zs = [j for j, s in enumerate(samples) if s[1] is not None]
        if zs:
            z_res[zs] = np.sqrt(self._residuals(evs, blk, [samples[j][:2] for j in zs])
                                ).reshape(-1, width)
        v = take(blk.v)
        kin = 0.5 * self._integral(np.multiply(v, v, out=w))
        theta = take(blk.theta)
        th, min_theta = self._integral(theta), theta.min(axis=-1)
        l2_vx = self._integral(take(blk.vx2))
        uxx = _stack([evs[i].uxx for i in at], n, w)
        l2_uxx = self._integral(np.multiply(uxx, uxx, out=w))
        base = np.add(take(blk.theta), 1.0, out=w)
        lq = self._integral(mat.power(base, _column(self.q, len(samples)), out=base))
        ela = _elastic(take(blk.u), self.a, self.grid, self._work("terms", len(w)))
        total = kin + ela + th
        cum = np.concatenate([cums[s[3]] for s in samples])
        columns = dict(
            t=np.repeat([evs[i].t for i in at], width), E_total=total, E_kin=kin, E_el=ela,
            E_th=th, drift=(total.reshape(-1, width) - self.e0).ravel(), mass_theta=th,
            min_theta=min_theta, l2_vx=l2_vx, l2_uxx=l2_uxx,
            l2_thetax=np.ravel([evs[i].l2_thetax for i in at]), lq_value=lq,
            w12_theta=np.ravel([evs[i].w12_theta for i in at]), z_residual=z_res.ravel(),
            clamp_count=np.ravel([s[2] for s in samples]),
            **{c: cum[:, j] for j, c in enumerate(CUMULATIVE)})
        block = np.column_stack([columns[c] for c in DIAG_COLUMNS])
        for i, own in enumerate(self.rows):
            own.extend(np.ascontiguousarray(block[i::width]))

    def _residuals(self, evs, blk, samples) -> np.ndarray:
        """The integrals of the squared residual fields of the transformed
        parabolic problem at ``samples``, ``(index, left)`` pairs into the
        block ``evs`` evaluated as ``blk``, one per stacked row.

        The damped antiderivatives z = e^{-kappa t} V, V = int_0^x v, of a
        sample's left state and of the sample give the backward time
        difference; the source is assembled from the sample: the
        viscosity-excess diffusion ``(gamma(Theta) - gamma0) z_xx``, the
        damped elastic term ``a e^{-kappa t} u_x``, the damped coupling
        ``-e^{-kappa t} f(Theta)``, and the left-end flux correction:
        integrating the velocity equation from x = 0 picks up ``flux`` =
        gamma v_x + a u_x - f there.  The field vanishes at first order in dt
        and second order in dx along smooth trajectories.  With damp =
        e^{-kappa t} at the sample, it is
        ``(z_new - z_old) / dt - (gamma0 z_xx - kappa z_new + h - damp flux)``
        with ``h = (gamma - gamma0) z_xx + a damp u_x - damp f``, each
        operation in this order.

        z is made once for each state of the block, in place of the block's
        V, behind the rows of the first sample's left state when that state
        is outside the block (then only the block's first state has a left
        outside it: any other sample's left is the state before it).  A
        sample's z_old is then the z of the state before it, the same rows
        its own z_new had as a sample: the same damping column times the
        same V row.  u_x is taken at the samples only, into the work array
        ``w``, which the first product then overwrites in place; z_xx and h
        go into the work arrays ``zxx`` and ``h``, and the residual into h."""
        n, width, laws = self.grid.n, len(self.rows), self.laws
        at = [i for i, _ in samples]
        m = len(at) * width
        kappas = np.reshape(self.kappa, (-1, 1))
        damp = np.concatenate([_damping(kappas, ev.t) for ev in evs])
        z = self._work("z", (len(evs) + 1) * width)  # z of state i at slot i + 1
        np.multiply(damp, blk.V.reshape(-1, n), out=z[width:])
        if at[0] == 0:
            left = samples[0][1]
            np.multiply(_damping(kappas, left.t), left.V.reshape(-1, n), out=z[:width])
        z_new = self._rows_of(z, [i + 1 for i in at], "z_new")
        z_old = self._rows_of(z, at, "z_old")
        dt = np.repeat([evs[i].t - left.t for i, left in samples], width)[:, None]
        damp = _pick(damp, at, width)
        mats = [evs[i].material(laws) for i, _ in samples]
        gam, f = (_stack([mt[j] for mt in mats], n, self._work(name, m))
                  for j, name in enumerate(("gam", "f")))
        w = self._work("w", m)
        ux = g.d1(self._rows_of(blk.u.reshape(-1, n), at, "u_samples"), self.grid, out=w)
        vx0 = _pick(blk.vx.reshape(-1, n)[:, 0], at, width)
        flux = gam[:, :1] * vx0 + self.a * ux[:, :1] - f[:, :1]  # at x = 0
        gamma0, kappa = _column(laws.gamma0, len(at)), _column(self.kappa, len(at))
        zxx = g.d2(z_new, self.grid, g.BcKind.MIXED_LEFT_DIRICHLET_RIGHT_NEUMANN,
                   out=self._work("zxx", m))
        h = np.subtract(gam, gamma0, out=self._work("h", m))
        h *= zxx
        h += np.multiply(self.a * damp, ux, out=w)
        h -= np.multiply(damp, f, out=w)
        rhs = np.multiply(gamma0, zxx, out=zxx)
        rhs -= np.multiply(kappa, z_new, out=w)
        rhs += h
        rhs -= damp * flux
        res = np.subtract(z_new, z_old, out=h)
        res /= dt
        res -= rhs
        res *= res
        return self._integral(res)

    def keep(self, idx: list, laws, q, kappa) -> None:
        """Go on with the members at rows ``idx`` only, whose parameters are
        now ``laws``, ``q`` and ``kappa``."""
        self.flush()
        self.laws, self.q, self.kappa, self.e0 = laws, q, kappa, self.e0[idx]
        self.cum, self.rows = self.cum[idx], [self.rows[i] for i in idx]

    def alone(self, i: int, laws, q, kappa) -> "Rows":
        """Member ``i`` alone from here, with its ``laws``, ``q`` and ``kappa``:
        float ``e0`` and accumulators as in its solo run, the same ``rows[i]``."""
        self.flush()
        own = Rows(laws, self.a, self.grid, q, kappa, float(self.e0[i]))
        own.cum, own.rows = self.cum[i:i + 1], [self.rows[i]]
        return own
