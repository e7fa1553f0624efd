"""Ready-made experiments: initial-data generators, spectral mollification of
rough data, manufactured solutions, the built-in scenario battery, and the
two approximation ladders (vanishing cross-diffusion eta, data smoothing eps).
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from . import diagnostics as diag
from . import dynamics as dyn
from . import grid as g
from . import material as mat
from . import tridiag
from .errors import ConfigError, DomainError

# --------------------------------------------------------------------------
# initial-data generators (addressable by name from run configs)
# --------------------------------------------------------------------------


def _sine(grid_: g.Grid1D, k: int, amp: float) -> np.ndarray:
    out = amp * np.sin(k * np.pi * grid_.nodes / grid_.length)
    out[0] = out[-1] = 0.0  # pin exactly; sin(k*pi) carries roundoff
    return out


def _cosine(grid_: g.Grid1D, k: int, amp: float) -> np.ndarray:
    return amp * np.cos(k * np.pi * grid_.nodes / grid_.length)


def gen_zero(grid_: g.Grid1D, theta_const: float = 1.0) -> mat.InitialData:
    z = np.zeros(grid_.n)
    return mat.InitialData(u0=z, v0=z.copy(), theta0=np.full(grid_.n, theta_const))


def gen_heat_eigenmode(grid_: g.Grid1D, base: float = 1.0, amp: float = 1.0, k: int = 1) -> mat.InitialData:
    z = np.zeros(grid_.n)
    return mat.InitialData(u0=z, v0=z.copy(), theta0=base + _cosine(grid_, k, amp))


def gen_sine_velocity(grid_: g.Grid1D, amp: float = 1.0, k: int = 1,
                      theta_const: float = 0.0) -> mat.InitialData:
    z = np.zeros(grid_.n)
    return mat.InitialData(u0=z, v0=_sine(grid_, k, amp), theta0=np.full(grid_.n, theta_const))


def gen_coupled_smooth(grid_: g.Grid1D, amp_u: float = 0.1, amp_v: float = 0.5,
                       theta_base: float = 1.0, theta_amp: float = 0.25) -> mat.InitialData:
    return mat.InitialData(
        u0=_sine(grid_, 1, amp_u),
        v0=_sine(grid_, 1, amp_v),
        theta0=theta_base + _cosine(grid_, 1, theta_amp),
    )


def gen_corner_theta(grid_: g.Grid1D, base: float = 0.5, amp: float = 1.0,
                     peak: float = 0.37) -> mat.InitialData:
    """Rough data: a piecewise-linear temperature tent with a corner at
    x = peak * L.  The off-center default keeps the cosine spectrum dense
    (a symmetric tent only carries every other harmonic)."""
    if not (0.0 < peak < 1.0):
        raise ConfigError("tent peak must lie strictly inside the domain")
    x = grid_.nodes
    L = grid_.length
    xp = peak * L
    tent = np.where(x <= xp, x / xp, (L - x) / (L - xp))
    z = np.zeros(grid_.n)
    return mat.InitialData(u0=z, v0=z.copy(), theta0=base + amp * tent)


INITIAL_GENERATORS: dict[str, Callable[..., mat.InitialData]] = {
    "zero": gen_zero,
    "heat_eigenmode": gen_heat_eigenmode,
    "sine_velocity": gen_sine_velocity,
    "coupled_smooth": gen_coupled_smooth,
    "corner_theta": gen_corner_theta,
}


# --------------------------------------------------------------------------
# manufactured solutions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MmsCase:
    """Closed-form exact fields and the forcing they induce.

    The exact displacement vanishes at both ends, the exact temperature has
    flat ends and stays nonnegative, so the pair is admissible for the
    boundary conditions of the solver.  ``forcing`` is assembled symbolically
    from the primitive derivative callables and the material laws.
    """

    name: str
    laws: mat.MaterialLaws
    a: float
    length: float
    u: Callable
    v: Callable
    theta: Callable
    forcing: dyn.Forcing

    def initial_data(self, grid_: g.Grid1D) -> mat.InitialData:
        x = grid_.nodes
        u0 = self.u(x, 0.0)
        v0 = self.v(x, 0.0)
        u0[0] = u0[-1] = 0.0
        v0[0] = v0[-1] = 0.0
        return mat.InitialData(u0=u0, v0=v0, theta0=np.maximum(self.theta(x, 0.0), 0.0))


def _assemble_forcing(laws, a, derivs) -> dyn.Forcing:
    """Forcing from exact-field derivatives: plug the fields into the PDE and
    keep the defect.  Uses the non-conservative expansion of the viscous term,
    gamma'(Th) Th_x v_x + gamma(Th) v_xx."""

    def fv(x, t):
        th = derivs["theta"](x, t)
        return (derivs["v_t"](x, t)
                - mat.eval_gamma_prime(laws, th) * derivs["theta_x"](x, t) * derivs["v_x"](x, t)
                - mat.eval_gamma(laws, th) * derivs["v_xx"](x, t)
                - a * derivs["u_xx"](x, t)
                + mat.eval_f_prime(laws, th) * derivs["theta_x"](x, t))

    def ftheta(x, t):
        th = derivs["theta"](x, t)
        vx = derivs["v_x"](x, t)
        return (derivs["theta_t"](x, t)
                - derivs["theta_xx"](x, t)
                - mat.eval_gamma(laws, th) * vx ** 2
                + mat.eval_f(laws, th) * vx)

    return dyn.Forcing(fv=fv, ftheta=ftheta)


def mms_case(case_id: str) -> MmsCase:
    """Return a named manufactured-solution case.

    There is one, ``exponential``: u = e^{-t} sin(pi x / L),
    Theta = 1 + e^{-t} cos(pi x / L) with saturating viscosity and linear
    coupling.  The state at rest is the built-in ``stationary`` scenario,
    whose exact fields :meth:`Scenario.exact_fields` gives.
    """
    if case_id != "exponential":
        raise ConfigError(f"unknown MMS case {case_id!r}")
    laws = mat.MaterialLaws(gamma_family="saturating", f_family="linear",
                            gamma0=1.0, delta=0.1, K_f=1.0, alpha=1.0)
    a, L = 1.0, 1.0
    w = np.pi / L

    def u(x, t):
        return np.exp(-t) * np.sin(w * x)

    def v(x, t):
        return -np.exp(-t) * np.sin(w * x)

    def theta(x, t):
        return 1.0 + np.exp(-t) * np.cos(w * x)

    derivs = {
        "v_t": lambda x, t: np.exp(-t) * np.sin(w * x),
        "v_x": lambda x, t: -w * np.exp(-t) * np.cos(w * x),
        "v_xx": lambda x, t: w * w * np.exp(-t) * np.sin(w * x),
        "u_xx": lambda x, t: -w * w * np.exp(-t) * np.sin(w * x),
        "theta": theta,
        "theta_x": lambda x, t: -w * np.exp(-t) * np.sin(w * x),
        "theta_xx": lambda x, t: -w * w * np.exp(-t) * np.cos(w * x),
        "theta_t": lambda x, t: -np.exp(-t) * np.cos(w * x),
    }
    return MmsCase(name="exponential", laws=laws, a=a, length=L,
                   u=u, v=v, theta=theta,
                   forcing=_assemble_forcing(laws, a, derivs))


# --------------------------------------------------------------------------
# scenarios
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """A complete experiment description addressable by name."""

    name: str
    laws: mat.MaterialLaws
    a: float
    length: float
    n: int
    generator: str
    gen_params: dict = field(default_factory=dict)
    t_end: float = 1.0
    scheme: dyn.SchemeConfig = field(default_factory=dyn.SchemeConfig)
    monitors: diag.MonitorConfig = field(default_factory=diag.MonitorConfig)
    mms_id: str | None = None

    def __post_init__(self):
        if not self.a > 0:
            raise ConfigError("the elastic modulus a must be positive")
        if not self.t_end > 0:
            raise ConfigError("the final time T_end must be positive")
        if self.generator != "mms" and self.generator not in INITIAL_GENERATORS:
            raise ConfigError(f"unknown initial-data generator {self.generator!r}")
        gen = INITIAL_GENERATORS.get(self.generator)  # the mms data take no parameters
        takes = list(inspect.signature(gen).parameters)[1:] if gen else []
        unknown = sorted(set(self.gen_params) - set(takes))
        if unknown:
            raise ConfigError(f"initial-data generator {self.generator!r} takes no "
                              f"{', '.join(unknown)} (it takes: {', '.join(takes) or 'none'})")

    def make_grid(self) -> g.Grid1D:
        return g.Grid1D(self.length, self.n)

    def make_data(self, grid_: g.Grid1D) -> mat.InitialData:
        if self.generator == "mms":
            return mms_case(self.mms_id).initial_data(grid_)
        return INITIAL_GENERATORS[self.generator](grid_, **self.gen_params)

    def make_forcing(self) -> dyn.Forcing | None:
        if self.mms_id is None:
            return None
        return mms_case(self.mms_id).forcing

    def mms_mismatch(self) -> str | None:
        """The settings in which the scenario differs from its mms case, whose
        forcing is built from the case's laws, a, L and initial data: the
        case's fields solve the scenario only if there is none.  None if
        there is none, or no mms case."""
        if self.mms_id is None:
            return None
        case = mms_case(self.mms_id)
        pairs = [("generator", self.generator, "mms"), ("a", self.a, case.a),
                 ("L", self.length, case.length),
                 *((f.name, getattr(self.laws, f.name), getattr(case.laws, f.name))
                   for f in fields(mat.MaterialLaws) if f.compare)]
        return ", ".join(f"{name} = {mine!r} (the case's: {theirs!r})"
                         for name, mine, theirs in pairs if mine != theirs) or None

    def exact_fields(self) -> dict[str, Callable] | None:
        """Closed-form fields for error measurement, when the scenario has them:
        the manufactured solution of an mms case, if the scenario is the
        case's own (no :meth:`mms_mismatch`); the cosine mode of the
        ``heat_eigenmode`` data without coupling (``f_family = zero`` keeps v
        at 0, so theta solves the heat equation for any gamma and a); the
        ``zero`` data, which stay at rest."""
        if self.mms_id is not None:
            case = mms_case(self.mms_id)
            return None if self.mms_mismatch() else {"u": case.u, "v": case.v, "theta": case.theta}
        if self.generator == "heat_eigenmode" and self.laws.f_family == "zero":
            L = self.length
            base = self.gen_params.get("base", 1.0)
            amp = self.gen_params.get("amp", 1.0)
            k = self.gen_params.get("k", 1)
            lam = (k * np.pi / L) ** 2

            def theta(x, t):
                return base + amp * np.exp(-lam * t) * np.cos(k * np.pi * x / L)

            return {"theta": theta}
        if self.generator == "zero":
            theta_const = self.gen_params.get("theta_const", 1.0)
            return {
                "u": lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
                "v": lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
                "theta": lambda x, t: np.full_like(np.asarray(x, dtype=float), theta_const),
            }
        return None


def builtin_battery() -> list[Scenario]:
    """The stock scenario set; every entry passes hypothesis validation and
    runs to its horizon at default resolution."""
    const_laws = mat.MaterialLaws(gamma_family="constant", f_family="zero", gamma0=1.0)
    coupled_laws = mat.MaterialLaws(gamma_family="saturating", f_family="linear",
                                    gamma0=1.0, delta=0.1, K_f=1.0, alpha=1.0)
    near_limit_laws = mat.MaterialLaws(gamma_family="saturating", f_family="power",
                                       gamma0=1.0, delta=0.05, K_f=0.5, alpha=1.45)
    be = dyn.SchemeConfig(dt_initial=1e-3, dt_max=1e-3, scheme="imex_be")
    cn = dyn.SchemeConfig(dt_initial=5e-4, dt_max=5e-4, scheme="imex_cn")
    return [
        Scenario(name="stationary", laws=const_laws, a=1.0, length=1.0, n=65,
                 generator="zero", gen_params={"theta_const": 1.0},
                 t_end=1.0, scheme=be),
        Scenario(name="heat_eigenmode", laws=const_laws, a=1.0, length=1.0, n=129,
                 generator="heat_eigenmode", gen_params={"base": 1.0, "amp": 1.0, "k": 1},
                 t_end=0.5, scheme=cn),
        Scenario(name="damped_wave", laws=const_laws, a=1.0, length=1.0, n=129,
                 generator="sine_velocity", gen_params={"amp": 1.0, "k": 1, "theta_const": 0.0},
                 t_end=1.0, scheme=be),
        Scenario(name="coupled", laws=coupled_laws, a=1.0, length=1.0, n=129,
                 generator="coupled_smooth",
                 gen_params={"amp_u": 0.1, "amp_v": 0.5, "theta_base": 1.0, "theta_amp": 0.25},
                 t_end=1.0, scheme=be),
        Scenario(name="rough_theta", laws=coupled_laws, a=1.0, length=1.0, n=129,
                 generator="corner_theta", gen_params={"base": 0.5, "amp": 1.0}, t_end=0.25,
                 scheme=dyn.SchemeConfig(dt_initial=2e-4, dt_max=2e-4, scheme="imex_be")),
        Scenario(name="near_alpha_limit", laws=near_limit_laws, a=1.0, length=1.0, n=129,
                 generator="coupled_smooth",
                 gen_params={"amp_u": 0.05, "amp_v": 0.3, "theta_base": 1.0, "theta_amp": 0.1},
                 t_end=1.0, scheme=be,
                 monitors=diag.MonitorConfig(q=4 * 1.45 - 2)),
    ]


def battery_scenario(name: str) -> Scenario:
    for sc in builtin_battery():
        if sc.name == name:
            return sc
    known = ", ".join(s.name for s in builtin_battery())
    raise ConfigError(f"unknown scenario {name!r}; built-ins: {known}")


# --------------------------------------------------------------------------
# spectral mollification of rough data
# --------------------------------------------------------------------------


def _mode_multiplier(k: np.ndarray, eps: float) -> np.ndarray:
    """Flat-top raised-cosine cutoff in the scaled wavenumber y = k * eps:
    identity for y <= 1/2, smooth roll-off to zero at y = 1."""
    y = k * eps
    m = np.ones_like(y)
    roll = (y > 0.5) & (y < 1.0)
    m[roll] = np.cos(np.pi * (y[roll] - 0.5)) ** 2
    m[y >= 1.0] = 0.0
    return m


def mollify(data: mat.InitialData, eps: float, grid_: g.Grid1D) -> mat.InitialData:
    """Smooth rough initial data by a boundary-respecting eigenbasis cutoff.

    Displacement and velocity are expanded in the sine basis (pinned ends),
    temperature in the cosine basis (flat ends); modes above wavenumber ~1/eps
    are damped by a smooth flat-top cutoff, nested across decreasing eps.  The
    smoothed temperature is clamped at zero from below, so the output is
    admissible smooth-compatible data.

    The transforms are those of ``scipy.fft`` (``dst``/``idst``/``dct``/
    ``idct``, ``type=1``, ``norm=None``), bit for bit: each is one call of
    ``scipy.fft._pocketfft.pypocketfft``, the compiled pocketfft wrapper they
    dispatch to, with the arguments they pass.  The wrapper is loaded alone by
    :func:`tridiag.load_scipy_extension` on the first call, so the
    ``scipy.fft`` package is never imported; when viscowave loads it first,
    the ``scipy.fft._pocketfft`` package has no ``pypocketfft`` attribute.
    """
    if not (0.0 < eps < 1.0):
        raise DomainError(f"eps must lie in (0, 1), got {eps}")
    if data.u0.shape != (grid_.n,):
        raise ConfigError("data not sized to grid")
    # pocketfft's arguments: the last axis, normalisation 0 forward and 2
    # (divide by N) inverse, one worker.  norm=None keeps the transforms
    # diagonal on the analytic mode families sin(k pi x / L) and
    # cos(k pi x / L); the 'ortho' variants rescale the endpoint samples and
    # would smear a pure mode across coefficients.
    pfft = tridiag.load_scipy_extension("scipy.fft._pocketfft.pypocketfft")

    def cut(transform, w, k):
        coeffs = transform(w, 1, (-1,), 0, None, 1, None)
        return transform(coeffs * _mode_multiplier(k, eps), 1, (-1,), 2, None, 1, None)

    def cut_sine(w):
        out = np.zeros_like(w)
        out[1:-1] = cut(pfft.dst, w[1:-1], np.arange(1, grid_.n - 1, dtype=float))
        return out

    theta = np.maximum(cut(pfft.dct, data.theta0, np.arange(grid_.n, dtype=float)), 0.0)
    return mat.InitialData(u0=cut_sine(data.u0), v0=cut_sine(data.v0), theta0=theta)


def w12_distance(wa: np.ndarray, wb: np.ndarray, grid_: g.Grid1D):
    """Discrete W^{1,2} distance between two nodal fields; a float for (n,)
    fields, one distance per row for (P, n) rows.

    The derivative part uses the staggered difference, which keeps the sine
    and cosine mode families exactly orthogonal (no boundary closure), so
    nested spectral cutoffs give exactly monotone distances.  Every sum runs
    along the last axis, so each row gets the bits of its own distance.
    """
    d = np.asarray(wa, dtype=float) - np.asarray(wb, dtype=float)
    dd = g.gradient_mid(d, grid_)
    dist = np.sqrt(g.integrate(d ** 2, grid_) + np.sum(dd ** 2, axis=-1) * grid_.dx)
    return float(dist) if d.ndim == 1 else dist


# --------------------------------------------------------------------------
# eps-cascade: mollified data -> runs -> Cauchy check
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CascadeReport:
    """Pairwise distances between consecutive runs of a smoothing ladder,
    with what each distance covers: the number of samples at which the pair
    was compared and the last time compared."""

    eps_ladder: tuple[float, ...]
    sup_dists: dict[str, tuple[float, ...]]
    w12_theta_dists: tuple[float, ...]
    cauchy: dict[str, bool]
    statuses: tuple[str, ...]
    blowup_fired: bool
    compared: tuple[int, ...]
    last_compared: tuple[float, ...]
    error: str | None = None


class _Rung(dyn.Recorder):
    """One rung of an eps-cascade, paired with its neighbours while they
    run: a new sample is paired with each neighbour's latest sample of the
    same time.  The pair ``(lower rung, t, fa, fb)`` is noted in
    ``pending``, one list that the whole ladder shares, and compared in a
    block by :func:`_compare` once it holds ``diag.block_size(n)`` pairs, so
    that a stacked field of the block holds at most ``diag.BLOCK_VALUES``
    values.  A rung holds only its latest sample
    ``(t, (u, v, theta))``, views of the state's arrays, not copies: nothing
    writes to a state's arrays once it is built."""

    def __init__(self, ladder: list, i: int, grid_: g.Grid1D, pending: list):
        self.ladder, self.i, self.grid, self.pending = ladder, i, grid_, pending
        self.size = diag.block_size(grid_.n)  # pairs per block
        self.latest = None, None
        self.dists = None  # against the next rung: the max over shared t of (u, v, theta, W12)
        self.compared, self.last = 0, None  # against the next rung: how many samples, up to when

    def sample(self, ev):
        fields = ev.u, ev.v, ev.theta
        for r in self.ladder[max(self.i - 1, 0):self.i] + self.ladder[self.i + 1:self.i + 2]:
            t, theirs = r.latest
            if t == ev.t:
                self.pending.append((r, t, theirs, fields) if r.i < self.i else (self, t, fields, theirs))
                if len(self.pending) == self.size:
                    _compare(self.pending, self.grid)
        self.latest = ev.t, fields

    def fold(self, t, new: list) -> None:
        """One more compared sample, at time t, with distances ``new``."""
        self.compared, self.last = self.compared + 1, t
        # a running max(): a value replaces the one before only if it is greater
        self.dists = new if self.dists is None else [
            x if x > y else y for x, y in zip(new, self.dists)]


def _compare(pending: list, grid_: g.Grid1D) -> None:
    """Compare the noted pairs ``(rung, t, fa, fb)`` as one block, fold each
    pair's distances into its rung in the order noted, and empty the list.

    The block's samples are stacked as (pairs, 3, n): the sup distances of
    u, v and theta are one subtraction and one max along the last axis, and
    W^{1,2}(theta) is one :func:`w12_distance` over all the rows, so each
    pair gets the bits of its own comparison.
    """
    if not pending:
        return
    fa, fb = (np.array([p[k] for p in pending]) for k in (2, 3))
    sup = np.abs(fa - fb).max(axis=-1).tolist()
    w12 = w12_distance(fa[:, 2], fb[:, 2], grid_).tolist()
    for (rung, t, _, _), s, w in zip(pending, sup, w12):
        rung.fold(t, s + [w])
    pending.clear()


def eps_cascade(scenario: Scenario, eps_ladder) -> CascadeReport:
    """Run the scenario with data mollified at each rung of the ladder and
    measure sup-norm distances between consecutive solutions.

    All runs share the grid, the scenario's scheme with its fixed step size
    (an adaptive scheme is a ConfigError: its rungs would not share sample
    times) and the sampling cadence.  The rungs are the members of one
    :func:`dynamics.simulate` batch, compared as they run at every sample
    while they step in lockstep; each rung holds one sample.  A run that
    halts early is compared no further, and one that leaves the batch on a
    failed step only where a later sample falls on a neighbour's final
    sample time.  An aborted rung ends the ladder.  The report flags Cauchy
    behavior per field: each consecutive distance smaller than the previous
    one; for each pair it gives the number of samples compared and the last
    time compared.
    """
    eps_ladder = tuple(float(e) for e in eps_ladder)
    if not eps_ladder:
        raise ConfigError("eps ladder needs at least one rung")
    if any(b >= a for a, b in zip(eps_ladder, eps_ladder[1:])):
        raise ConfigError("eps ladder must be strictly decreasing")
    if any(not (0.0 < e < 1.0) for e in eps_ladder):
        raise ConfigError("eps values must lie in (0, 1)")
    if scenario.scheme.adaptive:
        raise ConfigError("the eps ladder needs a fixed dt: adaptive rungs share no sample times")

    grid_ = scenario.make_grid()
    base = scenario.make_data(grid_)
    data = [mollify(base, eps, grid_) for eps in eps_ladder]
    ladder: list[_Rung] = []
    pending: list = []  # the pairs noted and not yet compared
    ladder.extend(_Rung(ladder, i, grid_, pending) for i in range(len(data)))
    trajs = dyn.simulate([scenario.laws] * len(data), scenario.a, grid_, data, scenario.t_end,
                         scenario.scheme, [scenario.monitors] * len(data), rows=False,
                         recorders=[(r,) for r in ladder])
    _compare(pending, grid_)
    statuses = [traj.status for traj in trajs]
    last = statuses.index("aborted") if "aborted" in statuses else len(statuses) - 1
    dists = [r.dists for r in ladder[:last]]
    sup_dists = {name: tuple(d[i] for d in dists) for i, name in enumerate(("u", "v", "theta"))}
    return CascadeReport(
        eps_ladder=eps_ladder,
        sup_dists=sup_dists,
        w12_theta_dists=tuple(d[3] for d in dists),
        cauchy={name: all(b < a for a, b in zip(vals, vals[1:])) for name, vals in sup_dists.items()},
        statuses=tuple(statuses[:last + 1]),
        blowup_fired="blowup_halt" in statuses[:last + 1],
        compared=tuple(r.compared for r in ladder[:last]),
        last_compared=tuple(r.last for r in ladder[:last]),
        error=trajs[last].error,
    )


# --------------------------------------------------------------------------
# eta-cascade: vanishing cross-diffusion ladder
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EtaCascadeReport:
    """Distance-to-reference decay of the regularized triangular system."""

    etas: tuple[float, ...]
    sup_y: tuple[float, ...]
    slope: float


def eta_cascade(A: np.ndarray, gsrc: np.ndarray, a: float, grid_: g.Grid1D, v0: np.ndarray,
                u0: np.ndarray, etas, t_end: float, dt: float) -> EtaCascadeReport:
    """Run the triangular system for each eta and against the eta = 0
    reference, tracking  y(t) = int (v_eta - v)^2 + a int (u_eta - u)_x^2.

    Returns the sup-in-time of y per eta and the fitted log-log slope of
    sup y against eta.  Every eta and the reference step as the rows of one
    batch, by :func:`dynamics.step_eta`'s body with its operators built once.
    """
    etas = tuple(float(e) for e in etas)
    if any(e <= 0 for e in etas):
        raise ConfigError("eta ladder must be positive; the reference eta=0 is implicit")
    if len(set(etas)) < 2:
        raise ConfigError("eta ladder needs two distinct etas to fit a slope")
    for name, value in (("t_end", t_end), ("dt", dt)):
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"eta cascade {name} must be finite and positive, got {value}")
    if not math.isfinite(t_end / dt):
        raise ConfigError(f"eta cascade t_end / dt = {t_end} / {dt} overflows")
    nsteps = max(1, int(round(t_end / dt)))
    dt = t_end / nsteps

    rows = len(etas) + 1  # row 0 is the reference
    st = dyn.EtaState(t=0.0, v_eta=np.tile(v0, (rows, 1)), u_eta=np.tile(u0, (rows, 1)),
                      eta=np.array((0.0,) + etas))
    ops = dyn._eta_operators(A, gsrc, st.eta, grid_, dt)
    y_max = np.zeros(len(etas))
    for step in range(nsteps + 1):
        if step:
            st = dyn._step_eta(st, ops, a, grid_, dt)
        dv = st.v_eta[1:] - st.v_eta[0]
        du_mid = g.gradient_mid(st.u_eta[1:] - st.u_eta[0], grid_)
        y = g.integrate(dv ** 2, grid_) + a * (du_mid ** 2).sum(axis=-1) * grid_.dx
        y_max = np.where(y > y_max, y, y_max)  # max(): a value replaces it only if greater
    sup_y = y_max.tolist()

    slope = float(np.polyfit(np.log(np.asarray(etas)), np.log(np.maximum(sup_y, 1e-300)), 1)[0])
    return EtaCascadeReport(etas=etas, sup_y=tuple(sup_y), slope=slope)
