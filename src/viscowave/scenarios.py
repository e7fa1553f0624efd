"""Ready-made experiments: initial-data generators, spectral mollification of
rough data, manufactured solutions, the built-in scenario battery, and the
two approximation ladders (vanishing cross-diffusion eta, data smoothing eps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import diagnostics as diag
from . import dynamics as dyn
from . import grid as g
from . import material as mat
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
    return mat.InitialData(u0=z, v0=z.copy(), theta0=base + amp * tent, regularity="rough")


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

    ``stationary``: zero displacement, constant unit temperature, zero
    forcing.  ``exponential``: u = e^{-t} sin(pi x / L),
    Theta = 1 + e^{-t} cos(pi x / L) with saturating viscosity and linear
    coupling.
    """
    if case_id == "stationary":
        laws = mat.MaterialLaws(gamma_family="constant", f_family="zero", gamma0=1.0)
        zero2 = lambda x, t: np.zeros_like(np.asarray(x, dtype=float))
        derivs = {k: zero2 for k in
                  ("v_t", "v_x", "v_xx", "u_xx", "theta_x", "theta_xx", "theta_t")}
        derivs["theta"] = lambda x, t: np.ones_like(np.asarray(x, dtype=float))
        return MmsCase(
            name="stationary", laws=laws, a=1.0, length=1.0,
            u=zero2, v=zero2, theta=derivs["theta"],
            forcing=_assemble_forcing(laws, 1.0, derivs),
        )
    if case_id == "exponential":
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
    raise ConfigError(f"unknown MMS case {case_id!r}")


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
    tag: str = "generic"
    scheme: dyn.SchemeConfig = field(default_factory=dyn.SchemeConfig)
    monitors: diag.MonitorConfig = field(default_factory=diag.MonitorConfig)
    mms_id: str | None = None

    def __post_init__(self):
        if self.tag not in ("stationary", "closed_form", "mms", "generic"):
            raise ConfigError(f"unknown scenario tag {self.tag!r}")
        if self.generator != "mms" and self.generator not in INITIAL_GENERATORS:
            raise ConfigError(f"unknown initial-data generator {self.generator!r}")

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

    def exact_fields(self) -> dict[str, Callable] | None:
        """Closed-form fields for error measurement, when the scenario has them."""
        if self.mms_id is not None:
            case = mms_case(self.mms_id)
            return {"u": case.u, "v": case.v, "theta": case.theta}
        if self.name == "heat_eigenmode":
            L = self.length
            base = self.gen_params.get("base", 1.0)
            amp = self.gen_params.get("amp", 1.0)
            k = self.gen_params.get("k", 1)
            lam = (k * np.pi / L) ** 2

            def theta(x, t):
                return base + amp * np.exp(-lam * t) * np.cos(k * np.pi * x / L)

            return {"theta": theta}
        if self.tag == "stationary":
            theta_const = self.gen_params.get("theta_const", 1.0)
            return {
                "u": lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
                "v": lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
                "theta": lambda x, t: np.full_like(np.asarray(x, dtype=float), theta_const),
            }
        return None

    def run(self, *, recorders=()) -> dyn.Trajectory:
        grid_ = self.make_grid()
        return dyn.simulate(self.laws, self.a, grid_, self.make_data(grid_),
                            self.t_end, self.scheme, self.monitors, self.make_forcing(),
                            recorders=recorders)


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
                 t_end=1.0, tag="stationary", scheme=be),
        Scenario(name="heat_eigenmode", laws=const_laws, a=1.0, length=1.0, n=129,
                 generator="heat_eigenmode", gen_params={"base": 1.0, "amp": 1.0, "k": 1},
                 t_end=0.5, tag="closed_form", scheme=cn),
        Scenario(name="damped_wave", laws=const_laws, a=1.0, length=1.0, n=129,
                 generator="sine_velocity", gen_params={"amp": 1.0, "k": 1, "theta_const": 0.0},
                 t_end=1.0, tag="generic", scheme=be),
        Scenario(name="coupled", laws=coupled_laws, a=1.0, length=1.0, n=129,
                 generator="coupled_smooth",
                 gen_params={"amp_u": 0.1, "amp_v": 0.5, "theta_base": 1.0, "theta_amp": 0.25},
                 t_end=1.0, tag="generic", scheme=be),
        Scenario(name="rough_theta", laws=coupled_laws, a=1.0, length=1.0, n=129,
                 generator="corner_theta", gen_params={"base": 0.5, "amp": 1.0},
                 t_end=0.25, tag="generic",
                 scheme=dyn.SchemeConfig(dt_initial=2e-4, dt_max=2e-4, scheme="imex_be")),
        Scenario(name="near_alpha_limit", laws=near_limit_laws, a=1.0, length=1.0, n=129,
                 generator="coupled_smooth",
                 gen_params={"amp_u": 0.05, "amp_v": 0.3, "theta_base": 1.0, "theta_amp": 0.1},
                 t_end=1.0, tag="generic", scheme=be,
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
    """
    if not (0.0 < eps < 1.0):
        raise DomainError(f"eps must lie in (0, 1), got {eps}")
    if data.u0.shape != (grid_.n,):
        raise ConfigError("data not sized to grid")
    import scipy.fft  # here, not at module level: only mollify needs it

    # norm=None keeps the transforms diagonal on the analytic mode families
    # sin(k pi x / L) and cos(k pi x / L); the 'ortho' variants rescale the
    # endpoint samples and would smear a pure mode across coefficients.
    def cut_sine(w):
        coeffs = scipy.fft.dst(w[1:-1], type=1)
        k = np.arange(1, grid_.n - 1, dtype=float)
        out = np.zeros_like(w)
        out[1:-1] = scipy.fft.idst(coeffs * _mode_multiplier(k, eps), type=1)
        return out

    def cut_cosine(w):
        coeffs = scipy.fft.dct(w, type=1)
        k = np.arange(grid_.n, dtype=float)
        return scipy.fft.idct(coeffs * _mode_multiplier(k, eps), type=1)

    theta = np.maximum(cut_cosine(data.theta0), 0.0)
    return mat.InitialData(u0=cut_sine(data.u0), v0=cut_sine(data.v0),
                           theta0=theta, regularity="smooth")


def w12_distance(wa: np.ndarray, wb: np.ndarray, grid_: g.Grid1D) -> float:
    """Discrete W^{1,2} distance between two nodal fields.

    The derivative part uses the staggered difference, which keeps the sine
    and cosine mode families exactly orthogonal (no boundary closure), so
    nested spectral cutoffs give exactly monotone distances.
    """
    d = np.asarray(wa, dtype=float) - np.asarray(wb, dtype=float)
    dd = g.gradient_mid(d, grid_)
    return math.sqrt(g.integrate(d ** 2, grid_) + float(np.sum(dd ** 2)) * grid_.dx)


# --------------------------------------------------------------------------
# eps-cascade: mollified data -> runs -> Cauchy check
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CascadeReport:
    """Pairwise distances between consecutive runs of a smoothing ladder."""

    eps_ladder: tuple[float, ...]
    sup_dists: dict[str, tuple[float, ...]]
    w12_theta_dists: tuple[float, ...]
    cauchy: dict[str, bool]
    statuses: tuple[str, ...]
    blowup_fired: bool
    error: str | None = None


class _Rung(dyn.Recorder):
    """One rung of an eps-cascade, compared with its neighbours while they
    run: a new sample is compared with each neighbour's latest sample of the
    same time.  A rung holds only its latest sample ``(t, fields)``."""

    def __init__(self, ladder: list, i: int, grid_: g.Grid1D):
        self.ladder, self.i, self.grid = ladder, i, grid_
        self.latest = None, None
        self.dists = None  # against the next rung: the max over shared t of (u, v, theta, W12)

    def sample(self, ev):
        fields = np.stack((ev.u, ev.v, ev.theta))
        for r in self.ladder[max(self.i - 1, 0):self.i] + self.ladder[self.i + 1:self.i + 2]:
            t, theirs = r.latest
            if t == ev.t:
                if r.i < self.i:
                    r.compare(theirs, fields)
                else:
                    self.compare(fields, theirs)
        self.latest = ev.t, fields

    def compare(self, fa, fb) -> None:  # samples as rows u, v, theta
        new = np.abs(fa - fb).max(axis=1).tolist() + [w12_distance(fa[2], fb[2], self.grid)]
        # a running max(): a value replaces the one before only if it is greater
        self.dists = new if self.dists is None else [
            x if x > y else y for x, y in zip(new, self.dists)]


def eps_cascade(scenario: Scenario, eps_ladder, scheme: dyn.SchemeConfig | None = None) -> CascadeReport:
    """Run the scenario with data mollified at each rung of the ladder and
    measure sup-norm distances between consecutive solutions.

    All runs share the grid, the fixed step size (an adaptive scheme is a
    ConfigError: its rungs would not share sample times) and the sampling
    cadence.  The rungs are the members of one :func:`dynamics.simulate`
    batch, compared as they run at every sample while they step in
    lockstep; each rung holds one sample.  A run that halts early is
    compared no further, and one that leaves the batch on a failed step
    only where a later sample falls on a neighbour's final sample time.
    An aborted rung ends the ladder.  The report flags Cauchy behavior per
    field: each consecutive distance smaller than the previous one.
    """
    eps_ladder = tuple(float(e) for e in eps_ladder)
    if not eps_ladder:
        raise ConfigError("eps ladder needs at least one rung")
    if any(b >= a for a, b in zip(eps_ladder, eps_ladder[1:])):
        raise ConfigError("eps ladder must be strictly decreasing")
    if any(not (0.0 < e < 1.0) for e in eps_ladder):
        raise ConfigError("eps values must lie in (0, 1)")
    scheme = scheme or scenario.scheme
    if scheme.adaptive:
        raise ConfigError("the eps ladder needs a fixed dt: adaptive rungs share no sample times")

    grid_ = scenario.make_grid()
    base = scenario.make_data(grid_)
    data = [mollify(base, eps, grid_) for eps in eps_ladder]
    ladder: list[_Rung] = []
    ladder.extend(_Rung(ladder, i, grid_) for i in range(len(data)))
    trajs = dyn.simulate([scenario.laws] * len(data), scenario.a, grid_, data, scenario.t_end,
                         scheme, [scenario.monitors] * len(data), rows=False,
                         recorders=[(r,) for r in ladder])
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


def eta_cascade(A: np.ndarray, gsrc: np.ndarray, a: float, grid_: g.Grid1D,
                v0: np.ndarray, u0: np.ndarray, etas, t_end: float, dt: float,
                cfg: dyn.SchemeConfig | None = None) -> EtaCascadeReport:
    """Run the triangular system for each eta and against the eta = 0
    reference, tracking  y(t) = int (v_eta - v)^2 + a int (u_eta - u)_x^2.

    Returns the sup-in-time of y per eta and the fitted log-log slope of
    sup y against eta.
    """
    etas = tuple(float(e) for e in etas)
    if any(e <= 0 for e in etas):
        raise ConfigError("eta ladder must be positive; the reference eta=0 is implicit")
    if len(set(etas)) < 2:
        raise ConfigError("eta ladder needs two distinct etas to fit a slope")
    cfg = cfg or dyn.SchemeConfig(dt_initial=dt, dt_max=dt)
    nsteps = max(1, int(round(t_end / dt)))
    dt = t_end / nsteps

    rows = len(etas) + 1  # row 0 is the reference
    st = dyn.EtaState(t=0.0, v_eta=np.tile(v0, (rows, 1)), u_eta=np.tile(u0, (rows, 1)),
                      eta=np.array((0.0,) + etas))
    y_max = np.zeros(len(etas))
    for step in range(nsteps + 1):
        if step:
            st = dyn.step_eta(st, A, gsrc, a, grid_, cfg, dt)
        dv = st.v_eta[1:] - st.v_eta[0]
        du_mid = g.gradient_mid(st.u_eta[1:] - st.u_eta[0], grid_)
        y = g.integrate(dv ** 2, grid_) + a * (du_mid ** 2).sum(axis=-1) * grid_.dx
        y_max = np.where(y > y_max, y, y_max)  # max(): a value replaces it only if greater
    sup_y = y_max.tolist()

    slope = float(np.polyfit(np.log(np.asarray(etas)), np.log(np.maximum(sup_y, 1e-300)), 1)[0])
    return EtaCascadeReport(etas=etas, sup_y=tuple(sup_y), slope=slope)
