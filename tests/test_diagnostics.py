import math
from dataclasses import astuple, replace

import numpy as np
import pytest

from viscowave import diagnostics as diag
from viscowave import dynamics as dyn
from viscowave import grid as g
from viscowave import material as mat
from viscowave.errors import ConfigError, DomainError

import reference

CONST_LAWS = mat.MaterialLaws(gamma_family="constant", f_family="zero", gamma0=1.0)


def make_grid(n=101, L=1.0):
    return g.Grid1D(L, n)


def state_of(grid_, u=None, v=None, theta=None, t=0.0):
    n = grid_.n
    z = np.zeros(n)
    return dyn.State(t=t, u=z if u is None else u, v=z.copy() if v is None else v,
                     theta=z.copy() if theta is None else theta)


# --------------------------------------------------------------------------
# energy budget
# --------------------------------------------------------------------------


def test_energy_zero_state():
    grid_ = make_grid()
    b = diag.energy(state_of(grid_), 1.0, grid_)
    assert (b.kinetic, b.elastic, b.thermal, b.total) == (0.0, 0.0, 0.0, 0.0)


def test_energy_closed_form_components():
    grid_ = make_grid(101)
    x = grid_.nodes
    b = diag.energy(state_of(grid_, u=x * (1 - x), theta=np.ones(101)), 2.0, grid_)
    assert b.elastic == pytest.approx(1.0 / 3.0, abs=2e-4)  # (a/2) int (1-2x)^2
    assert b.thermal == pytest.approx(1.0, rel=1e-14)
    assert b.total == b.kinetic + b.elastic + b.thermal


def test_energy_single_hat_kinetic():
    grid_ = make_grid(101)
    v = np.zeros(101)
    v[50] = 3.0
    b = diag.energy(state_of(grid_, v=v), 1.0, grid_)
    # trapezoid of the squared hat: h^2 * dx
    assert b.kinetic == pytest.approx(0.5 * 9.0 * grid_.dx, rel=1e-13)


# --------------------------------------------------------------------------
# Lq balance
# --------------------------------------------------------------------------


def test_lq_balance_constant_theta():
    grid_ = make_grid(65)
    x = grid_.nodes
    v = np.sin(2 * np.pi * x)
    v[0] = v[-1] = 0.0
    c = 1.5
    state = state_of(grid_, v=v, theta=np.full(65, c))
    q = 2.5
    out = diag.lq_balance(state, CONST_LAWS, q, grid_)
    assert out.dissipation == 0.0
    assert out.coupling_loss == 0.0
    vx = g.d1(v, grid_)
    expected = q * (c + 1.0) ** (q - 1.0) * g.integrate(1.0 * vx ** 2, grid_)
    assert out.viscous_gain == pytest.approx(expected, rel=1e-12)
    assert out.lhs_rate == pytest.approx(expected, rel=1e-12)


def test_lq_balance_pure_diffusion_decays():
    grid_ = make_grid(65)
    x = grid_.nodes
    state = state_of(grid_, theta=1.0 + 0.5 * np.cos(np.pi * x))
    out = diag.lq_balance(state, CONST_LAWS, 2.0, grid_)
    assert out.viscous_gain == 0.0
    assert out.coupling_loss == 0.0
    assert out.lhs_rate == -out.dissipation
    assert out.lhs_rate < 0.0


def test_lq_balance_requires_q_above_one():
    grid_ = make_grid(33)
    with pytest.raises(DomainError):
        diag.lq_balance(state_of(grid_), CONST_LAWS, 1.0, grid_)


def test_lq_rate_matches_trajectory_finite_difference():
    laws = mat.MaterialLaws(gamma_family="saturating", f_family="linear",
                            gamma0=1.0, delta=0.1, K_f=1.0, alpha=1.0)
    grid_ = make_grid(65)
    x = grid_.nodes
    v0 = 0.5 * np.sin(np.pi * x)
    v0[0] = v0[-1] = 0.0
    data = mat.InitialData(u0=np.zeros(65), v0=v0, theta0=1.0 + 0.25 * np.cos(np.pi * x))
    cfg = dyn.SchemeConfig(dt_initial=5e-4, dt_max=5e-4, scheme="imex_be")
    snaps = dyn.Snapshots()
    traj = dyn.simulate(laws, 1.0, grid_, data, 0.25, cfg, recorders=[snaps])
    ts = np.array(traj.times)
    lq = np.array([r.lq_value for r in traj.rows])
    rates = np.array([diag.lq_balance(st, laws, 2.0, grid_).lhs_rate for st in snaps.states])
    fd = (lq[2:] - lq[:-2]) / (ts[2:] - ts[:-2])
    rel = np.linalg.norm(fd - rates[1:-1]) / np.linalg.norm(rates[1:-1])
    assert rel < 0.03


# --------------------------------------------------------------------------
# damped antiderivative transform
# --------------------------------------------------------------------------


def test_z_transform_zero_velocity():
    grid_ = make_grid()
    z, V = reference.z_transform(state_of(grid_), 1.0, grid_)
    assert np.all(z == 0.0) and np.all(V == 0.0)


def test_z_transform_sine_closed_form():
    grid_ = make_grid(101)
    x = grid_.nodes
    L = grid_.length
    v = np.sin(np.pi * x / L)
    v[0] = v[-1] = 0.0
    state = state_of(grid_, v=v)
    z, V = reference.z_transform(state, 0.7, grid_)
    exact = (L / np.pi) * (1.0 - np.cos(np.pi * x / L))
    assert V == pytest.approx(exact, abs=1e-4)
    assert z[0] == 0.0 and V[0] == 0.0
    assert np.array_equal(z, V)  # t = 0: damping factor is 1
    # right-end slope of V equals v(L) = 0 up to stencil error
    assert abs(g.d1(V, grid_)[-1]) < 1e-3


def test_z_transform_time_damping_is_scalar():
    grid_ = make_grid(41)
    x = grid_.nodes
    v = np.sin(np.pi * x)
    v[0] = v[-1] = 0.0
    z1, V1 = reference.z_transform(state_of(grid_, v=v, t=1.0), 1.0, grid_)
    assert z1 == pytest.approx(math.exp(-1.0) * V1, rel=1e-14)


def test_z_residual_zero_trajectory():
    grid_ = make_grid()
    s0 = state_of(grid_, t=0.0)
    s1 = state_of(grid_, t=1e-3)
    assert reference.z_residual(s0, s1, CONST_LAWS, 1.0, 1.0, grid_) == 0.0


@pytest.mark.parametrize("batch", [False, True])
def test_left_end_flux_reads_the_cached_material(batch, monkeypatch):
    # the residual's source and its left-end flux gamma v_x + a u_x - f at
    # node 0 take the (gamma, f) the sampled state already holds for these
    # laws: the step's own, not a second evaluation
    grid_ = make_grid(33)
    x = grid_.nodes
    laws = [mat.MaterialLaws(gamma_family="saturating", f_family="power", delta=0.3,
                             K_f=0.7, alpha=1.45),
            mat.MaterialLaws(gamma_family="constant", f_family="linear", gamma0=2.0, K_f=0.4)]
    kappas, qs = [1.5, 0.7], [2.0, 2.5]
    u = np.outer([0.2, -0.1], np.sin(np.pi * x))
    v = np.outer([0.5, 0.3], np.sin(2 * np.pi * x))
    theta = np.outer([1.0, 0.5], 1.3 + np.cos(np.pi * x))
    states = [dyn.State(0.1, u, v, theta), dyn.State(0.101, 1.01 * u, 0.9 * v, theta + 0.02 * u)]
    members = range(2 if batch else 1)
    expect = [reference.z_residual(*(dyn.State(s.t, s.u[i], s.v[i], s.theta[i]) for s in states),
                                   laws[i], 1.5, kappas[i], grid_) for i in members]
    if batch:
        rows = diag.Rows(mat.LawRows(laws), 1.5, grid_, np.array([qs]).T, np.array([kappas]).T,
                         np.zeros(2), members=2)
    else:
        states = [dyn.State(s.t, s.u[0], s.v[0], s.theta[0]) for s in states]
        rows = diag.Rows(laws[0], 1.5, grid_, qs[0], kappas[0], 0.0)
    left, ev = (diag.StateEval(s, grid_) for s in states)
    ev.material(rows.laws)
    for name in ("eval_gamma", "eval_f"):
        monkeypatch.setattr(mat, name, lambda *a: pytest.fail("laws evaluated again"))
    monkeypatch.setattr(mat.LawRows, "evaluate", lambda *a: pytest.fail("laws evaluated again"))
    rows.step(left, 1e-3)
    rows.sample(left, ev, [0, 0] if batch else 0)
    rows.flush()
    assert [own[-1].z_residual for own in rows.rows] == expect


def synthetic_eigen_state(grid_, t, gamma0=1.0):
    # v = e^{-gamma0 mu t} cos(sqrt(mu) x) makes z = e^{-(kappa+gamma0 mu)t} V
    # an exact solution of the damped transformed problem with zero source.
    mu = (np.pi / (2.0 * grid_.length)) ** 2
    v = np.exp(-gamma0 * mu * t) * np.cos(np.sqrt(mu) * grid_.nodes)
    n = grid_.n
    return dyn.State(t=t, u=np.zeros(n), v=v, theta=np.zeros(n))


def test_z_residual_frozen_eigenmode_refines():
    res = []
    for n, dt in ((65, 2e-3), (129, 1e-3)):
        grid_ = make_grid(n)
        r = reference.z_residual(synthetic_eigen_state(grid_, 0.1),
                            synthetic_eigen_state(grid_, 0.1 + dt),
                            CONST_LAWS, 0.0, kappa=1.0, grid_=grid_)
        res.append(r)
    assert res[0] < 5e-3
    assert res[1] < 0.6 * res[0]


def test_z_residual_decreases_on_simulated_runs():
    laws = mat.MaterialLaws(gamma_family="saturating", f_family="linear",
                            gamma0=1.0, delta=0.1, K_f=1.0, alpha=1.0)
    norms = []
    for n, dt in ((33, 2e-3), (65, 1e-3)):
        grid_ = make_grid(n)
        x = grid_.nodes
        v0 = 0.5 * np.sin(np.pi * x)
        v0[0] = v0[-1] = 0.0
        data = mat.InitialData(u0=np.zeros(n), v0=v0, theta0=1.0 + 0.25 * np.cos(np.pi * x))
        cfg = dyn.SchemeConfig(dt_initial=dt, dt_max=dt, scheme="imex_be")
        traj = dyn.simulate(laws, 1.0, grid_, data, 0.1, cfg)
        norms.append(max(r.z_residual for r in traj.rows[1:]))
    assert norms[1] < 0.55 * norms[0]  # observed order >= 1 under joint halving


# --------------------------------------------------------------------------
# maximal-regularity estimator
# --------------------------------------------------------------------------

EIGEN_RATIO = 0.10131594298788985  # (1 - e^{-4 lam}) / (4 lam), lam = (pi/2)^2


def test_estimate_K_eigenmode_matches_closed_form():
    grid_ = make_grid(129)
    est = diag.estimate_K(4.0, 1.0, trials=1, grid_=grid_, T=1.0)
    assert est.ratios[0] == pytest.approx(EIGEN_RATIO, rel=0.02)


def test_estimate_K_nondecreasing_in_trials():
    grid_ = make_grid(65)
    ks = [diag.estimate_K(4.0, 1.0, m, grid_, 1.0).K for m in range(1, 6)]
    assert all(b >= a for a, b in zip(ks, ks[1:]))


def test_estimate_K_deterministic_for_seed():
    # estimate_K takes no seed: its trials are fixed modes, so two calls agree
    grid_ = make_grid(65)
    a = diag.estimate_K(4.0, 1.0, 4, grid_, 1.0)
    b = diag.estimate_K(4.0, 1.0, 4, grid_, 1.0)
    assert a.ratios == b.ratios


def _steady_mode_ratio(k: int, D: float, T: float, L: float, p: int = 4) -> float:
    """R_k = (1 / (T D^p)) int_0^T (1 - e^{-D mu_k^2 t})^p dt, mu_k = (k + 1/2) pi / L,
    integrated term by term from the binomial expansion."""
    rate = D * ((k + 0.5) * math.pi / L) ** 2
    integral = T + sum(math.comb(p, j) * (-1) ** j * -math.expm1(-j * rate * T) / (j * rate)
                       for j in range(1, p + 1))
    return integral / (T * D ** p)


def test_estimate_K_steady_trials_match_the_closed_form_below_D_to_the_minus_p():
    # 17 trials: steady forcing by modes k = 0 ... 15, at the default dt,
    # which resolves mode 15 (at dt = T / 512 the march read 1.0038 there,
    # against the closed form 0.9991)
    est = diag.estimate_K(4.0, 1.0, 17, make_grid(129), 1.0)
    steady = est.ratios[1:]
    assert len(steady) == 16
    for k, ratio in enumerate(steady):
        assert ratio == pytest.approx(_steady_mode_ratio(k, 1.0, 1.0, 1.0), rel=1e-4, abs=0.0), k
        assert ratio < 1.0, k
    assert est.K == max(steady)


def test_estimate_K_refuses_a_dt_that_does_not_resolve_its_fastest_mode():
    # the fastest trial forces mode k = 15: D mu^2 = (15.5 pi)^2 = 2371.2; on
    # 129 nodes, which resolve it in space
    grid_ = make_grid(129)
    with pytest.raises(DomainError, match="fastest mode"):
        diag.estimate_K(4.0, 1.0, 17, grid_, 1.0, dt=1.0 / 512)
    with pytest.raises(DomainError, match="fastest mode"):
        diag.estimate_K(4.0, 1.0, 17, grid_, 1.0, dt=1.0 / 2371)
    assert len(diag.estimate_K(4.0, 1.0, 17, grid_, 1.0, dt=1.0 / 2372).ratios) == 17


def test_estimate_K_refuses_a_grid_that_does_not_resolve_its_fastest_mode():
    # mu_max dx <= pi / 4.  On 33 nodes mode 15 (mu dx = 15.5 pi / 32 = 1.52)
    # read 1.54 against D^-p = 1, and mode 8 (0.834) read 0.9992 against its
    # closed form 0.9971; mode 7 (0.736) is the fastest that 33 nodes resolve
    with pytest.raises(DomainError, match="grid must resolve"):
        diag.estimate_K(4.0, 1.0, 17, make_grid(33), 1.0)
    with pytest.raises(DomainError, match="grid must resolve"):
        diag.estimate_K(4.0, 1.0, 10, make_grid(33), 1.0)
    assert max(diag.estimate_K(4.0, 1.0, 9, make_grid(33), 1.0).ratios) < 1.0
    assert len(diag.estimate_K(4.0, 1.0, 17, make_grid(129), 1.0).ratios) == 17


def test_estimate_K_argument_checks():
    grid_ = make_grid(33)
    with pytest.raises(DomainError):
        diag.estimate_K(4.0, 1.0, 0, grid_, 1.0)
    with pytest.raises(DomainError):
        diag.estimate_K(0.5, 1.0, 1, grid_, 1.0)


@pytest.mark.parametrize("bad", [
    {"p": 1.0}, {"p": math.nan}, {"p": math.inf},
    {"D": 0.0}, {"D": math.nan}, {"D": math.inf},
    {"T": 0.0}, {"T": math.nan}, {"T": math.inf},
    {"dt": 0.0}, {"dt": -1e-3}, {"dt": math.nan}, {"dt": math.inf},
    {"dt": 0.7}, {"dt": 5.0}, {"T": 1e300, "dt": 1e-300},
], ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()))
def test_estimate_K_rejects_nonfinite_or_nonpositive_arguments(bad):
    # NaN fails every comparison, and an infinite or non-positive dt or T
    # would still march: each bound must be finite and positive.  A dt that
    # rounds to a step or two resolves nothing (dt = 0.7 at T = 1 gave trial
    # 0's ratio as 0.50006 against the closed form 0.1013), and T / dt must
    # not overflow the step count
    args = {"p": 4.0, "D": 1.0, "trials": 1, "grid_": make_grid(33), "T": 1.0, "dt": None}
    with pytest.raises(DomainError):
        diag.estimate_K(**(args | bad))


def test_estimate_K_needs_K_MIN_STEPS_steps():
    grid_ = make_grid(33)
    steps = diag.K_MIN_STEPS
    assert diag.estimate_K(4.0, 1.0, 1, grid_, 1.0, dt=1.0 / steps).K > 0
    with pytest.raises(DomainError):
        diag.estimate_K(4.0, 1.0, 1, grid_, 1.0, dt=1.0 / (steps - 1))


# --------------------------------------------------------------------------
# theory constants
# --------------------------------------------------------------------------


def test_theory_constants_closed_forms():
    c = diag.theory_constants(1.0, 1.0, 1.0, 1.0)
    assert c.delta_est == pytest.approx(0.17677669529663687, rel=1e-12)  # 1024^{-1/4}
    assert c.kappa_est == pytest.approx(15.119052598738478, rel=1e-12)   # 3456^{1/3}
    assert c.q == 2.0 and c.q_admissible


@pytest.mark.parametrize("K,a,T0", [(1.0, 1.0, 1.0), (0.3, 2.0, 0.5), (7.7, 0.25, 4.0)])
def test_theory_constants_saturate_smallness_relations(K, a, T0):
    c = diag.theory_constants(K, a, T0, 1.2)
    assert 256.0 * K * c.delta_est ** 4 == pytest.approx(0.25, rel=1e-12)
    assert 27.0 * 32.0 * K * a ** 4 * T0 / c.kappa_est ** 3 == pytest.approx(0.25, rel=1e-12)


def test_theory_constants_inadmissible_q():
    c = diag.theory_constants(1.0, 1.0, 1.0, 0.6)
    assert c.q == pytest.approx(0.4)
    assert not c.q_admissible


def test_theory_constants_argument_checks():
    with pytest.raises(DomainError):
        diag.theory_constants(-1.0, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        diag.theory_constants(1.0, 1.0, 1.0, 1.6)


# --------------------------------------------------------------------------
# monitors
# --------------------------------------------------------------------------


def monitors_update(prev, state, dt, q, alpha, grid_):
    """The accumulators advanced by ``dt`` x (integrand at ``state``), and
    the instantaneous monitors at ``state``."""
    return replace(reference.accumulate_monitors(prev, state, dt, alpha, grid_),
                   **reference.instantaneous_monitors(state, q, grid_))


def test_monitors_update_zero_state():
    grid_ = make_grid(65)
    out = monitors_update(diag.TheoryMonitors(), state_of(grid_), 0.01, 2.0, 1.0, grid_)
    assert out.cum_theta_pow == pytest.approx(0.01 * grid_.length, rel=1e-12)
    assert out.lq_value == pytest.approx(grid_.length, rel=1e-12)  # int (0+1)^q
    for name in ("cum_vx4", "cum_thetaxx2", "cum_vxx2", "l2_thetax", "l2_vx", "l2_uxx", "w12_theta"):
        assert getattr(out, name) == 0.0


def test_monitors_cumulative_linear_growth():
    grid_ = make_grid(65)
    x = grid_.nodes
    state = state_of(grid_, theta=1.0 + 0.5 * np.cos(np.pi * x))
    m1 = monitors_update(diag.TheoryMonitors(), state, 0.01, 2.0, 1.0, grid_)
    m2 = monitors_update(m1, state, 0.01, 2.0, 1.0, grid_)
    assert m2.cum_thetaxx2 == pytest.approx(2.0 * m1.cum_thetaxx2, rel=1e-12)
    assert m2.cum_theta_pow == pytest.approx(2.0 * m1.cum_theta_pow, rel=1e-12)
    assert m2.l2_thetax == m1.l2_thetax  # instantaneous, not accumulated


def test_monitors_heat_eigenmode_closed_form():
    # theta = 1 + e^{-lam t} cos(pi x): int_0^T int theta_xx^2 has a closed form
    laws = CONST_LAWS
    grid_ = make_grid(129)
    x = grid_.nodes
    data = mat.InitialData(u0=np.zeros(129), v0=np.zeros(129), theta0=1.0 + np.cos(np.pi * x))
    cfg = dyn.SchemeConfig(dt_initial=5e-4, dt_max=5e-4, scheme="imex_cn")
    T = 0.25
    traj = dyn.simulate(laws, 1.0, grid_, data, T, cfg)
    lam = np.pi ** 2
    exact = np.pi ** 4 * 0.5 * (1.0 - np.exp(-2 * lam * T)) / (2.0 * lam)
    assert traj.monitors.cum_thetaxx2 == pytest.approx(exact, rel=0.02)


def test_monitors_require_positive_dt():
    grid_ = make_grid(33)
    with pytest.raises(DomainError):
        monitors_update(diag.TheoryMonitors(), state_of(grid_), 0.0, 2.0, 1.0, grid_)


def _sign_changing_velocities(n):
    x = np.linspace(0.0, 1.0, n)
    yield np.sin(3 * np.pi * x)
    rng = np.random.default_rng(5)
    for scale in (1e-3, 1.0, 40.0):
        v = scale * rng.standard_normal(n)
        v[0] = v[-1] = 0.0
        yield v


@pytest.mark.parametrize("n", [33, 513])
def test_cum_vx4_on_sign_changing_vx_is_the_integral_of_the_power(n):
    # the accumulator squares twice; the power is the definition
    grid_ = make_grid(n)
    for v in _sign_changing_velocities(n):
        vx = g.d1(v, grid_)
        assert vx.min() < 0.0 < vx.max()
        out = reference.accumulate_monitors(diag.TheoryMonitors(), state_of(grid_, v=v), 0.01, 1.0, grid_)
        assert out.cum_vx4 == pytest.approx(0.01 * g.integrate(vx ** 4, grid_), rel=1e-14, abs=0.0)


def test_state_eval_of_takes_an_equal_grid_and_rejects_another():
    grid_ = make_grid(33)
    ev = diag.StateEval(state_of(grid_, theta=np.ones(33)), grid_)
    assert diag.StateEval.of(ev, grid_) is ev
    assert diag.StateEval.of(ev, g.Grid1D(1.0, 33)) is ev  # equal, another object
    for other in (g.Grid1D(2.0, 33), g.Grid1D(1.0, 65)):
        with pytest.raises(ConfigError):
            diag.StateEval.of(ev, other)


def test_state_eval_w12_theta_is_the_instantaneous_monitor():
    grid_ = make_grid(65)
    x = grid_.nodes
    state = state_of(grid_, v=np.sin(np.pi * x), theta=1.0 + 0.3 * np.cos(2 * np.pi * x))
    ev = diag.StateEval(state, grid_)
    w12, l2_thetax = ev.w12_theta, ev.l2_thetax
    inst = reference.instantaneous_monitors(state, 2.0, grid_)  # fresh, from the plain state
    assert (inst["w12_theta"], inst["l2_thetax"]) == (w12, l2_thetax)
    assert w12 == math.sqrt(g.integrate(state.theta ** 2, grid_) + g.integrate(g.d1(state.theta, grid_) ** 2, grid_))


# --------------------------------------------------------------------------
# blow-up detector
# --------------------------------------------------------------------------


def test_blowup_constant_trace_not_fired():
    rep = diag.blowup_check(np.full(32, 5.0), window=8, threshold=1.0, rate_min=0.1)
    assert not rep.fired
    assert rep.rate == pytest.approx(0.0, abs=1e-12)


def test_blowup_doubling_trace_fires():
    trace = 2.0 ** np.arange(20)
    rep = diag.blowup_check(trace, window=8, threshold=1e3, rate_min=0.5,
                            times=np.arange(20.0))
    assert rep.fired
    assert rep.rate == pytest.approx(math.log(2.0), rel=1e-6)
    assert rep.t_fire == 19.0


def test_blowup_decaying_trace_above_threshold_not_fired():
    trace = 1e6 * 0.5 ** np.arange(16)
    rep = diag.blowup_check(trace, window=8, threshold=1.0, rate_min=0.1)
    assert not rep.fired
    assert rep.rate < 0.0


def test_blowup_argument_checks():
    with pytest.raises(DomainError):
        diag.blowup_check([1.0, 2.0], window=8, threshold=1.0, rate_min=0.1)
    with pytest.raises(DomainError):
        diag.blowup_check([1.0, 2.0, 3.0], window=1, threshold=1.0, rate_min=0.1)


def test_blowup_slope_matches_polyfit():
    rng = np.random.default_rng(7)
    for _ in range(200):
        window = int(rng.integers(2, 41))
        trace = np.exp(rng.normal(0.0, 5.0) + rng.normal(0.0, 3.0, window + int(rng.integers(0, 5))))
        rep = diag.blowup_check(trace, window=window, threshold=1.0, rate_min=0.0)
        ref = np.polyfit(np.arange(window, dtype=float), np.log(trace[-window:]), 1)[0]
        assert rep.rate == pytest.approx(ref, rel=0.0, abs=1e-12)


def test_simulate_keeps_w12_history_bounded(monkeypatch):
    # 300 samples through a window of 4: the history simulate hands the
    # detector is one object that never holds more than the window
    seen = []
    real_check = diag.blowup_check

    def spy(trace, window, *args, **kwargs):
        seen.append((trace, len(trace)))
        return real_check(trace, window, *args, **kwargs)

    monkeypatch.setattr(diag, "blowup_check", spy)
    grid_ = make_grid(17)
    data = mat.InitialData(u0=np.zeros(17), v0=np.zeros(17), theta0=np.ones(17))
    # threshold 0: every full window is checked (the constant trace never fires)
    mon = diag.MonitorConfig(blowup_window=4, blowup_threshold=0.0)
    scheme = dyn.SchemeConfig(dt_initial=1e-3, dt_max=1e-3)
    traj = dyn.simulate(CONST_LAWS, 1.0, grid_, data, 0.3, scheme, mon)
    assert traj.status == "completed" and len(traj.rows) == 301
    assert len(seen) == 301 - 4 + 1
    assert {id(trace) for trace, _ in seen} == {id(seen[0][0])}
    assert {size for _, size in seen} == {4}
    assert len(seen[0][0]) == 4


def test_simulate_skips_the_detector_below_its_threshold(monkeypatch):
    # the detector fires only above its threshold, so a run that stays below
    # it never fits a slope
    calls = []
    real_check = diag.blowup_check

    def spy(*args, **kwargs):
        calls.append(args)
        return real_check(*args, **kwargs)

    monkeypatch.setattr(diag, "blowup_check", spy)
    grid_ = make_grid(17)
    data = mat.InitialData(u0=np.zeros(17), v0=np.zeros(17), theta0=np.ones(17))
    scheme = dyn.SchemeConfig(dt_initial=1e-3, dt_max=1e-3)
    mon = diag.MonitorConfig(blowup_window=4)
    traj = dyn.simulate(CONST_LAWS, 1.0, grid_, data, 0.3, scheme, mon)
    assert traj.status == "completed" and len(traj.rows) == 301
    assert max(r.w12_theta for r in traj.rows) < mon.blowup_threshold
    assert calls == []


# --------------------------------------------------------------------------
# diagnostic rows
# --------------------------------------------------------------------------


def test_make_row_energy_decomposition_exact():
    grid_ = make_grid(65)
    x = grid_.nodes
    v = np.sin(np.pi * x)
    v[0] = v[-1] = 0.0
    state = state_of(grid_, u=x * (1 - x), v=v, theta=1.0 + 0.5 * np.cos(np.pi * x))
    row = reference.make_row(state, 1.0, grid_, diag.TheoryMonitors(), 2.0, 0.0, 0.0, 0)
    assert row.E_total == row.E_kin + row.E_el + row.E_th
    assert row.mass_theta == pytest.approx(row.E_th, rel=1e-14)
    assert len(astuple(row)) == len(diag.DIAG_COLUMNS)


def _reflect_extend(w, grid_):
    """Even extension about x = L onto the doubled interval (0, 2L), on a
    grid with 2n-1 nodes: node L+j*dx carries the value at L-j*dx.  A (B, n)
    batch extends each row."""
    doubled = g.Grid1D(2.0 * grid_.length, 2 * grid_.n - 1)
    return np.concatenate([w, w[..., -2::-1]], axis=-1), doubled


def test_reflect_extend():
    grid101 = make_grid(101)
    w = np.sin(np.pi * grid101.nodes / 2.0)
    ext, dgrid = _reflect_extend(w, grid101)
    assert dgrid.n == 201
    assert dgrid.length == 2.0
    # exact mirror symmetry about x = L
    assert np.array_equal(ext[101:], w[-2::-1])
    assert ext[100] == w[-1]

    const, _ = _reflect_extend(np.ones(101), grid101)
    assert np.all(const == 1.0)

    tent, _ = _reflect_extend(grid101.nodes, grid101)
    assert tent[100] == pytest.approx(1.0)
    assert tent[-1] == pytest.approx(0.0)

    # a batch extends each row
    both, _ = _reflect_extend(np.stack([w, grid101.nodes]), grid101)
    assert np.array_equal(both, [ext, tent])


def _zxx_p(z, grid_, p):
    zxx = g.d2(z[:grid_.n], grid_, g.BcKind.MIXED_LEFT_DIRICHLET_RIGHT_NEUMANN)
    return g.integrate(np.abs(zxx) ** p, grid_)


def _doubled_march(z0, gsrc, D, T, dt, grid_, p):
    """The mixed problem as the Dirichlet problem on the evenly reflected
    doubling of the interval, one trial, a full dgtsv solve at every step."""
    from scipy.linalg import lapack
    zh, dgrid = _reflect_extend(z0, grid_)
    gh, _ = _reflect_extend(gsrc, grid_)
    nsteps = max(1, int(round(T / dt)))
    dt = T / nsteps
    r = 0.5 * dt * D / dgrid.dx ** 2
    diag_ = np.ones(dgrid.n)
    lower, upper = np.zeros(dgrid.n - 1), np.zeros(dgrid.n - 1)
    diag_[1:-1] = 1.0 + 2.0 * r
    lower[:-1] = upper[1:] = -r

    acc = 0.5 * _zxx_p(zh, grid_, p)
    for _ in range(nsteps):
        rhs = zh.copy()
        rhs[1:-1] += r * (zh[2:] - 2.0 * zh[1:-1] + zh[:-2]) + dt * gh[1:-1]
        rhs[0] = rhs[-1] = 0.0
        zh = lapack.dgtsv(lower, diag_, upper, rhs)[3]
        acc += _zxx_p(zh, grid_, p)
    acc -= 0.5 * _zxx_p(zh, grid_, p)
    return acc * dt


def _dgtsv_march(z0, gsrc, D, T, dt, grid_, p):
    """``_solve_mixed_heat`` for one trial on the grid's n nodes, a full
    dgtsv solve at every step: a Dirichlet row at x = 0 and a mirror-ghost
    Neumann row at x = L, whose ghost z[n-2] stands in for the node beyond."""
    from scipy.linalg import lapack
    z = z0
    nsteps = max(1, int(round(T / dt)))
    dt = T / nsteps
    r = 0.5 * dt * D / grid_.dx ** 2
    n = grid_.n
    diag_ = np.full(n, 1.0 + 2.0 * r)
    lower, upper = np.full(n - 1, -r), np.full(n - 1, -r)
    diag_[0], upper[0], lower[-1] = 1.0, 0.0, -2.0 * r

    acc = 0.5 * _zxx_p(z, grid_, p)
    for _ in range(nsteps):
        right = np.append(z[2:], z[-2])
        rhs = z.copy()
        rhs[1:] += r * (right - 2.0 * z[1:] + z[:-1]) + dt * gsrc[1:]
        rhs[0] = 0.0
        z = lapack.dgtsv(lower, diag_, upper, rhs)[3]
        acc += _zxx_p(z, grid_, p)
    acc -= 0.5 * _zxx_p(z, grid_, p)
    return acc * dt


def _per_trial(march):
    """A batched march's reference: each trial marched on its own."""
    return lambda z0, gsrc, *args: np.array([march(z, s, *args) for z, s in zip(z0, gsrc)])


@pytest.mark.parametrize("trials", [1, 4, 8])
@pytest.mark.parametrize("n", [33, 129, 513])
def test_estimate_K_batched_march_is_the_per_trial_dgtsv_march(n, trials, monkeypatch):
    # at n = 513 a row's trapezoid sum (numpy sums pairwise in blocks of 128
    # values) spans several blocks of the march's work array
    grid_ = g.Grid1D(1.0, n)
    batched = diag.estimate_K(4.0, 1.3, trials, grid_, 1.0)
    monkeypatch.setattr(diag, "_solve_mixed_heat", _per_trial(_dgtsv_march))
    ref = diag.estimate_K(4.0, 1.3, trials, grid_, 1.0)
    assert len(batched.ratios) == trials
    assert [r.hex() for r in batched.ratios] == [r.hex() for r in ref.ratios]


@pytest.mark.parametrize("trials", [1, 4, 8])
@pytest.mark.parametrize("n", [33, 129])
def test_estimate_K_march_on_n_nodes_is_the_doubled_grid_march(n, trials, monkeypatch):
    # the same discrete solution, reached through other roundings
    grid_ = g.Grid1D(1.0, n)
    est = diag.estimate_K(4.0, 1.3, trials, grid_, 1.0)
    monkeypatch.setattr(diag, "_solve_mixed_heat", _per_trial(_doubled_march))
    ref = diag.estimate_K(4.0, 1.3, trials, grid_, 1.0)
    assert est.ratios == pytest.approx(ref.ratios, rel=1e-12, abs=0.0)
