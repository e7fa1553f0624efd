import tracemalloc
import weakref

import numpy as np
import pytest
from dataclasses import replace

from viscowave import diagnostics as diag
from viscowave import dynamics as dyn
from viscowave import grid as g
from viscowave import material as mat
from viscowave import scenarios as sc
from viscowave.errors import ConfigError, DomainError, StepError

import reference

CONST_LAWS = mat.MaterialLaws(gamma_family="constant", f_family="zero", gamma0=1.0)
LINEAR_LAWS = mat.MaterialLaws(gamma_family="constant", f_family="linear", gamma0=1.0, K_f=1.0)


def make_grid(n=65, L=1.0):
    return g.Grid1D(L, n)


def zero_state(grid_, theta=0.0):
    n = grid_.n
    return dyn.State(t=0.0, u=np.zeros(n), v=np.zeros(n), theta=np.full(n, theta))


def cfg_for(dt, scheme="imex_be", **kw):
    return dyn.SchemeConfig(dt_initial=dt, dt_max=dt, scheme=scheme, **kw)


def mech_energy(state, a, grid_):
    b = diag.energy(state, a, grid_)
    return b.kinetic + b.elastic


# --------------------------------------------------------------------------
# the stepper's spatial operators
# --------------------------------------------------------------------------

SMOOTH_LAWS = mat.MaterialLaws(gamma_family="saturating", f_family="linear",
                               gamma0=1.0, delta=0.1, K_f=1.0, alpha=1.0)


def smooth_fields(grid_):
    """Smooth fields with pinned u, v and flat theta ends, with the exact
    derivatives the nodal forms need."""
    x, w = grid_.nodes, np.pi
    v, vx, vxx = 0.3 * np.sin(2 * w * x), 0.6 * w * np.cos(2 * w * x), -1.2 * w * w * np.sin(2 * w * x)
    uxx = -w * w * np.sin(w * x)
    theta, thx = 1.0 + 0.5 * np.cos(w * x), -0.5 * w * np.sin(w * x)
    return dict(u=np.sin(w * x), v=v, vx=vx, vxx=vxx, uxx=uxx, theta=theta, thx=thx)


def operator_errors(n, a=1.7):
    """Interior max errors of the stepper's heat source and velocity
    operator against the nodal forms gamma v_x^2 - f v_x and
    (gamma v_x)_x + a u_xx - f_x, evaluated exactly."""
    grid_ = make_grid(n)
    fl = smooth_fields(grid_)
    gam = mat.eval_gamma(SMOOTH_LAWS, fl["theta"])
    f = mat.eval_f(SMOOTH_LAWS, fl["theta"])
    gam_mid = 0.5 * (gam[1:] + gam[:-1])
    heat = dyn._heat_source(fl["v"], f, gam_mid, grid_)
    heat_exact = gam * fl["vx"] ** 2 - f * fl["vx"]
    ev = diag.StateEval(dyn.State(0.0, fl["u"], fl["v"], fl["theta"]), grid_)
    vel = g.div_flux(gam, fl["v"], grid_) + a * ev.uxx - g.d1(f, grid_)
    vel_exact = (mat.eval_gamma_prime(SMOOTH_LAWS, fl["theta"]) * fl["thx"] * fl["vx"]
                 + gam * fl["vxx"] + a * fl["uxx"]
                 - mat.eval_f_prime(SMOOTH_LAWS, fl["theta"]) * fl["thx"])
    return (np.max(np.abs(heat - heat_exact)[1:-1]), np.max(np.abs(vel - vel_exact)[1:-1]))


def test_stepper_operators_match_the_nodal_forms_to_second_order():
    coarse, fine = operator_errors(65), operator_errors(129)
    assert max(fine) < 5e-3
    for e_coarse, e_fine in zip(coarse, fine):
        assert np.log2(e_coarse / e_fine) > 1.9


def test_stepper_operators_vanish_on_the_rest_state():
    grid_ = make_grid()
    state = zero_state(grid_, theta=2.0)
    ev = diag.StateEval(state, grid_)
    gam, f = ev.material(LINEAR_LAWS)
    gam_mid = 0.5 * (gam[1:] + gam[:-1])
    assert np.all(dyn._heat_source(state.v, f, gam_mid, grid_) == 0.0)
    assert np.all(g.div_flux(gam, state.v, grid_) == 0.0)
    assert np.all(ev.uxx == 0.0) and np.all(ev.thxx == 0.0) and np.all(g.d1(f, grid_) == 0.0)
    new, clamped = dyn.step_with_count(ev, LINEAR_LAWS, 1.0, grid_, cfg_for(1e-2), 1e-2)
    assert np.all(new.u == 0.0) and np.all(new.v == 0.0) and clamped == 0
    assert new.theta == pytest.approx(state.theta, abs=1e-12)


def test_stepper_operators_on_a_heat_cosine():
    grid_ = make_grid(129)
    x = grid_.nodes
    theta = 1.0 + np.cos(np.pi * x)
    ev = diag.StateEval(dyn.State(0.0, np.zeros(grid_.n), np.zeros(grid_.n), theta), grid_)
    assert ev.thxx == pytest.approx(-np.pi ** 2 * np.cos(np.pi * x), abs=2e-3)
    # at rest the heat source is zero and the velocity only feels the coupling gradient
    gam, f = ev.material(LINEAR_LAWS)
    gam_mid = 0.5 * (gam[1:] + gam[:-1])
    assert np.all(dyn._heat_source(ev.v, f, gam_mid, grid_) == 0.0)
    assert -g.d1(f, grid_)[1:-1] == pytest.approx(np.pi * np.sin(np.pi * x[1:-1]), abs=2e-3)


def test_stepper_d2u_on_a_quadratic_displacement():
    grid_ = make_grid()
    x = grid_.nodes
    state = dyn.State(0.0, x * (1.0 - x), np.zeros(grid_.n), np.zeros(grid_.n))
    a = 1.7
    ev = diag.StateEval(state, grid_)
    assert a * ev.uxx == pytest.approx(-2.0 * a * np.ones(grid_.n), rel=1e-10)
    new, _ = dyn.step_with_count(ev, CONST_LAWS, a, grid_, cfg_for(1e-3), 1e-3)
    assert new.v[0] == new.v[-1] == new.u[0] == new.u[-1] == 0.0
    assert np.all(new.v[1:-1] < 0.0)  # the elastic force a u_xx = -2a pulls the string back
    assert np.array_equal(new.u[1:-1], state.u[1:-1] + 1e-3 * new.v[1:-1])


def test_step_rejects_bad_a():
    grid_ = make_grid()
    for a in (-1.0, 0.0):
        with pytest.raises(DomainError):
            dyn.step_with_count(zero_state(grid_), CONST_LAWS, a, grid_, cfg_for(1e-3), 1e-3)


# --------------------------------------------------------------------------
# step
# --------------------------------------------------------------------------


@pytest.mark.parametrize("scheme", ["imex_be", "imex_cn"])
def test_step_stationary_fixed_point(scheme):
    grid_ = make_grid()
    state = zero_state(grid_, theta=3.0)
    for dt in (1e-4, 1e-2, 0.5):
        new, _ = dyn.step_with_count(state, CONST_LAWS, 1.0, grid_, cfg_for(dt, scheme), dt)
        assert np.all(new.u == 0.0) and np.all(new.v == 0.0)
        assert new.theta == pytest.approx(np.full(grid_.n, 3.0), rel=1e-13)


@pytest.mark.parametrize("scheme,tol", [("imex_be", 6e-3), ("imex_cn", 5e-4)])
def test_step_decoupled_heat_eigenmode(scheme, tol):
    # theta0 = 1 + cos(pi x); closed form 1 + e^{-pi^2 t} cos(pi x)
    grid_ = make_grid(129)
    x = grid_.nodes
    state = dyn.State(0.0, np.zeros(grid_.n), np.zeros(grid_.n), 1.0 + np.cos(np.pi * x))
    dt, T = 1e-3, 0.1
    cfg = cfg_for(dt, scheme)
    for _ in range(round(T / dt)):
        state, _ = dyn.step_with_count(state, CONST_LAWS, 1.0, grid_, cfg, dt)
    exact = 1.0 + np.exp(-np.pi ** 2 * T) * np.cos(np.pi * x)
    assert np.max(np.abs(state.theta - exact)) < tol


@pytest.mark.parametrize("scheme", ["imex_be", "imex_cn"])
def test_damped_wave_mechanical_energy_monotone(scheme):
    grid_ = make_grid(65)
    x = grid_.nodes
    v0 = np.sin(np.pi * x)
    v0[0] = v0[-1] = 0.0
    state = dyn.State(0.0, np.zeros(grid_.n), v0, np.zeros(grid_.n))
    cfg = cfg_for(2e-3, scheme)
    prev_e = mech_energy(state, 1.0, grid_)
    for _ in range(100):
        state, _ = dyn.step_with_count(state, CONST_LAWS, 1.0, grid_, cfg, 2e-3)
        e = mech_energy(state, 1.0, grid_)
        assert e <= prev_e + 1e-13
        prev_e = e


@pytest.mark.parametrize("scheme", ["imex_be", "imex_cn"])
def test_boundary_values_exact_after_steps(scheme):
    grid_ = make_grid(33)
    x = grid_.nodes
    v0 = 0.7 * np.sin(2 * np.pi * x)
    v0[0] = v0[-1] = 0.0
    laws = mat.MaterialLaws(gamma_family="saturating", f_family="linear",
                            gamma0=1.0, delta=0.1, K_f=1.0, alpha=1.0)
    state = dyn.State(0.0, np.zeros(grid_.n), v0, np.ones(grid_.n))
    cfg = cfg_for(1e-3, scheme)
    for _ in range(50):
        state, _ = dyn.step_with_count(state, laws, 1.0, grid_, cfg, 1e-3)
        assert state.u[0] == 0.0 and state.u[-1] == 0.0
        assert state.v[0] == 0.0 and state.v[-1] == 0.0


@pytest.mark.parametrize("scheme", ["imex_be", "imex_cn"])
def test_pure_heat_mass_exactly_conserved(scheme):
    grid_ = make_grid(65)
    rng = np.random.default_rng(2)
    theta0 = 1.0 + rng.random(grid_.n)
    state = dyn.State(0.0, np.zeros(grid_.n), np.zeros(grid_.n), theta0)
    mass0 = g.integrate(state.theta, grid_)
    cfg = cfg_for(5e-3, scheme)
    for _ in range(40):
        state, _ = dyn.step_with_count(state, CONST_LAWS, 1.0, grid_, cfg, 5e-3)
    assert g.integrate(state.theta, grid_) == pytest.approx(mass0, rel=1e-13)


def test_energy_defect_is_first_order_and_signed():
    # backward Euler loses energy monotonically; halving dt halves the loss
    grid_ = make_grid(65)
    laws = mat.MaterialLaws(gamma_family="saturating", f_family="linear",
                            gamma0=1.0, delta=0.1, K_f=1.0, alpha=1.0)
    x = grid_.nodes
    v0 = 0.5 * np.sin(np.pi * x)
    v0[0] = v0[-1] = 0.0
    data = mat.InitialData(u0=np.zeros(grid_.n), v0=v0, theta0=1.0 + 0.25 * np.cos(np.pi * x))
    drifts = []
    for dt in (1e-3, 5e-4):
        traj = dyn.simulate(laws, 1.0, grid_, data, 0.5, cfg_for(dt, "imex_be"))
        drifts.append(traj.rows[-1].drift)
    assert drifts[0] < 0 and drifts[1] < 0
    assert drifts[0] / drifts[1] == pytest.approx(2.0, abs=0.2)


def test_damped_wave_matches_fine_grid_reference():
    # no closed form once the viscosity couples modes; the oracle is a run
    # at quadrupled resolution in space and eighth-step time
    def damped(n, dt, T=0.25):
        grid_ = make_grid(n)
        x = grid_.nodes
        v0 = np.sin(np.pi * x)
        v0[0] = v0[-1] = 0.0
        data = mat.InitialData(u0=np.zeros(n), v0=v0, theta0=np.zeros(n))
        return dyn.simulate(CONST_LAWS, 1.0, grid_, data, T, cfg_for(dt, "imex_cn"))

    coarse = damped(33, 2e-3)
    fine = damped(129, 2.5e-4)
    sel = slice(0, 129, 4)  # fine nodes coincide with coarse ones
    assert np.max(np.abs(coarse.final_state.u - fine.final_state.u[sel])) < 2e-4
    assert np.max(np.abs(coarse.final_state.v - fine.final_state.v[sel])) < 5e-4


def test_trapezoidal_scheme_conserves_energy_to_roundoff():
    grid_ = make_grid(65)
    laws = mat.MaterialLaws(gamma_family="saturating", f_family="linear",
                            gamma0=1.0, delta=0.1, K_f=1.0, alpha=1.0)
    x = grid_.nodes
    v0 = 0.5 * np.sin(np.pi * x)
    v0[0] = v0[-1] = 0.0
    data = mat.InitialData(u0=np.zeros(grid_.n), v0=v0, theta0=1.0 + 0.25 * np.cos(np.pi * x))
    traj = dyn.simulate(laws, 1.0, grid_, data, 0.5, cfg_for(1e-3, "imex_cn"))
    assert traj.max_drift < 1e-10


def test_a_run_without_rows_has_no_max_drift():
    scen = replace(sc.battery_scenario("coupled"), t_end=0.01)
    bare = dyn.run(scen, rows=False)
    assert bare.steps_taken == 10 and bare.rows == []
    assert bare.max_drift is None and bare.monitors is None
    assert dyn.run(scen).max_drift > 0.0  # imex_be: a float, not roundoff


def test_a_nan_drift_mid_run_makes_max_drift_nan():
    # max() over floats skips a NaN that is not first (max([1.0, nan, 2.0])
    # is 2.0); the reduction of the drift column does not
    traj = dyn.run(replace(sc.battery_scenario("coupled"), t_end=0.01))
    finite = traj.max_drift
    traj.rows.values[5, diag.DIAG_COLUMNS.index("drift")] = np.nan
    assert len(traj.rows) == 11 and np.isnan(traj.rows[5].drift)
    assert np.isfinite(finite) and np.isnan(traj.max_drift)


def test_step_argument_checks():
    grid_ = make_grid()
    state = zero_state(grid_)
    with pytest.raises(DomainError):
        dyn.step_with_count(state, CONST_LAWS, 1.0, grid_, cfg_for(1e-3), -1e-3)
    with pytest.raises(ConfigError):
        dyn.step_with_count(dyn.State(0.0, np.zeros(5), np.zeros(5), np.zeros(5)),
                            CONST_LAWS, 1.0, grid_, cfg_for(1e-3), 1e-3)


def test_step_needs_four_nodes():
    with pytest.raises(ConfigError):
        grid_ = make_grid(3)
        dyn.step_with_count(zero_state(grid_), CONST_LAWS, 1.0, grid_, cfg_for(1e-3), 1e-3)


# --------------------------------------------------------------------------
# the stepper reads its second differences from the per-state cache
# --------------------------------------------------------------------------


def _inline_stencil_step(state, laws, a, grid_, cfg, dt):
    """step_with_count without forcing, with the second differences of u and
    v written out inline as the stepper computed them before it read them
    from a StateEval.  Returns (state, clamped) under clamp_and_count."""
    n = grid_.n
    dx2 = grid_.dx ** 2
    theta = np.maximum(state.theta, 0.0)
    gam = np.asarray(mat.eval_gamma(laws, theta))
    f_old = np.asarray(mat.eval_f(laws, theta))
    gam_mid = 0.5 * (gam[1:] + gam[:-1])
    d2u = (state.u[2:] - 2.0 * state.u[1:-1] + state.u[:-2]) / dx2
    dfdx = (f_old[2:] - f_old[:-2]) / (2.0 * grid_.dx)
    if cfg.scheme == "imex_be":
        src = state.v[1:-1] + dt * (a * d2u - dfdx)
        v_new = dyn._solve_v_stage(src, gam_mid, a, grid_, dt, 1.0)
        u_new = state.u + dt * v_new
        rhs_theta = state.theta + dt * (dyn._heat_source(v_new, f_old, gam_mid, grid_) + np.zeros(n))
        theta_new = dyn._solve_theta_stage(rhs_theta, grid_, dt, 1.0)
    else:
        lgam_v = g.div_flux(gam, state.v, grid_)[1:-1]
        d2v = (state.v[2:] - 2.0 * state.v[1:-1] + state.v[:-2]) / dx2
        src = state.v[1:-1] + 0.5 * dt * lgam_v + dt * a * d2u \
            + 0.25 * a * dt * dt * d2v - dt * dfdx
        v_new = dyn._solve_v_stage(src, gam_mid, a, grid_, dt, 0.5)
        u_new = state.u + 0.5 * dt * (state.v + v_new)
        v_used = 0.5 * (state.v + v_new)
        d2th = g.d2(state.theta, grid_, g.BcKind.NEUMANN_BOTH)
        rhs_theta = state.theta + 0.5 * dt * d2th \
            + dt * (dyn._heat_source(v_used, f_old, gam_mid, grid_) + np.zeros(n))
        theta_new = dyn._solve_theta_stage(rhs_theta, grid_, dt, 0.5)
    v_new[0] = v_new[-1] = 0.0
    u_new[0] = u_new[-1] = 0.0
    mask = theta_new < 0.0
    return (dyn.State(t=state.t + dt, u=u_new, v=v_new, theta=np.where(mask, 0.0, theta_new)),
            int(np.count_nonzero(mask)))


def _rough_coupled_state(grid_, seed):
    rng = np.random.default_rng(seed)
    data = sc.gen_coupled_smooth(grid_)
    u = data.u0 + 1e-3 * rng.standard_normal(grid_.n)
    v = data.v0 + 1e-2 * rng.standard_normal(grid_.n)
    u[0] = u[-1] = v[0] = v[-1] = 0.0
    theta = np.abs(data.theta0 + 1e-2 * rng.standard_normal(grid_.n))
    return dyn.State(t=0.25, u=u, v=v, theta=theta)


@pytest.mark.parametrize("scheme", ["imex_be", "imex_cn"])
@pytest.mark.parametrize("cached", [False, True])
def test_step_is_bitwise_the_inline_stencil_step(scheme, cached):
    for n, seed in ((33, 0), (129, 1), (513, 2)):
        grid_ = make_grid(n)
        state = _rough_coupled_state(grid_, seed)
        cfg = cfg_for(1e-3, scheme)
        want, want_clamped = _inline_stencil_step(state, COUPLED_LAWS, 1.0, grid_, cfg, 1e-3)
        arg = state
        if cached:
            arg = diag.StateEval(state, grid_)
            arg.uxx, arg.vxx, arg.thxx  # filled before the step, as a sampled state's are
        got, clamped = dyn.step_with_count(arg, COUPLED_LAWS, 1.0, grid_, cfg, 1e-3)
        assert got.t == want.t and clamped == want_clamped
        for name in ("u", "v", "theta"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), (n, name)


@pytest.mark.parametrize("scheme", ["imex_be", "imex_cn"])
def test_step_leaves_its_stencils_for_the_accumulators(scheme):
    grid_ = make_grid(65)
    ev = diag.StateEval(_rough_coupled_state(grid_, 3), grid_)
    dyn.step_with_count(ev, COUPLED_LAWS, 1.0, grid_, cfg_for(1e-3, scheme), 1e-3)
    cached = {"uxx"} | ({"vxx", "thxx"} if scheme == "imex_cn" else set())
    assert cached <= set(vars(ev))
    for name in cached:
        assert getattr(ev, name) is vars(ev)[name]


# --------------------------------------------------------------------------
# positivity policies
# --------------------------------------------------------------------------


def _spike_setup(n=65):
    grid_ = make_grid(n)
    theta0 = np.zeros(n)
    theta0[n // 2] = 1.0
    data = mat.InitialData(u0=np.zeros(n), v0=np.zeros(n), theta0=theta0)
    dt = 10.0 * grid_.dx ** 2  # trapezoidal heat overshoots on a spike at this step
    return grid_, data, dt


def test_clamp_policy_counts_and_clamps():
    grid_, data, dt = _spike_setup()
    cfg = cfg_for(dt, "imex_cn", positivity_policy="clamp_and_count")
    traj = dyn.simulate(CONST_LAWS, 1.0, grid_, data, 20 * dt, cfg)
    assert traj.clamp_total > 0
    assert min(r.min_theta for r in traj.rows) >= 0.0
    assert 0.0 < traj.clamp_fraction() < 1.0


def test_reject_policy_raises_with_suggestion():
    grid_, data, dt = _spike_setup()
    cfg = cfg_for(dt, "imex_cn", positivity_policy="reject_step")
    state = dyn.State(0.0, data.u0, data.v0, data.theta0)
    with pytest.raises(StepError) as exc_info:
        dyn.step_with_count(state, CONST_LAWS, 1.0, grid_, cfg, dt)
    assert exc_info.value.suggested_dt == pytest.approx(dt / 2)


def test_reject_policy_retries_inside_simulate():
    grid_, data, dt = _spike_setup()
    cfg = cfg_for(dt, "imex_cn", positivity_policy="reject_step")
    traj = dyn.simulate(CONST_LAWS, 1.0, grid_, data, 20 * dt, cfg)
    assert traj.status == "completed"
    assert min(r.min_theta for r in traj.rows) >= -dyn.POSITIVITY_TOLERANCE


def test_viscous_heating_preserves_positivity_without_clamps():
    # f == 0: the only temperature source is the nonnegative dissipation
    grid_ = make_grid(65)
    x = grid_.nodes
    v0 = np.sin(np.pi * x)
    v0[0] = v0[-1] = 0.0
    data = mat.InitialData(u0=np.zeros(grid_.n), v0=v0, theta0=np.zeros(grid_.n))
    traj = dyn.simulate(CONST_LAWS, 1.0, grid_, data, 0.2, cfg_for(1e-3, "imex_be"))
    assert traj.clamp_total == 0
    assert min(r.min_theta for r in traj.rows) >= 0.0


# --------------------------------------------------------------------------
# adapt_dt
# --------------------------------------------------------------------------


def test_adapt_dt_zero_state_returns_dt_max():
    grid_ = make_grid()
    cfg = dyn.SchemeConfig(dt_initial=1e-3, dt_max=0.25)
    assert dyn.adapt_dt(zero_state(grid_), CONST_LAWS, grid_, cfg) == 0.25


def test_adapt_dt_cfl_formula(monkeypatch):
    grid_ = g.Grid1D(1.0, 101)  # dx = 0.01
    n = grid_.n
    v = np.zeros(n)
    v[n // 2] = 10.0
    state = dyn.State(0.0, np.zeros(n), v, np.zeros(n))
    monkeypatch.setattr(dyn, "CFL_SAFETY", 0.5)
    cfg = dyn.SchemeConfig(dt_initial=1e-3, dt_max=10.0)
    assert dyn.adapt_dt(state, CONST_LAWS, grid_, cfg) == pytest.approx(5e-4)


def test_adapt_dt_clamped_by_dt_max():
    grid_ = g.Grid1D(1.0, 101)
    n = grid_.n
    v = np.zeros(n)
    v[n // 2] = 10.0
    state = dyn.State(0.0, np.zeros(n), v, np.zeros(n))
    cfg = dyn.SchemeConfig(dt_initial=1e-6, dt_max=1e-6)
    assert dyn.adapt_dt(state, CONST_LAWS, grid_, cfg) == 1e-6


def _adapt_dt_differentiating(state, laws, grid_, cfg):
    """adapt_dt as it was: on the plain state, with its own d1 of v."""
    state = getattr(state, "state", state)
    dt = cfg.dt_max
    vmax = float(np.max(np.abs(state.v)))
    if vmax > 0.0:
        dt = min(dt, dyn.CFL_SAFETY * grid_.dx / max(1.0, vmax))
    theta = np.maximum(state.theta, 0.0)
    vx = g.d1(state.v, grid_)
    lip = float(np.max(
        np.abs(np.asarray(mat.eval_f_prime(laws, theta))) * np.abs(vx)
        + np.abs(np.asarray(mat.eval_gamma_prime(laws, theta))) * vx ** 2
    ))
    if lip > 0.0:
        dt = min(dt, dyn.CFL_SAFETY / lip)
    return max(dt, 1e-14)


def test_the_heat_operator_is_rebuilt_only_when_its_key_changes(monkeypatch):
    # an adaptive run whose clipped last step changes dt: the stepper keeps
    # the last (n, r) operator, read-only, and builds one for each new key
    scen = sc.battery_scenario("coupled")
    grid_ = scen.make_grid()
    cfg = replace(scen.scheme, adaptive=True, dt_initial=1e-2, dt_max=1e-2)
    built, solved = [], []
    neumann, solve = dyn.tridiag.neumann, dyn._solve_theta_stage
    monkeypatch.setattr(dyn.tridiag, "neumann", lambda n, r: built.append(r) or neumann(n, r))
    monkeypatch.setattr(dyn, "_solve_theta_stage", lambda rhs_, grid_arg, dt, w: (
        solved.append(w * dt / grid_arg.dx ** 2) or solve(rhs_, grid_arg, dt, w)))
    dyn._heat_operator.cache_clear()
    traj = dyn.simulate(scen.laws, scen.a, grid_, scen.make_data(grid_), 0.2, cfg, scen.monitors)
    assert traj.steps_taken == len(solved) == 29
    assert built == [r for i, r in enumerate(solved) if i == 0 or r != solved[i - 1]]
    assert len(built) == 2
    op = dyn._heat_operator(grid_.n, solved[-1])
    assert not any(w.flags.writeable for w in (op.lower, op.diag, op.upper))


def test_adaptive_run_reads_vx_from_the_state_eval(monkeypatch):
    # in blocks of one state, the accumulators read that state's own v_x,
    # which adapt_dt has cached (a stacked block differentiates its rows once)
    scen = sc.battery_scenario("coupled")
    grid_ = scen.make_grid()
    cfg = replace(scen.scheme, adaptive=True)

    def counted_run():
        calls = []
        d1 = g.d1
        with monkeypatch.context() as m:
            m.setattr(diag, "BLOCK_VALUES", 1)
            m.setattr(g, "d1", lambda w, grid_arg, **kw: calls.append(1) or d1(w, grid_arg, **kw))
            traj = dyn.simulate(scen.laws, scen.a, grid_, scen.make_data(grid_), 0.1, cfg,
                                scen.monitors)
        return traj, len(calls)

    traj, calls = counted_run()
    monkeypatch.setattr(dyn, "adapt_dt", _adapt_dt_differentiating)
    ref, ref_calls = counted_run()
    assert traj.steps_taken == ref.steps_taken == 100
    assert ref_calls - calls == 100
    assert [t.hex() for t in traj.times] == [t.hex() for t in ref.times]
    assert [repr(r) for r in traj.rows] == [repr(r) for r in ref.rows]
    for name in ("u", "v", "theta"):
        assert getattr(traj.final_state, name).tobytes() == getattr(ref.final_state, name).tobytes()


# --------------------------------------------------------------------------
# eta-regularized triangular system
# --------------------------------------------------------------------------


def test_step_eta_zero_data_stays_zero():
    grid_ = make_grid()
    n = grid_.n
    A = np.full(n, 1.3)
    for eta in (0.0, 1e-2):
        st = dyn.EtaState(0.0, np.zeros(n), np.zeros(n), eta)
        out = dyn.step_eta(st, A, np.zeros(n), 1.0, grid_, 1e-3)
        assert np.all(out.v_eta == 0.0) and np.all(out.u_eta == 0.0)


def test_step_eta_zero_eta_matches_backward_update():
    grid_ = make_grid(33)
    n = grid_.n
    x = grid_.nodes
    A = np.full(n, 2.0)
    v0 = np.sin(np.pi * x)
    v0[0] = v0[-1] = 0.0
    st = dyn.EtaState(0.0, v0, np.zeros(n), 0.0)
    dt = 1e-3
    out = dyn.step_eta(st, A, np.zeros(n), 1.0, grid_, dt)
    assert out.u_eta == pytest.approx(dt * out.v_eta, rel=1e-14)


def test_step_eta_requires_positive_coefficient():
    grid_ = make_grid()
    n = grid_.n
    A = np.ones(n)
    A[3] = -0.1
    st = dyn.EtaState(0.0, np.zeros(n), np.zeros(n), 0.0)
    with pytest.raises(DomainError):
        dyn.step_eta(st, A, np.zeros(n), 1.0, grid_, 1e-3)


def eta_batch(n, etas, seed=0):
    """A batch of random eta states on n nodes (signed zeros at the ends of
    some rows) and the coefficient fields of the triangular system."""
    grid_ = make_grid(n)
    x = grid_.nodes
    rng = np.random.default_rng(seed)
    v, u = rng.standard_normal((2, len(etas), n))
    v[:, 0] = v[:, -1] = u[:, 0] = 0.0
    u[1::2, -1] = v[::2, 0] = -0.0
    A, gsrc = 1.0 + 0.3 * np.sin(np.pi * x), 0.5 * np.sin(np.pi * x)
    return grid_, dyn.EtaState(0.0, v, u, np.array(etas)), A, gsrc


@pytest.mark.parametrize("n", [33, 129])
def test_batched_step_eta_gives_each_row_its_own_step(n):
    grid_, batch, A, gsrc = eta_batch(n, [0.0, 1e-1, 1e-3, 0.0, 1e-2])
    solos = [dyn.EtaState(0.0, batch.v_eta[i], batch.u_eta[i], float(e))
             for i, e in enumerate(batch.eta)]
    for dt in (1e-3, 5e-4, 1e-3):
        batch = dyn.step_eta(batch, A, gsrc, 1.3, grid_, dt)
        solos = [dyn.step_eta(st, A, gsrc, 1.3, grid_, dt) for st in solos]
        for i, solo in enumerate(solos):
            assert batch.v_eta[i].tobytes() == solo.v_eta.tobytes()
            assert batch.u_eta[i].tobytes() == solo.u_eta.tobytes()
            assert solo.t == batch.t
    # the eta = 0 rows took the backward update
    assert np.array_equal(batch.eta, [0.0, 1e-1, 1e-3, 0.0, 1e-2])


# --------------------------------------------------------------------------
# simulate bookkeeping
# --------------------------------------------------------------------------


def test_run_rejects_laws_outside_the_hypotheses(monkeypatch):
    # a linear coupling grows like (xi + 1)^1, over the bound K_f (xi + 1)^0.8:
    # dyn.run refuses it, alone or in an ensemble, before it steps
    coupled = sc.battery_scenario("coupled")
    assert coupled.laws.f_family == "linear"
    bad = replace(coupled, laws=replace(coupled.laws, alpha=0.8), t_end=0.01)
    monkeypatch.setattr(dyn, "simulate", lambda *a, **k: pytest.fail("simulate was called"))
    for arg in (bad, [replace(coupled, t_end=0.01), bad]):
        with pytest.raises(ConfigError, match="f_growth_bound"):
            dyn.run(arg)


def test_simulate_hits_horizon_and_cadence():
    grid_ = make_grid(33)
    data = mat.InitialData(u0=np.zeros(33), v0=np.zeros(33), theta0=np.ones(33))
    mon = diag.MonitorConfig(cadence=5)
    traj = dyn.simulate(CONST_LAWS, 1.0, grid_, data, 0.0203, cfg_for(1e-3), mon)
    assert traj.times[-1] == pytest.approx(0.0203, rel=1e-12)
    assert traj.steps_taken == 21  # 20 full steps + 1 clipped remainder
    assert len(traj.times) == 1 + 5  # t=0 plus every 5th step plus clipped final
    assert traj.status == "completed"


def test_simulate_monitors_accumulate():
    grid_ = make_grid(33)
    data = mat.InitialData(u0=np.zeros(33), v0=np.zeros(33), theta0=np.ones(33))
    traj = dyn.simulate(CONST_LAWS, 1.0, grid_, data, 0.01, cfg_for(1e-3))
    # theta == 1 throughout: (theta+1)^{4 alpha} = 2^4 = 16 over unit interval
    assert traj.monitors.cum_theta_pow == pytest.approx(16.0 * 0.01, rel=1e-12)


def test_blowup_halt_on_forced_growth():
    # inject a runaway manufactured heat source; detector must stop the run
    grid_ = make_grid(33)
    data = mat.InitialData(u0=np.zeros(33), v0=np.zeros(33), theta0=np.ones(33))
    forcing = dyn.Forcing(
        fv=lambda x, t: np.zeros_like(x),
        ftheta=lambda x, t: 40.0 * np.exp(8.0 * t) * np.ones_like(x),
    )
    mon = diag.MonitorConfig(blowup_threshold=50.0, blowup_window=4, blowup_rate_min=0.01)
    traj = dyn.simulate(CONST_LAWS, 1.0, grid_, data, 2.0, cfg_for(1e-2), mon, forcing)
    assert traj.status == "blowup_halt"
    assert traj.blowup is not None and traj.blowup.fired
    assert traj.times[-1] < 2.0


# --------------------------------------------------------------------------
# simulate's rows against the per-state oracle (tests/reference.py)
# --------------------------------------------------------------------------

COUPLED_LAWS = mat.MaterialLaws(gamma_family="saturating", f_family="linear",
                                gamma0=1.0, delta=0.1, K_f=1.0, alpha=1.0)


def replay(laws, a, grid_, data, t_end, cfg, mon, forcing=None):
    """simulate's loop at fixed dt, with every diagnostic recomputed from a
    plain State by the per-state oracle (``reference``) and the blow-up slope taken by
    np.polyfit.  A failed step ends the run, as an abort: its last accepted
    state is sampled if it was not.  The instantaneous monitors are those of
    the final state.  Returns (rows, monitors, steps, t_fire)."""
    state = dyn.State(t=0.0, u=data.u0, v=data.v0, theta=data.theta0)
    e0 = diag.energy(state, a, grid_).total
    monitors = diag.TheoryMonitors()
    rows = [reference.make_row(state, a, grid_, monitors, mon.q, e0, 0.0, 0)]
    clamp_total = steps = since = 0
    eps_end = 1e-12 * max(t_end, 1.0)
    win = mon.blowup_window
    left = t_fire = None
    while state.t < t_end - eps_end:
        dt = min(cfg.dt_initial, t_end - state.t)
        prev = state
        try:
            state, clamped = dyn.step_with_count(prev, laws, a, grid_, cfg, dt, forcing)
        except StepError:
            if since:
                z_res = reference.z_residual(left, prev, laws, a, mon.kappa, grid_)
                rows.append(reference.make_row(prev, a, grid_, monitors, mon.q, e0, z_res, clamp_total))
            state = prev
            break
        left = prev
        monitors = reference.accumulate_monitors(monitors, prev, dt, laws.alpha, grid_)
        clamp_total += clamped
        steps += 1
        since += 1
        if since >= mon.cadence or state.t >= t_end - eps_end:
            z_res = reference.z_residual(prev, state, laws, a, mon.kappa, grid_)
            rows.append(reference.make_row(state, a, grid_, monitors, mon.q, e0, z_res, clamp_total))
            since = 0
            if len(rows) >= win:
                tail = np.array([r.w12_theta for r in rows[-win:]])
                rate = np.polyfit(np.arange(win, dtype=float), np.log(np.maximum(tail, 1e-300)), 1)[0]
                if tail[-1] > mon.blowup_threshold and rate > mon.blowup_rate_min:
                    t_fire = state.t
                    break
    final = replace(monitors, **reference.instantaneous_monitors(state, mon.q, grid_))
    return rows, final, steps, t_fire


@pytest.mark.parametrize("cadence,scheme", [(1, "imex_be"), (3, "imex_cn")])
def test_simulate_diagnostics_equal_per_function_replay(cadence, scheme):
    # t_end = 0.0213 at dt = 1e-3: 21 full steps and a clipped final step,
    # which at cadence 3 is sampled off the cadence
    grid_ = make_grid(33)
    data = sc.gen_coupled_smooth(grid_)
    mon = diag.MonitorConfig(q=2.5, kappa=1.5, cadence=cadence)
    cfg = cfg_for(1e-3, scheme)
    traj = dyn.simulate(COUPLED_LAWS, 1.0, grid_, data, 0.0213, cfg, mon)
    rows, monitors, steps, _ = replay(COUPLED_LAWS, 1.0, grid_, data, 0.0213, cfg, mon)
    assert traj.status == "completed" and traj.steps_taken == steps == 22
    assert len(traj.rows) == (23 if cadence == 1 else 9)
    assert traj.rows == rows
    assert traj.monitors == monitors
    assert [r.t for r in rows] == traj.times


POWER_LAWS = mat.MaterialLaws(gamma_family="saturating", f_family="power",
                              gamma0=1.0, delta=0.2, K_f=0.5, alpha=1.45)


@pytest.mark.parametrize("laws,cadence,scheme,q,size", [
    (COUPLED_LAWS, 1, "imex_be", 2.5, 124),
    (COUPLED_LAWS, 3, "imex_cn", 2.5, 124),
    (POWER_LAWS, 2, "imex_cn", 2.3, 124),  # non-integer exponents 4 alpha = 5.8 and q
    (POWER_LAWS, 3, "imex_cn", 2.3, 1),
], ids=["cadence1_be", "cadence3_cn", "power_law", "blocks_of_one"])
def test_rows_across_blocks_equal_per_function_replay(laws, cadence, scheme, q, size, monkeypatch):
    # a block holds 124 states at n = 33; 320 full steps and a clipped final
    # one cross two block boundaries, and the last sample is off the cadence.
    # A budget of one value makes every block one state's own StateEval
    grid_ = make_grid(33)
    if size == 1:
        monkeypatch.setattr(diag, "BLOCK_VALUES", 1)
    assert diag.block_size(33) == size
    data = sc.gen_coupled_smooth(grid_)
    mon = diag.MonitorConfig(q=q, kappa=1.5, cadence=cadence)
    cfg = cfg_for(1e-3, scheme)
    traj = dyn.simulate(laws, 1.0, grid_, data, 0.3205, cfg, mon)
    rows, monitors, steps, _ = replay(laws, 1.0, grid_, data, 0.3205, cfg, mon)
    assert traj.status == "completed" and traj.steps_taken == steps == 321
    assert len(rows) == 1 + -(-321 // cadence)
    assert [repr(r) for r in traj.rows] == [repr(r) for r in rows]
    assert repr(traj.monitors) == repr(monitors)
    assert [r.t for r in rows] == traj.times


@pytest.mark.parametrize("case", ["aborted", "blowup_halt"])
def test_an_abort_or_halt_mid_block_equals_per_function_replay(case):
    # the abort after 200 steps (cadence 3: its last state sampled off the
    # cadence) and the halt after 149 fall in the second block of 124 states
    grid_ = make_grid(33)
    if case == "aborted":
        laws, data, forcing = COUPLED_LAWS, sc.gen_coupled_smooth(grid_), _nan_after(0.2005)
        mon, cfg, t_end, steps = diag.MonitorConfig(q=2.5, cadence=3), cfg_for(1e-3), 0.3, 200
    else:
        laws, data, forcing, mon = CONST_LAWS, *_forced_growth()[1:]
        cfg, t_end, steps = cfg_for(2e-3), 2.0, 149
    traj = dyn.simulate(laws, 1.0, grid_, data, t_end, cfg, mon, forcing)
    rows, monitors, replayed, t_fire = replay(laws, 1.0, grid_, data, t_end, cfg, mon, forcing)
    assert traj.status == case and traj.steps_taken == replayed == steps
    assert (traj.blowup.t_fire if traj.blowup else None) == t_fire
    assert [repr(r) for r in traj.rows] == [repr(r) for r in rows]
    assert repr(traj.monitors) == repr(monitors)


def test_blowup_halt_fires_where_polyfit_detector_fired():
    # the forced-growth case of test_blowup_halt_on_forced_growth
    grid_ = make_grid(33)
    data = mat.InitialData(u0=np.zeros(33), v0=np.zeros(33), theta0=np.ones(33))
    forcing = dyn.Forcing(
        fv=lambda x, t: np.zeros_like(x),
        ftheta=lambda x, t: 40.0 * np.exp(8.0 * t) * np.ones_like(x),
    )
    mon = diag.MonitorConfig(blowup_threshold=50.0, blowup_window=4, blowup_rate_min=0.01)
    cfg = cfg_for(1e-2)
    traj = dyn.simulate(CONST_LAWS, 1.0, grid_, data, 2.0, cfg, mon, forcing)
    rows, monitors, steps, t_fire = replay(CONST_LAWS, 1.0, grid_, data, 2.0, cfg, mon, forcing)
    assert t_fire is not None
    assert traj.status == "blowup_halt"
    assert traj.blowup.t_fire == t_fire
    assert traj.steps_taken == steps
    assert traj.rows == rows
    assert traj.monitors == monitors


INSTANTANEOUS = ("l2_vx", "l2_uxx", "l2_thetax", "lq_value", "w12_theta")


def _nan_after(t_bad):
    """Velocity forcing that turns non-finite once t exceeds ``t_bad``."""
    return dyn.Forcing(
        fv=lambda x, t: np.full_like(x, np.nan) if t > t_bad else np.zeros_like(x),
        ftheta=lambda x, t: np.zeros_like(x),
    )


@pytest.mark.parametrize("case", ["completed", "aborted", "blowup_halt"])
def test_monitors_final_are_the_last_rows_instantaneous_values(case):
    grid_ = make_grid(33)
    mon = diag.MonitorConfig(q=2.5)
    if case == "blowup_halt":
        # the forced-growth case of test_blowup_halt_on_forced_growth
        data = mat.InitialData(u0=np.zeros(33), v0=np.zeros(33), theta0=np.ones(33))
        forcing = dyn.Forcing(
            fv=lambda x, t: np.zeros_like(x),
            ftheta=lambda x, t: 40.0 * np.exp(8.0 * t) * np.ones_like(x),
        )
        mon = diag.MonitorConfig(q=2.5, blowup_threshold=50.0, blowup_window=4,
                                 blowup_rate_min=0.01)
        traj = dyn.simulate(CONST_LAWS, 1.0, grid_, data, 2.0, cfg_for(1e-2), mon, forcing)
    else:
        data = sc.gen_coupled_smooth(grid_)
        forcing = _nan_after(0.0105) if case == "aborted" else None
        traj = dyn.simulate(COUPLED_LAWS, 1.0, grid_, data, 0.0213, cfg_for(1e-3), mon, forcing)
    assert traj.status == case
    assert traj.steps_taken == {"completed": 22, "aborted": 10}.get(case, traj.steps_taken)
    last = traj.rows[-1]
    assert last.t == traj.final_state.t
    assert {k: getattr(traj.monitors, k) for k in INSTANTANEOUS} \
        == {k: getattr(last, k) for k in INSTANTANEOUS}
    assert traj.monitors.cum_vx4 == last.cum_vx4


def test_aborted_run_records_its_last_accepted_state_off_the_cadence():
    grid_ = make_grid(33)
    data = sc.gen_coupled_smooth(grid_)
    every, third = (dyn.simulate(COUPLED_LAWS, 1.0, grid_, data, 0.0213, cfg_for(1e-3),
                                 diag.MonitorConfig(q=2.5, cadence=cadence), _nan_after(0.0105))
                    for cadence in (1, 3))
    assert every.status == third.status == "aborted"
    assert third.steps_taken == 10
    # samples at steps 0, 3, 6 and 9, then step 10, the last accepted state
    assert third.rows == every.rows[::3] + every.rows[-1:]
    assert np.array_equal(third.final_state.u, every.final_state.u)
    assert third.monitors == every.monitors


# --------------------------------------------------------------------------
# recorders
# --------------------------------------------------------------------------


def _forced_growth():
    """The forced-growth case of test_blowup_halt_on_forced_growth."""
    grid_ = make_grid(33)
    data = mat.InitialData(u0=np.zeros(33), v0=np.zeros(33), theta0=np.ones(33))
    forcing = dyn.Forcing(
        fv=lambda x, t: np.zeros_like(x),
        ftheta=lambda x, t: 40.0 * np.exp(8.0 * t) * np.ones_like(x),
    )
    mon = diag.MonitorConfig(blowup_threshold=50.0, blowup_window=4, blowup_rate_min=0.01)
    return grid_, data, forcing, mon


def test_blowup_halt_is_the_same_with_only_snapshots():
    grid_, data, forcing, mon = _forced_growth()
    with_rows = dyn.simulate(CONST_LAWS, 1.0, grid_, data, 2.0, cfg_for(1e-2), mon, forcing)
    snaps = dyn.Snapshots()
    bare = dyn.simulate(CONST_LAWS, 1.0, grid_, data, 2.0, cfg_for(1e-2), mon, forcing,
                        rows=False, recorders=[snaps])
    assert with_rows.status == bare.status == "blowup_halt"
    assert bare.blowup == with_rows.blowup
    assert bare.blowup.t_fire == with_rows.blowup.t_fire
    assert bare.steps_taken == with_rows.steps_taken
    assert bare.times == with_rows.times
    assert bare.rows == [] and bare.monitors is None
    assert [s.t for s in snaps.states] == bare.times
    assert snaps.states[0] is bare.initial_state and snaps.states[-1] is bare.final_state
    assert np.array_equal(bare.final_state.theta, with_rows.final_state.theta)


@pytest.mark.parametrize("case,status", [("blowup", "blowup_halt"), ("cadence3_cn", "completed")])
def test_run_without_rows_integrates_twice_per_sample(case, status, monkeypatch):
    # the detector needs only the W^{1,2} norm: int theta^2 and int theta_x^2
    if case == "blowup":
        grid_, data, forcing, mon = _forced_growth()
        laws, t_end, cfg = CONST_LAWS, 2.0, cfg_for(1e-2)
    else:
        grid_ = make_grid(33)
        data, forcing = sc.gen_coupled_smooth(grid_), None
        mon = diag.MonitorConfig(cadence=3)
        laws, t_end, cfg = COUPLED_LAWS, 0.0213, cfg_for(1e-3, "imex_cn")
    with_rows = dyn.simulate(laws, 1.0, grid_, data, t_end, cfg, mon, forcing)
    calls = []
    integrate = g.integrate

    def counting(w, grid_arg):
        calls.append(1)
        return integrate(w, grid_arg)

    monkeypatch.setattr(g, "integrate", counting)
    bare = dyn.simulate(laws, 1.0, grid_, data, t_end, cfg, mon, forcing, rows=False)
    assert bare.status == with_rows.status == status
    assert bare.blowup == with_rows.blowup
    assert bare.times == with_rows.times
    if case == "cadence3_cn":
        assert len(bare.times) == 9 and bare.steps_taken == 22
    # two for E0 (kinetic and thermal parts), then two per sample
    assert len(calls) == 2 + 2 * len(bare.times)


@pytest.mark.parametrize("cadence,scheme", [(1, "imex_be"), (3, "imex_cn")])
def test_run_with_rows_integrates_each_integrand_once_per_block(cadence, scheme, monkeypatch):
    # two calls for E0, two per sample for the detector, and one per
    # integrand of a block, each over all the block's rows: four for the
    # accumulators and six for the rows.  301 states at n = 33 make three
    # blocks of at most 124 states
    grid_ = make_grid(33)
    calls, blocks = [], []
    integrate, flush = g.integrate, diag.Rows.flush

    def counting(w, grid_arg, **kw):
        calls.append(1)
        return integrate(w, grid_arg, **kw)

    def flushing(rows):
        if rows._states:  # a flush with nothing noted evaluates no block
            blocks.append(len(rows._states))
        flush(rows)

    monkeypatch.setattr(g, "integrate", counting)
    monkeypatch.setattr(diag.Rows, "flush", flushing)
    traj = dyn.simulate(COUPLED_LAWS, 1.0, grid_, sc.gen_coupled_smooth(grid_), 0.3,
                        cfg_for(1e-3, scheme), diag.MonitorConfig(cadence=cadence))
    assert traj.steps_taken == 300 and len(traj.rows) == len(traj.times) == 1 + 300 // cadence
    assert blocks == [124, 124, 53]
    assert max(blocks) == diag.block_size(grid_.n)
    assert len(calls) == 2 + 2 * len(traj.times) + (len(diag.CUMULATIVE) + 6) * len(blocks)


class _Counting(dyn.Recorder):
    def __init__(self):
        self.samples = []

    def sample(self, ev):
        self.samples.append(ev.t)


def test_recorder_hooks_see_every_step_and_every_sample():
    # 21 full steps and a clipped one at cadence 3: samples at steps
    # 0, 3, ..., 21 and the clipped final step
    grid_ = make_grid(33)
    data = sc.gen_coupled_smooth(grid_)
    rec = _Counting()
    traj = dyn.simulate(LINEAR_LAWS, 1.0, grid_, data, 0.0213, cfg_for(1e-3),
                        diag.MonitorConfig(cadence=3), recorders=[rec])
    assert traj.steps_taken == 22
    assert rec.samples == traj.times
    assert rec.samples == pytest.approx([3e-3 * k for k in range(8)] + [0.0213], abs=1e-15)
    assert len(traj.rows) == len(traj.times)


def _states_left_alive(monkeypatch, **kw):
    """Run the coupled case at cadence 1 and return how many of the states
    made by the stepper are still referenced once simulate has returned."""
    refs = []
    real = dyn.step_with_count

    def tracked(*args, **kwargs):
        state, clamped = real(*args, **kwargs)
        refs.append(weakref.ref(state))
        return state, clamped

    monkeypatch.setattr(dyn, "step_with_count", tracked)
    grid_ = make_grid(65)
    traj = dyn.simulate(LINEAR_LAWS, 1.0, grid_, sc.gen_coupled_smooth(grid_), 0.05,
                        cfg_for(1e-3), **kw)
    alive = [r() for r in refs if r() is not None]
    return traj, alive


def test_default_simulate_releases_every_intermediate_state(monkeypatch):
    traj, alive = _states_left_alive(monkeypatch)
    assert traj.steps_taken == 50 and len(traj.rows) == 51
    assert len(alive) == 1 and alive[0] is traj.final_state
    snaps = dyn.Snapshots()
    _, alive = _states_left_alive(monkeypatch, recorders=[snaps])
    assert len(alive) == 50  # the check sees states a recorder keeps


def test_default_simulate_memory_is_bounded_in_the_run_length():
    n, steps = 513, 2000
    grid_ = make_grid(n)
    data = sc.gen_coupled_smooth(grid_)
    tracemalloc.start()
    try:
        traj = dyn.simulate(LINEAR_LAWS, 1.0, grid_, data, steps * 5e-4, cfg_for(5e-4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    samples = len(traj.times)
    assert traj.status == "completed" and traj.steps_taken == steps and samples == steps + 1
    held_states = samples * 3 * n * 8  # ~24.6 MB if every sampled state were kept
    assert peak < held_states / 8, (peak, held_states)
