from dataclasses import replace

import numpy as np
import pytest

from viscowave import diagnostics as diag
from viscowave import dynamics as dyn
from viscowave import grid as g
from viscowave import material as mat
from viscowave import scenarios as sc
from viscowave import tridiag
from viscowave.errors import ConfigError, DomainError, StepError


def make_grid(n=129, L=1.0):
    return g.Grid1D(L, n)


# --------------------------------------------------------------------------
# manufactured solutions
# --------------------------------------------------------------------------


def test_mms_exponential_fields_at_t0():
    case = sc.mms_case("exponential")
    grid_ = make_grid(65)
    x = grid_.nodes
    assert case.u(x, 0.0) == pytest.approx(np.sin(np.pi * x), rel=1e-14)
    assert case.theta(x, 0.0) == pytest.approx(1.0 + np.cos(np.pi * x), rel=1e-14)
    data = case.initial_data(grid_)
    assert data.u0[0] == data.u0[-1] == 0.0
    assert np.all(data.theta0 >= 0.0)


def test_mms_exponential_forcing_frozen_oracle_values():
    # spot values computed with an independent symbolic oracle before the build
    case = sc.mms_case("exponential")
    fv_mid = float(case.forcing.fv(np.array([0.5]), 0.0)[0])
    assert fv_mid == pytest.approx(1.0 - np.pi - np.pi ** 2 / 20.0, rel=1e-12)
    assert fv_mid == pytest.approx(-2.635072873644261, rel=1e-12)
    assert float(case.forcing.ftheta(np.array([0.5]), 0.0)[0]) == pytest.approx(0.0, abs=1e-13)
    assert float(case.forcing.fv(np.array([0.25]), 0.5)[0]) == pytest.approx(
        -1.198279006450749, rel=1e-10)
    assert float(case.forcing.ftheta(np.array([0.25]), 0.5)[0]) == pytest.approx(
        -0.04343365981103203, rel=1e-10)


def test_mms_unknown_id():
    with pytest.raises(ConfigError):
        sc.mms_case("nope")


def test_the_state_at_rest_is_the_stationary_scenario_not_an_mms_case():
    with pytest.raises(ConfigError, match="unknown MMS case 'stationary'"):
        sc.mms_case("stationary")
    exact = sc.battery_scenario("stationary").exact_fields()
    x = np.linspace(0.0, 1.0, 33)
    assert np.all(exact["u"](x, 1.0) == 0.0)
    assert np.all(exact["v"](x, 1.0) == 0.0)
    assert np.all(exact["theta"](x, 1.0) == 1.0)


def test_mms_backward_euler_temporal_order():
    # fixed fine grid, halved steps: the splitting error is first order
    case = sc.mms_case("exponential")
    grid_ = make_grid(129)
    errs = []
    for dt in (8e-3, 4e-3, 2e-3):
        cfg = dyn.SchemeConfig(dt_initial=dt, dt_max=dt, scheme="imex_be")
        traj = dyn.simulate(case.laws, case.a, grid_, case.initial_data(grid_),
                            0.25, cfg, forcing=case.forcing)
        st = traj.final_state
        errs.append(max(
            float(np.max(np.abs(getattr(st, f) - fn(grid_.nodes, st.t))))
            for f, fn in (("u", case.u), ("v", case.v), ("theta", case.theta))))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(o >= 1.0 for o in orders), (errs, orders)


def test_mms_run_reproduces_exact_fields():
    case = sc.mms_case("exponential")
    grid_ = make_grid(65)
    cfg = dyn.SchemeConfig(dt_initial=2e-4, dt_max=2e-4, scheme="imex_cn")
    traj = dyn.simulate(case.laws, case.a, grid_, case.initial_data(grid_), 0.1,
                        cfg, forcing=case.forcing)
    st = traj.final_state
    assert np.max(np.abs(st.theta - case.theta(grid_.nodes, st.t))) < 2e-3
    assert np.max(np.abs(st.v - case.v(grid_.nodes, st.t))) < 1e-3


# --------------------------------------------------------------------------
# battery
# --------------------------------------------------------------------------


def test_battery_contents():
    battery = sc.builtin_battery()
    assert len(battery) >= 6
    names = [s.name for s in battery]
    assert "stationary" in names
    assert any(s.laws.f_family == "linear" and s.laws.gamma_family == "saturating"
               for s in battery)  # the fully coupled prototype
    assert any(s.laws.alpha == pytest.approx(1.45) for s in battery)
    assert any(s.generator == "corner_theta" for s in battery)  # rough data


def test_battery_all_pass_hypotheses():
    for s in sc.builtin_battery():
        assert mat.validate_hypotheses(s.laws).ok, s.name


def test_battery_scenario_lookup():
    assert sc.battery_scenario("coupled").name == "coupled"
    with pytest.raises(ConfigError):
        sc.battery_scenario("missing")


def test_scenario_exact_fields():
    heat = sc.battery_scenario("heat_eigenmode")
    exact = heat.exact_fields()
    assert set(exact) == {"theta"}
    x = np.linspace(0, 1, 5)
    assert exact["theta"](x, 0.0) == pytest.approx(1.0 + np.cos(np.pi * x))
    assert sc.battery_scenario("coupled").exact_fields() is None
    stationary = sc.battery_scenario("stationary")
    stat = stationary.exact_fields()
    assert np.all(stat["theta"](x, 2.0) == 1.0)
    # each closed form is keyed on what makes it exact, not on the name
    coupling = replace(heat.laws, f_family="linear", K_f=1.0)
    assert replace(heat, laws=coupling).exact_fields() is None
    assert replace(heat, generator="coupled_smooth", gen_params={}).exact_fields() is None
    moving = replace(stationary, generator="heat_eigenmode", gen_params={}).exact_fields()
    assert set(moving) == {"theta"}
    assert moving["theta"](x, 0.0) == pytest.approx(1.0 + np.cos(np.pi * x))
    # an mms case's forcing is built for its own laws, a, L and data: its
    # fields solve no scenario that changes one of them
    case = sc.mms_case("exponential")
    mms = sc.Scenario(name="mms", laws=case.laws, a=1.0, length=1.0, n=33, generator="mms",
                      mms_id="exponential")
    assert set(mms.exact_fields()) == {"u", "v", "theta"} and mms.mms_mismatch() is None
    assert np.array_equal(mms.exact_fields()["u"](x, 0.5), case.u(x, 0.5))
    for other, named in ((replace(mms, laws=replace(case.laws, delta=0.5)), "delta = 0.5"),
                         (replace(mms, a=2.0), "a = 2.0"),
                         (replace(mms, generator="coupled_smooth"), "generator = 'coupled_smooth'"),
                         (replace(mms, length=2.0), "L = 2.0")):
        assert other.exact_fields() is None
        assert named in other.mms_mismatch()
    assert sc.battery_scenario("coupled").mms_mismatch() is None


# --------------------------------------------------------------------------
# mollification
# --------------------------------------------------------------------------


def rough_data(grid_):
    return sc.gen_corner_theta(grid_, base=0.5, amp=1.0)


def test_mollify_eps_domain():
    grid_ = make_grid(65)
    data = rough_data(grid_)
    for eps in (0.0, 1.0, -0.2, 2.0):
        with pytest.raises(DomainError):
            sc.mollify(data, eps, grid_)


def test_mollify_identity_on_band_limited_data():
    grid_ = make_grid(65)
    x = grid_.nodes
    u0 = 0.3 * np.sin(np.pi * x)
    u0[0] = u0[-1] = 0.0
    data = mat.InitialData(u0=u0, v0=np.zeros(65), theta0=1.0 + 0.3 * np.cos(2 * np.pi * x))
    out = sc.mollify(data, 0.2, grid_)  # cutoff flat through k = 2
    assert out.theta0 == pytest.approx(data.theta0, abs=1e-12)
    assert out.u0 == pytest.approx(data.u0, abs=1e-12)


def test_mollify_boundary_compatibility():
    grid_ = make_grid(129)
    out = sc.mollify(rough_data(grid_), 2 ** -4, grid_)
    assert out.u0[0] == out.u0[-1] == 0.0
    assert out.v0[0] == out.v0[-1] == 0.0
    assert np.all(out.theta0 >= 0.0)
    # flat ends: the one-sided slope collapses to stencil truncation,
    # an order dx fraction of the curvature scale
    d2_scale = np.max(np.abs(g.d2(out.theta0, grid_, g.BcKind.NEUMANN_BOTH)))
    for slope in (g.d1(out.theta0, grid_)[0], g.d1(out.theta0, grid_)[-1]):
        assert abs(slope) <= grid_.dx * d2_scale


def test_mollify_distances_monotone_along_ladder():
    grid_ = make_grid(129)
    data = rough_data(grid_)
    ladder = [2.0 ** -k for k in range(1, 7)]
    dists = [sc.w12_distance(sc.mollify(data, eps, grid_).theta0, data.theta0, grid_)
             for eps in ladder]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(dists, dists[1:]))
    assert dists[-1] < 0.25 * dists[0]  # converging, not just monotone


def scipy_fft_mollify(data, eps, grid_):
    """mollify through scipy.fft's own dst/idst/dct/idct, type 1, norm None."""
    import scipy.fft

    def cut(forward, inverse, w, k):
        return inverse(forward(w, type=1) * sc._mode_multiplier(k, eps), type=1)

    def cut_sine(w):
        out = np.zeros_like(w)
        out[1:-1] = cut(scipy.fft.dst, scipy.fft.idst, w[1:-1],
                       np.arange(1, grid_.n - 1, dtype=float))
        return out

    theta = cut(scipy.fft.dct, scipy.fft.idct, data.theta0, np.arange(grid_.n, dtype=float))
    return mat.InitialData(u0=cut_sine(data.u0), v0=cut_sine(data.v0),
                           theta0=np.maximum(theta, 0.0))


@pytest.mark.parametrize("n", [9, 128, 129, 1025])
def test_mollify_bitwise_equals_scipy_fft(n):
    grid_ = make_grid(n)
    rng = np.random.default_rng(n)
    u0, v0 = rng.standard_normal((2, n))
    u0[[0, -1]] = v0[[0, -1]] = 0.0
    for data in (rough_data(grid_), mat.InitialData(u0=u0, v0=v0, theta0=rng.random(n))):
        for eps in (0.9, 0.5, 2 ** -3, 2 ** -6, 1e-3):
            out, ref = sc.mollify(data, eps, grid_), scipy_fft_mollify(data, eps, grid_)
            for name in ("u0", "v0", "theta0"):
                assert getattr(out, name).tobytes() == getattr(ref, name).tobytes(), (eps, name)


def test_mollify_converges_in_w12():
    grid_ = make_grid(257)
    data = rough_data(grid_)
    d_coarse = sc.w12_distance(sc.mollify(data, 2 ** -1, grid_).theta0, data.theta0, grid_)
    d_fine = sc.w12_distance(sc.mollify(data, 2 ** -6, grid_).theta0, data.theta0, grid_)
    assert d_fine < 0.2 * d_coarse


# --------------------------------------------------------------------------
# eps cascade
# --------------------------------------------------------------------------


def test_eps_cascade_smooth_data_gives_zero_distances():
    # band-limited data: the cutoffs act as the identity, runs coincide
    base = sc.battery_scenario("coupled")
    from dataclasses import replace
    quick = replace(base, n=33, t_end=0.02)
    rep = sc.eps_cascade(quick, [0.4, 0.3])
    for vals in rep.sup_dists.values():
        assert all(v < 1e-12 for v in vals)


def test_eps_cascade_single_rung_has_no_pairs():
    base = sc.battery_scenario("rough_theta")
    from dataclasses import replace
    rep = sc.eps_cascade(replace(base, n=33, t_end=0.01), [0.5])
    assert all(len(v) == 0 for v in rep.sup_dists.values())
    assert rep.w12_theta_dists == ()
    assert all(rep.cauchy.values())


def _cascade_from_histories(scenario, eps_ladder, simulate):
    """The eps-cascade report computed from every rung's full snapshot
    history, compared pairwise once all have run, over the prefix where
    both histories have equal sample times."""
    grid_ = scenario.make_grid()
    base = scenario.make_data(grid_)
    runs, statuses, error = [], [], None
    for eps in eps_ladder:
        snaps = dyn.Snapshots()
        traj = simulate(scenario.laws, scenario.a, grid_, sc.mollify(base, eps, grid_),
                        scenario.t_end, scenario.scheme, scenario.monitors, recorders=[snaps])
        runs.append(snaps.states)
        statuses.append(traj.status)
        if traj.status == "aborted":
            error = traj.error
            break
    sup = {"u": [], "v": [], "theta": []}
    w12, compared, last = [], [], []
    for ta, tb in zip(runs, runs[1:]):
        m = next((k for k, (sa, sb) in enumerate(zip(ta, tb)) if sa.t != sb.t), min(len(ta), len(tb)))
        compared.append(m)
        last.append(ta[m - 1].t)
        for name in sup:
            sup[name].append(max(float(np.max(np.abs(getattr(sa, name) - getattr(sb, name))))
                                 for sa, sb in zip(ta[:m], tb[:m])))
        w12.append(max(sc.w12_distance(sa.theta, sb.theta, grid_)
                       for sa, sb in zip(ta[:m], tb[:m])))
    return sc.CascadeReport(
        eps_ladder=tuple(eps_ladder),
        sup_dists={k: tuple(v) for k, v in sup.items()},
        w12_theta_dists=tuple(w12),
        cauchy={k: all(b < a for a, b in zip(v, v[1:])) for k, v in sup.items()},
        statuses=tuple(statuses),
        blowup_fired="blowup_halt" in statuses,
        compared=tuple(compared),
        last_compared=tuple(last),
        error=error,
    )


class _RungFault:
    """``dyn.step_with_count``, except that the run started from temperature
    ``theta0`` gets a fault on every step from t = 0.03 on: a NaN velocity
    ("aborts"), or a rejection of the full-dt step that asks for half of it
    ("reject_step"), which the run retries at that dt when it runs alone.
    Like a real rejection it depends only on the step (t and dt), not on
    what was tried before.  The run's row is found by its temperature,
    followed from step to step, in a batch or alone."""

    def __init__(self, fault, theta0):
        self.fault, self.theta0, self.last = fault, theta0, None
        self.real = dyn.step_with_count

    def __call__(self, state, laws, a, grid_, cfg, dt, *args, **kwargs):
        mark = self.theta0 if state.t == 0.0 else self.last
        rows = np.atleast_2d(state.theta)
        hit = [i for i, row in enumerate(rows) if np.array_equal(row, mark)]
        if hit and state.t >= 0.03:
            i = hit[0]
            if self.fault == "reject_step" and dt == cfg.dt_initial:
                raise StepError("temperature dipped; retry with smaller dt",
                                suggested_dt=0.5 * dt)
            if self.fault == "aborts":
                v = np.array(state.v)
                np.atleast_2d(v)[i, 1:-1] = np.nan
                state = dyn.State(state.t, state.u, v, state.theta)
        new, clamped = self.real(state, laws, a, grid_, cfg, dt, *args, **kwargs)
        if hit:
            self.last = np.atleast_2d(new.theta)[hit[0]]
        return new, clamped


def _inject(monkeypatch, fault, scenario, ladder):
    """Put ``fault`` on one rung of the ladder, for batches and solo runs
    alike: rung 1's blow-up detector trips on any trace ("halts"), rung 2
    aborts ("aborts"), rung 1 retries one step at half the dt ("reject_step")."""
    grid_ = scenario.make_grid()
    theta0 = [sc.mollify(scenario.make_data(grid_), eps, grid_).theta0 for eps in ladder]
    if fault == "halts":
        low = diag.MonitorConfig(blowup_threshold=1e-9, blowup_rate_min=-100.0, blowup_window=4)
        real_init = dyn._Member.__init__

        def init(self, laws, data, monitor_cfg, *rest):
            if np.array_equal(data.theta0, theta0[1]):
                monitor_cfg = low
            real_init(self, laws, data, monitor_cfg, *rest)

        monkeypatch.setattr(dyn._Member, "__init__", init)
    elif fault is not None:
        rung = 2 if fault == "aborts" else 1
        monkeypatch.setattr(dyn, "step_with_count", _RungFault(fault, theta0[rung]))


class _Held:
    """The most rungs of the ladder that held a sample at once, the most
    pairs pending at once, and the size of each block compared while
    ``dyn.simulate`` ran (``running``) and after it returned (``after``)."""

    def __init__(self, monkeypatch):
        self.most, self.pending_most, self.running, self.after = 0, 0, [], []
        blocks = self.running
        real, compare, simulate = sc._Rung.sample, sc._compare, dyn.simulate

        def sample(rung, ev):
            real(rung, ev)
            self.most = max(self.most, sum(r.latest[1] is not None for r in rung.ladder))
            self.pending_most = max(self.pending_most, len(rung.pending))

        def compared(pending, grid_):
            blocks.append(len(pending))
            self.pending_most = max(self.pending_most, len(pending))
            compare(pending, grid_)

        def simulated(*args, **kwargs):
            nonlocal blocks
            out = simulate(*args, **kwargs)
            blocks = self.after
            return out

        monkeypatch.setattr(sc._Rung, "sample", sample)
        monkeypatch.setattr(sc, "_compare", compared)
        monkeypatch.setattr(dyn, "simulate", simulated)


@pytest.mark.parametrize("fault,statuses", [
    (None, ("completed",) * 4),
    ("halts", ("completed", "blowup_halt", "completed", "completed")),
    ("aborts", ("completed", "completed", "aborted")),
    ("reject_step", ("completed",) * 4),
])
def test_eps_cascade_equals_the_report_from_full_histories(monkeypatch, fault, statuses):
    from dataclasses import replace
    scenario = replace(sc.battery_scenario("rough_theta"), n=33, t_end=0.05)
    ladder = (0.5, 0.3, 0.2, 0.1)
    _inject(monkeypatch, fault, scenario, ladder)
    expected = _cascade_from_histories(scenario, ladder, dyn.simulate)
    monkeypatch.undo()
    _inject(monkeypatch, fault, scenario, ladder)  # the same fault, fresh, for the cascade
    monkeypatch.setattr(dyn.Snapshots, "__init__", None)  # the cascade keeps no history
    held = _Held(monkeypatch)
    rep = sc.eps_cascade(scenario, ladder)
    assert rep == expected
    assert rep.statuses == statuses
    assert all(len(v) == len(statuses) - 1 for v in rep.sup_dists.values())
    # each rung holds its latest sample only, where a history holds 251
    assert held.most == len(ladder)
    if fault == "reject_step":
        # rung 0.3 leaves the batch at t = 0.03 and resumes at halved steps:
        # it is compared with each neighbour up to its last batched sample
        assert rep.compared == (152, 152, 251)
        assert rep.last_compared[:2] == (pytest.approx(0.0302, abs=1e-12),) * 2
        assert rep.last_compared[2] == pytest.approx(0.05, abs=1e-12)


def test_eps_cascade_compares_pairs_in_bounded_blocks(monkeypatch):
    # n = 33: a block holds 4096 // 33 = 124 pairs; 251 samples of 4 rungs
    # make 753 pairs, so six full blocks are compared while the ladder runs
    # and the last nine once it has run
    scenario = replace(sc.battery_scenario("rough_theta"), n=33, t_end=0.05)
    ladder = (0.5, 0.3, 0.2, 0.1)
    held = _Held(monkeypatch)
    rep = sc.eps_cascade(scenario, ladder)
    bound = diag.block_size(scenario.n)
    assert bound == 124 and held.pending_most == bound
    assert held.running == [bound] * 6 and held.after == [9]
    assert sum(rep.compared) == 753


def test_eps_cascade_batches_a_fixed_dt_and_rejects_an_adaptive_one(monkeypatch):
    from dataclasses import replace
    base = replace(sc.battery_scenario("rough_theta"), n=33, t_end=0.02)
    ladder = (0.5, 0.3, 0.2)
    marched = []
    real = dyn._march

    def march(act, *args):
        marched.append(len(act))
        return real(act, *args)

    expected = _cascade_from_histories(base, ladder, dyn.simulate)
    monkeypatch.setattr(dyn, "_march", march)
    assert sc.eps_cascade(base, ladder) == expected
    assert marched == [3]
    # adaptive rungs take their own steps, so they share no sample times
    adaptive = replace(base.scheme, adaptive=True, dt_max=1e-2)
    with pytest.raises(ConfigError, match="fixed dt"):
        sc.eps_cascade(replace(base, scheme=adaptive), ladder)


def test_eps_cascade_requires_decreasing_ladder():
    base = sc.battery_scenario("rough_theta")
    with pytest.raises(ConfigError):
        sc.eps_cascade(base, [0.25, 0.5])
    with pytest.raises(ConfigError):
        sc.eps_cascade(base, [0.5, 0.0])
    with pytest.raises(ConfigError):
        sc.eps_cascade(base, [])


# --------------------------------------------------------------------------
# eta cascade
# --------------------------------------------------------------------------


def test_eta_cascade_zero_data_is_flat():
    grid_ = make_grid(33)
    n = grid_.n
    rep = sc.eta_cascade(np.ones(n), np.zeros(n), 1.0, grid_,
                         np.zeros(n), np.zeros(n), [1e-1, 1e-2], 0.05, 1e-3)
    assert rep.sup_y == (0.0, 0.0)


def test_eta_cascade_decays_with_eta():
    grid_ = make_grid(65)
    x = grid_.nodes
    A = 1.0 + 0.3 * np.sin(np.pi * x)
    gsrc = 0.5 * np.sin(np.pi * x)
    gsrc[0] = gsrc[-1] = 0.0
    v0 = np.sin(np.pi * x)
    v0[0] = v0[-1] = 0.0
    u0 = 0.2 * np.sin(2 * np.pi * x)
    u0[0] = u0[-1] = 0.0
    rep = sc.eta_cascade(A, gsrc, 1.0, grid_, v0, u0, [1e-1, 1e-2, 1e-3], 0.25, 1e-3)
    assert rep.sup_y[0] > rep.sup_y[1] > rep.sup_y[2] > 0.0
    assert rep.slope >= 0.5


def test_eta_cascade_steps_every_eta_in_one_batch(monkeypatch):
    grid_ = make_grid(33)
    x = grid_.nodes
    v0 = np.sin(np.pi * x)
    v0[0] = v0[-1] = 0.0
    calls = []
    real = dyn._step_eta

    def step_eta(state, *args):
        calls.append(np.array(state.eta))
        return real(state, *args)

    monkeypatch.setattr(dyn, "_step_eta", step_eta)
    rep = sc.eta_cascade(np.ones(33), np.zeros(33), 1.0, grid_, v0, np.zeros(33),
                         [1e-1, 1e-2], 0.05, 1e-3)
    assert len(calls) == 50  # one call per step, the reference (row 0) included
    assert all(np.array_equal(eta, [0.0, 1e-1, 1e-2]) for eta in calls)
    assert rep.sup_y[0] > rep.sup_y[1] > 0.0


def test_eta_cascade_builds_its_operators_once(monkeypatch):
    # the velocity operator and the displacement operator of the eta rows,
    # each built once for all 40 steps
    grid_ = make_grid(33)
    v0 = np.sin(np.pi * grid_.nodes)
    v0[0] = v0[-1] = 0.0
    built = []
    real = tridiag.dirichlet
    monkeypatch.setattr(tridiag, "dirichlet", lambda n, s: built.append(np.shape(s)) or real(n, s))
    sc.eta_cascade(np.ones(33), np.zeros(33), 1.0, grid_, v0, np.zeros(33),
                   [1e-1, 1e-2, 1e-3], 0.04, 1e-3)
    assert built == [(3, 1), (31,)]


def test_eta_cascade_equals_the_report_from_sequential_runs():
    # the reference and every eta run alone, each keeping its full history
    grid_ = make_grid(33)
    x = grid_.nodes
    A, gsrc = 1.0 + 0.3 * np.sin(np.pi * x), 0.5 * np.sin(np.pi * x)
    v0, u0 = np.sin(np.pi * x), 0.2 * np.sin(2 * np.pi * x)
    for w in (gsrc, v0, u0):
        w[0] = w[-1] = 0.0
    etas, dt, a = (1e-1, 1e-2, 1e-3), 1e-3, 1.3

    def run_one(eta):
        states = [dyn.EtaState(0.0, v0.copy(), u0.copy(), eta)]
        for _ in range(40):
            states.append(dyn.step_eta(states[-1], A, gsrc, a, grid_, dt))
        return states

    ref = run_one(0.0)
    sup_y = []
    for eta in etas:
        ys = [g.integrate((se.v_eta - sr.v_eta) ** 2, grid_)
              + a * float(np.sum(g.gradient_mid(se.u_eta - sr.u_eta, grid_) ** 2)) * grid_.dx
              for se, sr in zip(run_one(eta), ref)]
        sup_y.append(max([0.0] + ys))
    rep = sc.eta_cascade(A, gsrc, a, grid_, v0, u0, etas, 0.04, dt)
    assert [y.hex() for y in rep.sup_y] == [y.hex() for y in sup_y]


@pytest.mark.parametrize("t_end,dt,name", [
    (float("nan"), 1e-3, "t_end"), (float("inf"), 1e-3, "t_end"), (0.0, 1e-3, "t_end"),
    (-0.05, 1e-3, "t_end"), (0.05, float("nan"), "dt"), (0.05, float("inf"), "dt"),
    (0.05, 0.0, "dt"), (0.05, -1e-3, "dt"), (1e300, 1e-300, "overflows"),
])
def test_eta_cascade_rejects_a_nonfinite_or_nonpositive_t_end_or_dt(t_end, dt, name):
    grid_ = make_grid(17)
    n = grid_.n
    with pytest.raises(ConfigError, match=name):
        sc.eta_cascade(np.ones(n), np.zeros(n), 1.0, grid_, np.zeros(n), np.zeros(n),
                       [1e-1, 1e-2], t_end, dt)


def test_eta_cascade_rejects_nonpositive_or_fewer_than_two_distinct_etas():
    # a slope needs two distinct etas: one point would fit a line through it
    grid_ = make_grid(33)
    n = grid_.n
    for etas in ([1e-1, 0.0], [], [0.1], [0.1, 0.1]):
        with pytest.raises(ConfigError):
            sc.eta_cascade(np.ones(n), np.zeros(n), 1.0, grid_,
                           np.zeros(n), np.zeros(n), etas, 0.05, 1e-3)


# --------------------------------------------------------------------------
# generators
# --------------------------------------------------------------------------


def test_generators_respect_invariants():
    grid_ = make_grid(65)
    for name, gen in sc.INITIAL_GENERATORS.items():
        data = gen(grid_)
        assert data.u0[0] == data.u0[-1] == 0.0, name
        assert data.v0[0] == data.v0[-1] == 0.0, name
        assert np.all(data.theta0 >= 0.0), name


def test_corner_peak_validation():
    grid_ = make_grid(33)
    with pytest.raises(ConfigError):
        sc.gen_corner_theta(grid_, peak=1.5)


def test_unknown_generator_rejected():
    with pytest.raises(ConfigError):
        sc.Scenario(name="x", laws=mat.MaterialLaws(), a=1.0, length=1.0, n=33,
                    generator="not_a_generator")
