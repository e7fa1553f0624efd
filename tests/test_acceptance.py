"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Tolerances are fixed here, not calibrated at runtime.
"""

import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from viscowave import diagnostics as diag
from viscowave import dynamics as dyn
from viscowave import grid as g
from viscowave import material as mat
from viscowave import scenarios as sc

import reference


@contextmanager
def criterion(num, label):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} [{label}]: FAIL ({time.perf_counter() - t0:.1f}s)")
        raise
    print(f"\nACCEPTANCE {num:02d} [{label}]: PASS ({time.perf_counter() - t0:.1f}s)")


def with_dt(scenario, dt, scheme=None):
    cfg = replace(scenario.scheme, dt_initial=dt, dt_max=dt,
                  **({"scheme": scheme} if scheme else {}))
    return replace(scenario, scheme=cfg)


@pytest.fixture(scope="module")
def battery_runs():
    """Every battery scenario run once at its default configuration."""
    t0 = time.perf_counter()
    runs = {s.name: (s, dyn.run(s)) for s in sc.builtin_battery()}
    return runs, time.perf_counter() - t0


def test_criterion_01_energy_law():
    with criterion(1, "energy law drift and dt-order"):
        scenario = sc.battery_scenario("coupled")
        assert scenario.laws.gamma_family == "saturating"
        assert scenario.laws.f_family == "linear" and scenario.laws.K_f == 1.0
        assert scenario.a == 1.0 and scenario.length == 1.0 and scenario.n == 129
        assert scenario.t_end == 1.0
        t0 = time.perf_counter()
        base = dyn.run(scenario)
        runtime = time.perf_counter() - t0
        drift_base = abs(base.rows[-1].drift)
        assert drift_base / base.e0 <= 1e-3
        half = dyn.run(with_dt(scenario, scenario.scheme.dt_initial / 2))
        drift_half = abs(half.rows[-1].drift)
        factor = drift_base / drift_half
        # first-order scheme: halving dt must reduce the drift ~linearly
        assert scenario.scheme.scheme == "imex_be"
        assert factor >= 1.9
        assert runtime < 10.0


def test_criterion_02_conserved_budget_bounds(battery_runs):
    with criterion(2, "trajectory bounds from the initial-data budget"):
        runs, battery_wall = battery_runs
        for name, (scenario, traj) in runs.items():
            assert traj.status == "completed", name
            init = traj.initial_state
            data = mat.InitialData(u0=init.u, v0=init.v, theta0=init.theta)
            lam = mat.lambda1_bound(mat.data_bound_M(data, traj.grid),
                                    scenario.a, scenario.length)
            tol = 2.0 * traj.max_drift + 1e-9
            assert max(2.0 * r.E_kin for r in traj.rows) <= lam.bound_v2 + tol, name
            assert max(2.0 * r.E_el / scenario.a for r in traj.rows) <= lam.bound_ux2 + tol, name
            assert max(r.mass_theta for r in traj.rows) <= lam.bound_theta + tol, name
        assert battery_wall < 60.0


def test_criterion_03_heat_eigenmode_oracle():
    with criterion(3, "closed-form heat eigenmode error and spatial order"):
        scenario = sc.battery_scenario("heat_eigenmode")
        exact = scenario.exact_fields()["theta"]
        errs = []
        for n in (33, 65, 129):
            r = dyn.run(with_dt(replace(scenario, n=n, t_end=0.5), 1e-4))
            errs.append(float(np.max(np.abs(r.final_state.theta
                                            - exact(r.grid.nodes, r.times[-1])))))
        assert errs[-1] <= 5e-4  # n = 129, dt = 1e-4, T = 0.5
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(1.8 <= o <= 2.2 for o in orders), orders


def test_criterion_04_lq_balance_identity():
    with criterion(4, "Lq rate identity at q = 2"):
        scenario = sc.battery_scenario("coupled")

        def residual(dt):
            snaps = dyn.Snapshots()
            traj = dyn.run(with_dt(scenario, dt), recorders=[snaps])
            ts = np.array(traj.times)
            lq = np.array([r.lq_value for r in traj.rows])
            rates = np.array([diag.lq_balance(st, scenario.laws, 2.0, traj.grid).lhs_rate
                              for st in snaps.states])
            fd = (lq[2:] - lq[:-2]) / (ts[2:] - ts[:-2])
            return float(np.linalg.norm(fd - rates[1:-1]) / np.linalg.norm(rates[1:-1]))

        base = residual(1e-3)
        assert base <= 0.02
        assert residual(5e-4) < base


def test_criterion_05_z_transform_diagnostics():
    with criterion(5, "transformed-problem residual refinement"):
        scenario = sc.battery_scenario("coupled")
        norms = []
        for n, dt in ((33, 2e-3), (65, 1e-3), (129, 5e-4)):
            snaps = dyn.Snapshots()
            traj = dyn.run(with_dt(replace(scenario, n=n, t_end=0.25), dt), recorders=[snaps])
            for st in snaps.states:
                z, _ = reference.z_transform(st, scenario.monitors.kappa, traj.grid)
                assert z[0] == 0.0  # exact, by construction of the antiderivative
            norms.append(max(r.z_residual for r in traj.rows[1:]))
        orders = [np.log2(norms[i] / norms[i + 1]) for i in range(2)]
        assert all(o >= 1.0 for o in orders), (norms, orders)


EIGEN_RATIO = 0.10131594298788985  # (1 - e^{-4 lam T}) / (4 lam), lam = (pi/2)^2, T = 1


def test_criterion_06_maximal_regularity_estimator():
    with criterion(6, "regularity-constant estimator vs closed form"):
        grid_ = g.Grid1D(1.0, 129)
        one = diag.estimate_K(p=4.0, D=1.0, trials=1, grid_=grid_, T=1.0)
        assert one.ratios[0] == pytest.approx(EIGEN_RATIO, rel=0.02)
        ks = [diag.estimate_K(4.0, 1.0, m, grid_, 1.0).K for m in range(1, 6)]
        assert all(b >= a for a, b in zip(ks, ks[1:]))


def test_criterion_07_theory_constants_saturate():
    with criterion(7, "smallness relations saturate at 1/4"):
        grid_ = g.Grid1D(1.0, 129)
        K = diag.estimate_K(4.0, 1.0, 3, grid_, 1.0).K
        for a, T0, alpha in ((1.0, 1.0, 1.0), (2.0, 0.5, 1.2)):
            c = diag.theory_constants(K, a, T0, alpha)
            assert 256.0 * K * c.delta_est ** 4 == pytest.approx(0.25, rel=1e-12)
            assert 27.0 * 32.0 * K * a ** 4 * T0 / c.kappa_est ** 3 == pytest.approx(0.25, rel=1e-12)


def test_criterion_08_positivity(battery_runs):
    with criterion(8, "temperature positivity"):
        runs, _ = battery_runs
        for name, (scenario, traj) in runs.items():
            assert scenario.scheme.positivity_policy == "clamp_and_count"
            assert traj.clamp_fraction() <= 1e-4, name
        # refinement does not worsen the clamp fraction on the roughest scenario
        rough, rough_traj = runs["rough_theta"]
        refined = dyn.run(with_dt(rough, rough.scheme.dt_initial / 2))
        assert refined.clamp_fraction() <= rough_traj.clamp_fraction() + 1e-15
        # reject_step: accepted steps never dip below -POSITIVITY_TOLERANCE (1e-8)
        coupled = sc.battery_scenario("coupled")
        reject = replace(coupled, scheme=replace(coupled.scheme, positivity_policy="reject_step"))
        traj = dyn.run(reject)
        assert traj.status == "completed"
        assert min(r.min_theta for r in traj.rows) >= -dyn.POSITIVITY_TOLERANCE


def test_criterion_09_eta_cascade():
    with criterion(9, "vanishing cross-diffusion ladder"):
        t0 = time.perf_counter()
        grid_ = g.Grid1D(1.0, 129)
        x = grid_.nodes
        A = 1.0 + 0.3 * np.sin(np.pi * x)
        gsrc = 0.5 * np.sin(np.pi * x)
        gsrc[0] = gsrc[-1] = 0.0
        v0 = np.sin(np.pi * x)
        v0[0] = v0[-1] = 0.0
        u0 = 0.2 * np.sin(2 * np.pi * x)
        u0[0] = u0[-1] = 0.0
        rep = sc.eta_cascade(A, gsrc, 1.0, grid_, v0, u0,
                             [1e-1, 1e-2, 1e-3], t_end=0.5, dt=5e-4)
        assert rep.sup_y[0] > rep.sup_y[1] > rep.sup_y[2]
        assert rep.slope >= 0.5
        assert time.perf_counter() - t0 < 30.0


def test_criterion_10_eps_cascade():
    with criterion(10, "data-smoothing cascade is Cauchy"):
        scenario = sc.battery_scenario("rough_theta")
        rep = sc.eps_cascade(scenario, [2.0 ** -k for k in range(1, 6)])
        assert rep.statuses == ("completed",) * 5
        assert not rep.blowup_fired
        for field in ("u", "v", "theta"):
            dists = rep.sup_dists[field]
            assert len(dists) == 4
            assert all(b < a for a, b in zip(dists, dists[1:])), (field, dists)


def test_criterion_11_monitor_boundedness_under_sweeps():
    with criterion(11, "monitors stay finite across delta and alpha sweeps"):
        grid_ = g.Grid1D(1.0, 129)
        K = diag.estimate_K(4.0, 1.0, 3, grid_, 1.0).K
        delta_est = diag.theory_constants(K, 1.0, 1.0, 1.0).delta_est
        coupled = sc.battery_scenario("coupled")
        for delta in (0.0, delta_est / 2.0, delta_est):
            run = dyn.run(replace(coupled, laws=replace(coupled.laws, delta=delta)))
            assert run.status == "completed", f"delta={delta}"
            assert run.monitors.all_finite()
            assert run.blowup is None
        power = replace(coupled, laws=replace(coupled.laws, f_family="power"))
        for alpha in (0.9, 1.0, 1.45):
            run = dyn.run(replace(power, laws=replace(power.laws, alpha=alpha)))
            assert run.status == "completed", f"alpha={alpha}"
            assert run.monitors.all_finite()
            assert run.blowup is None


def test_criterion_12_mms_convergence():
    with criterion(12, "manufactured-solution spatial order"):
        case = sc.mms_case("exponential")
        errs = {f: [] for f in ("u", "v", "theta")}
        for n in (33, 65, 129):
            grid_ = g.Grid1D(case.length, n)
            cfg = dyn.SchemeConfig(dt_initial=1e-4, dt_max=1e-4, scheme="imex_cn")
            traj = dyn.simulate(case.laws, case.a, grid_, case.initial_data(grid_),
                                0.25, cfg, forcing=case.forcing)
            st = traj.final_state
            for fname, fn in (("u", case.u), ("v", case.v), ("theta", case.theta)):
                errs[fname].append(float(np.max(np.abs(getattr(st, fname)
                                                       - fn(grid_.nodes, st.t)))))
        for fname, e in errs.items():
            order = float(np.polyfit(np.log([1 / 32, 1 / 64, 1 / 128]),
                                     np.log(e), 1)[0])
            assert order >= 1.8, (fname, e, order)
