"""Ensemble runs: ``simulate`` over a batch of members gives every member the
bits of its own run, whatever happens to the other members."""

import numpy as np
import pytest

from viscowave import diagnostics as diag
from viscowave import dynamics as dyn
from viscowave import grid as g
from viscowave import material as mat
from viscowave import scenarios as sc
from viscowave.errors import ConfigError, StepError

# three members that differ in delta, alpha (through the power coupling and
# the (theta+1)^(4 alpha) accumulator), kappa and q
LAWS = (
    mat.MaterialLaws(gamma_family="saturating", f_family="linear", gamma0=1.0, delta=0.0,
                     K_f=1.0, alpha=1.0),
    mat.MaterialLaws(gamma_family="saturating", f_family="power", gamma0=1.0, delta=0.1,
                     K_f=0.5, alpha=1.2),
    mat.MaterialLaws(gamma_family="saturating", f_family="linear", gamma0=1.5, delta=0.3,
                     K_f=1.0, alpha=0.9),
)
KAPPAS = (1.0, 2.5, 0.5)
QS = (2.0, 2.0, 2.6)


def cfg_for(dt, scheme="imex_be", **kw):
    return dyn.SchemeConfig(dt_initial=dt, dt_max=dt, scheme=scheme, **kw)


def members(grid_, cadence=1, **monitors):
    data = [sc.gen_coupled_smooth(grid_, amp_u=0.1 * (1 + i), amp_v=0.5 - 0.1 * i)
            for i in range(3)]
    mons = [diag.MonitorConfig(kappa=k, q=q, cadence=cadence, **monitors)
            for k, q in zip(KAPPAS, QS)]
    return list(LAWS), data, mons


def bits(x) -> str:
    """Exact text of a value: every float by repr, arrays by their bytes."""
    if isinstance(x, np.ndarray):
        return x.tobytes().hex()
    if isinstance(x, dyn.State):
        return f"{x.t!r} " + " ".join(bits(getattr(x, k)) for k in ("u", "v", "theta"))
    return repr(x)


def assert_same_run(traj, solo):
    assert (traj.status, traj.error) == (solo.status, solo.error)
    assert (traj.steps_taken, traj.clamp_total) == (solo.steps_taken, solo.clamp_total)
    assert bits(traj.times) == bits(solo.times)
    assert bits(traj.e0) == bits(solo.e0)
    assert [bits(r) for r in traj.rows] == [bits(r) for r in solo.rows]
    assert bits(traj.monitors) == bits(solo.monitors)
    assert bits(traj.blowup) == bits(solo.blowup)
    assert bits(traj.initial_state) == bits(solo.initial_state)
    assert bits(traj.final_state) == bits(solo.final_state)
    assert traj.laws is solo.laws


def solo_runs(laws, data, mons, grid_, t_end, cfg, recorders=None):
    recorders = recorders or [()] * len(laws)
    return [dyn.simulate(l, 1.0, grid_, d, t_end, cfg, m, recorders=r)
            for l, d, m, r in zip(laws, data, mons, recorders)]


@pytest.mark.parametrize("scheme", ["imex_be", "imex_cn"])
@pytest.mark.parametrize("cadence,t_end", [(1, 0.02), (3, 0.0213)])
def test_members_equal_their_solo_runs(scheme, cadence, t_end):
    # cadence 3 with 21 full steps and a clipped one: the last sample is off the cadence
    grid_ = g.Grid1D(1.0, 65)
    laws, data, mons = members(grid_, cadence)
    cfg = cfg_for(1e-3, scheme)
    ens = dyn.simulate(laws, 1.0, grid_, data, t_end, cfg, mons)
    solos = solo_runs(laws, data, mons, grid_, t_end, cfg)
    assert isinstance(ens, dyn.Ensemble) and len(ens) == 3
    for traj, solo in zip(ens, solos):
        assert_same_run(traj, solo)
    assert ens.steps_taken == sum(s.steps_taken for s in solos) == 3 * (20 if t_end == 0.02 else 22)
    assert len(ens[0].rows) == (21 if cadence == 1 else 9)


@pytest.mark.parametrize("scheme", ["imex_be", "imex_cn"])
def test_a_kappa_ensemble_equals_its_solo_runs(scheme):
    # the points of a kappa sweep: one law (the same object) for every member
    grid_ = g.Grid1D(1.0, 65)
    _, data, _ = members(grid_)
    laws = [LAWS[1]] * 3
    mons = [diag.MonitorConfig(kappa=k, cadence=3) for k in KAPPAS]
    cfg = cfg_for(1e-3, scheme)
    ens = dyn.simulate(laws, 1.0, grid_, data, 0.0213, cfg, mons)
    for traj, solo in zip(ens, solo_runs(laws, data, mons, grid_, 0.0213, cfg)):
        assert_same_run(traj, solo)
    assert len({r.z_residual for r in (ens[0].rows[-1], ens[1].rows[-1])}) == 2


def test_members_without_rows_and_with_snapshots():
    grid_ = g.Grid1D(1.0, 33)
    laws, data, mons = members(grid_, cadence=2)
    snaps = [dyn.Snapshots() for _ in laws]
    ens = dyn.simulate(laws, 1.0, grid_, data, 0.011, cfg_for(1e-3, "imex_cn"), mons,
                       rows=False, recorders=[[s] for s in snaps])
    solo_snaps = [dyn.Snapshots() for _ in laws]
    solos = [dyn.simulate(l, 1.0, grid_, d, 0.011, cfg_for(1e-3, "imex_cn"), m, rows=False,
                          recorders=[s]) for l, d, m, s in zip(laws, data, mons, solo_snaps)]
    for traj, solo, s, ref in zip(ens, solos, snaps, solo_snaps):
        assert_same_run(traj, solo)
        assert traj.rows == [] and traj.monitors is None
        assert [bits(x) for x in s.states] == [bits(x) for x in ref.states]
        assert s.states[0] is traj.initial_state and s.states[-1] is traj.final_state


def test_a_nan_member_fails_alone():
    # the NaN spoils the stacked velocity solve of every member; the failure
    # is blamed on the middle member, which then goes on alone from t = 0
    grid_ = g.Grid1D(1.0, 33)
    laws, data, mons = members(grid_)
    theta0 = data[1].theta0.copy()
    theta0[7] = np.nan
    data[1] = mat.InitialData(u0=data[1].u0, v0=data[1].v0, theta0=theta0)
    cfg = cfg_for(1e-3)
    ens = dyn.simulate(laws, 1.0, grid_, data, 0.01, cfg, mons)
    solos = solo_runs(laws, data, mons, grid_, 0.01, cfg)
    assert [t.status for t in ens] == ["completed", "aborted", "completed"]
    assert "non-finite" in ens[1].error
    for traj, solo in zip(ens, solos):
        assert_same_run(traj, solo)


class _Log(dyn.Recorder):
    def __init__(self):
        self.log = []

    def sample(self, ev):
        self.log.append((ev.t, bits(ev.state)))

    def times(self) -> list:
        return [t for t, _ in self.log]


def test_every_member_run_ends_once_after_its_last_sample():
    # member 0 aborts on a NaN (it leaves the batch and goes on alone, where
    # its step fails again), member 1 halts on blow-up, member 2 completes
    grid_ = g.Grid1D(1.0, 33)
    laws, data, mons = members(grid_)
    theta0 = data[0].theta0.copy()
    theta0[7] = np.nan
    data[0] = mat.InitialData(u0=data[0].u0, v0=data[0].v0, theta0=theta0)
    mons[1] = diag.MonitorConfig(kappa=KAPPAS[1], q=QS[1], blowup_threshold=1e-9,
                                 blowup_rate_min=-100.0, blowup_window=4)
    recs = [[_Log()] for _ in laws]
    ens = dyn.simulate(laws, 1.0, grid_, data, 0.01, cfg_for(1e-3), mons, recorders=recs)
    assert [t.status for t in ens] == ["aborted", "blowup_halt", "completed"]
    assert recs[0][0].times() == [0.0]
    for (rec,), traj in zip(recs, ens):
        assert rec.times() == traj.times
        assert rec.log[-1][1] == bits(traj.final_state)


def test_a_rejected_member_is_finished_by_its_solo_run():
    # the heat spike makes the trapezoidal step dip below zero: alone, the
    # member retries with halved steps; in the batch it leaves, and goes on
    # alone from its first step
    n = 65
    grid_ = g.Grid1D(1.0, n)
    dt = 10.0 * grid_.dx ** 2
    laws, data, mons = members(grid_)
    spike = np.zeros(n)
    spike[n // 2] = 1.0
    data[0] = mat.InitialData(u0=np.zeros(n), v0=np.zeros(n), theta0=spike)
    cfg = cfg_for(dt, "imex_cn", positivity_policy="reject_step")
    logs = [[_Log()] for _ in laws]
    ens = dyn.simulate(laws, 1.0, grid_, data, 20 * dt, cfg, mons, recorders=logs)
    solo_logs = [[_Log()] for _ in laws]
    solos = solo_runs(laws, data, mons, grid_, 20 * dt, cfg, solo_logs)
    assert solos[0].steps_taken > 20  # the solo run halved some steps
    for traj, solo, log, ref in zip(ens, solos, logs, solo_logs):
        assert_same_run(traj, solo)
        assert log[0].log == ref[0].log


def test_a_member_halting_on_blowup_leaves_the_others_running():
    grid_ = g.Grid1D(1.0, 33)
    laws, data, mons = members(grid_)
    # degenerate detector settings for the middle member: any trace trips it
    mons[1] = diag.MonitorConfig(kappa=KAPPAS[1], q=QS[1], blowup_threshold=1e-9,
                                 blowup_rate_min=-100.0, blowup_window=4)
    cfg = cfg_for(1e-3, "imex_cn")
    ens = dyn.simulate(laws, 1.0, grid_, data, 0.01, cfg, mons)
    solos = solo_runs(laws, data, mons, grid_, 0.01, cfg)
    assert [t.status for t in ens] == ["completed", "blowup_halt", "completed"]
    assert ens[1].steps_taken == 3 and ens[0].steps_taken == ens[2].steps_taken == 10
    for traj, solo in zip(ens, solos):
        assert_same_run(traj, solo)


def test_an_ensemble_of_one_is_a_solo_run():
    grid_ = g.Grid1D(1.0, 33)
    laws, data, mons = members(grid_)
    ens = dyn.simulate(laws[:1], 1.0, grid_, data[:1], 0.01, cfg_for(1e-3), mons[:1])
    assert isinstance(ens, dyn.Ensemble) and len(ens) == 1
    assert_same_run(ens[0], dyn.simulate(laws[0], 1.0, grid_, data[0], 0.01, cfg_for(1e-3),
                                         mons[0]))


def test_ensemble_arguments_checked():
    grid_ = g.Grid1D(1.0, 33)
    laws, data, mons = members(grid_)
    with pytest.raises(ConfigError, match="each member"):
        dyn.simulate(laws[:2], 1.0, grid_, data, 0.01, cfg_for(1e-3), mons)
    with pytest.raises(ConfigError, match="each member"):
        dyn.simulate(laws, 1.0, grid_, data, 0.01, cfg_for(1e-3), mons[:2])


@pytest.mark.parametrize("case", ["forcing", "adaptive", "cadences"])
def test_members_that_cannot_share_steps_run_one_after_another(case, monkeypatch):
    grid_ = g.Grid1D(1.0, 33)
    laws, data, mons = members(grid_)
    cfg, forcing = cfg_for(1e-3), None
    if case == "forcing":
        forcing = dyn.Forcing(fv=lambda x, t: np.sin(np.pi * x) * t,
                              ftheta=lambda x, t: np.ones_like(x))
    elif case == "adaptive":
        cfg = dyn.SchemeConfig(dt_initial=1e-3, dt_max=4e-3, adaptive=True)
    else:
        mons = mons[:2] + [diag.MonitorConfig(cadence=2)]
    solos = [dyn.simulate(l, 1.0, grid_, d, 0.01, cfg, m, forcing)
             for l, d, m in zip(laws, data, mons)]
    marched = []
    real = dyn._march
    monkeypatch.setattr(dyn, "_march", lambda act, *args: marched.append(len(act)) or real(act, *args))
    ens = dyn.simulate(laws, 1.0, grid_, data, 0.01, cfg, mons, forcing)
    assert marched == [1, 1, 1]
    for traj, solo in zip(ens, solos):
        assert_same_run(traj, solo)
    assert ens.steps_taken == sum(s.steps_taken for s in solos)


class _Faults:
    """``dyn.step_with_count``, except that every step from t = ``t_fail`` on
    fails for the members whose laws are keys (by ``id``) of ``faults``:
    "rejects" turns a full-dt step down and asks for half of it, "aborts"
    fails as a non-finite solve does.  A function of the step alone, in a
    batch or solo, as a real failure is."""

    def __init__(self, faults: dict, t_fail: float):
        self.faults, self.t_fail, self.real = faults, t_fail, dyn.step_with_count

    def __call__(self, state, laws, a, grid_, cfg, dt, forcing=None):
        batch = isinstance(laws, mat.LawRows)
        for i, law in enumerate(laws if batch else [laws]):
            fault = self.faults.get(id(law)) if state.t >= self.t_fail else None
            if fault == "aborts" or fault == "rejects" and dt == cfg.dt_initial:
                raise StepError(f"{fault} at t = {state.t:g}", member=i if batch else None,
                                suggested_dt=0.5 * dt if fault == "rejects" else None)
        return self.real(state, laws, a, grid_, cfg, dt, forcing)


@pytest.mark.parametrize("scheme", ["imex_be", "imex_cn"])
def test_members_that_fail_mid_batch_go_on_where_they_stood(scheme, monkeypatch):
    # cadence 3: members 0 and 2 fail in the same batch step, the fifth, one
    # step after a sample.  Member 0's full steps are rejected from then on
    # (it goes on at halved steps), member 2 aborts, and member 1, left alone
    # in the batch, halts at its fourth sample
    grid_ = g.Grid1D(1.0, 33)
    laws, data, mons = members(grid_, cadence=3)
    mons[1] = diag.MonitorConfig(kappa=KAPPAS[1], q=QS[1], cadence=3, blowup_threshold=1e-9,
                                 blowup_rate_min=-100.0, blowup_window=4)
    cfg = cfg_for(1e-3, scheme)
    faults = _Faults({id(LAWS[0]): "rejects", id(LAWS[2]): "aborts"}, 0.0035)
    monkeypatch.setattr(dyn, "step_with_count", faults)
    recs = [[_Log()] for _ in laws]
    ens = dyn.simulate(laws, 1.0, grid_, data, 0.01, cfg, mons, recorders=recs)
    solo_recs = [[_Log()] for _ in laws]
    solos = solo_runs(laws, data, mons, grid_, 0.01, cfg, solo_recs)
    assert [t.status for t in ens] == ["completed", "blowup_halt", "aborted"]
    # member 0: four full steps, ten halved ones, and a last one that t_end
    # clips just below the full dt
    assert [t.steps_taken for t in ens] == [4 + 10 + 1, 9, 4]
    assert ens[2].times[-1] == ens[2].final_state.t > ens[2].times[-2]  # the abort's off-cadence sample
    for traj, solo, (log,), (ref,) in zip(ens, solos, recs, solo_recs):
        assert_same_run(traj, solo)
        assert log.log == ref.log
        assert log.times() == traj.times


def test_a_resumed_member_writes_each_field_dump_once(tmp_path, monkeypatch):
    # member 0's step is rejected in the batch after three dumps; it goes on
    # alone from there, so no dump is written twice or deleted, and its
    # dumps are its solo run's
    import os
    from viscowave import cli
    writes, removed = [], []
    write, remove = cli.write_final_state, os.remove
    monkeypatch.setattr(cli, "write_final_state", lambda s, g_, path: writes.append(path) or write(s, g_, path))
    monkeypatch.setattr(os, "remove", lambda path: removed.append(path) or remove(path))
    grid_ = g.Grid1D(1.0, 33)
    laws, data, mons = members(grid_)
    cfg = cfg_for(1e-3, "imex_cn")
    monkeypatch.setattr(dyn, "step_with_count", _Faults({id(LAWS[0]): "rejects"}, 0.0015))
    dumps = [[cli.FieldDump(str(tmp_path / f"ens{i}"))] for i in range(3)]
    ens = dyn.simulate(laws, 1.0, grid_, data, 0.005, cfg, mons, recorders=dumps)
    assert ens[0].steps_taken == 2 + 6 and len(writes) == len(set(writes)) == 3 * 6 + 3
    assert removed == []
    for i in range(3):
        dyn.simulate(laws[i], 1.0, grid_, data[i], 0.005, cfg, mons[i],
                     recorders=[cli.FieldDump(str(tmp_path / f"solo{i}"))])
        ens = sorted((tmp_path / f"ens{i}").iterdir())
        solo = sorted((tmp_path / f"solo{i}").iterdir())
        assert [p.name for p in ens] == [p.name for p in solo]
        assert all(a.read_bytes() == b.read_bytes() for a, b in zip(ens, solo))


def test_run_over_mms_configs_passes_the_forcing_and_runs_members_alone(monkeypatch):
    # configs that share an MMS case share its forcing: dyn.run passes it on,
    # and simulate runs the members one after another, each with its solo bits
    from dataclasses import replace
    from viscowave.config import RunConfig
    scen = sc.Scenario(name="mms", laws=sc.mms_case("exponential").laws, a=1.0, length=1.0,
                       n=33, generator="mms", t_end=0.004, tag="mms",
                       scheme=cfg_for(2e-4, "imex_cn"), mms_id="exponential")
    configs = [RunConfig(replace(scen, laws=replace(scen.laws, delta=d))) for d in (0.0, 0.1, 0.3)]
    solos = [dyn.run(c) for c in configs]
    grid_ = scen.make_grid()
    unforced = dyn.simulate(scen.laws, 1.0, grid_, scen.make_data(grid_), scen.t_end, scen.scheme)
    assert bits(unforced.final_state) != bits(solos[1].final_state)  # the forcing shows
    marched = []
    real = dyn._march
    monkeypatch.setattr(dyn, "_march", lambda act, *args: marched.append(len(act)) or real(act, *args))
    ens = dyn.run(configs)
    assert marched == [1, 1, 1]
    for traj, solo in zip(ens, solos):
        assert_same_run(traj, solo)
    with pytest.raises(ConfigError, match="mms case"):
        dyn.run([configs[0], replace(configs[1], scenario=replace(scen, mms_id="stationary"))])
