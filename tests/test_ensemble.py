"""Ensemble runs: ``simulate`` over a batch of members gives every member the
bits of its own run, whatever happens to the other members."""

import tracemalloc
from dataclasses import replace

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


# members of the families LAWS leaves out: constant and tabulated gamma, zero
# and tabulated f, and a power coupling at alpha = 1.45
MORE_LAWS = (
    mat.MaterialLaws(gamma_family="constant", f_family="zero", gamma0=1.2),
    mat.MaterialLaws(gamma_family="tabulated", f_family="tabulated", gamma0=1.0, delta=0.2,
                     gamma_table=np.array([[0.0, 1.0], [1.0, 1.1], [4.0, 1.2]]),
                     f_table=np.array([[0.0, 0.0], [1.0, 0.6], [3.0, 0.9]])),
    mat.MaterialLaws(gamma_family="constant", f_family="power", gamma0=0.8, K_f=0.7,
                     alpha=1.45),
    mat.MaterialLaws(gamma_family="tabulated", f_family="zero", gamma0=1.0, delta=0.3,
                     gamma_table=np.array([[0.0, 1.0], [2.0, 1.3]])),
)


@pytest.mark.parametrize("scheme", ["imex_be", "imex_cn"])
@pytest.mark.parametrize("families", ["mixed", "constant-zero", "tabulated"])
def test_members_of_every_family_equal_their_solo_runs(scheme, families):
    # the laws evaluated as parameter columns, a family's rows at once, and
    # the residual's left-end flux read from them
    grid_ = g.Grid1D(1.0, 65)
    laws = {"mixed": LAWS + MORE_LAWS,
            "constant-zero": [replace(MORE_LAWS[0], gamma0=1.2 + 0.3 * i) for i in range(3)],
            "tabulated": [MORE_LAWS[1], MORE_LAWS[3]]}[families]
    data = [sc.gen_coupled_smooth(grid_, amp_u=0.05 * (1 + i), amp_v=0.5 - 0.05 * i)
            for i in range(len(laws))]
    mons = [diag.MonitorConfig(kappa=0.5 + 0.5 * i, q=2.0 + 0.2 * i, cadence=2)
            for i in range(len(laws))]
    cfg = cfg_for(1e-3, scheme)
    ens = dyn.simulate(list(laws), 1.0, grid_, data, 0.0213, cfg, mons)
    for traj, solo in zip(ens, solo_runs(laws, data, mons, grid_, 0.0213, cfg)):
        assert_same_run(traj, solo)
        assert traj.status == "completed" and len(traj.rows) == 12


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



def test_a_members_rows_are_float_columns_in_blocks_of_the_solo_length(monkeypatch):
    # 300 steps on 33 nodes: 301 states in blocks of 124, 124 and 53 states,
    # for a batch of three as for each solo run
    grid_ = g.Grid1D(1.0, 33)
    laws, data, mons = members(grid_)
    cfg = cfg_for(1e-3)
    blocks, flush = [], diag.Rows.flush

    def flushing(rows):
        if rows._states:  # a flush with nothing noted evaluates no block
            blocks.append((len(rows.rows), len(rows._states)))
        flush(rows)

    monkeypatch.setattr(diag.Rows, "flush", flushing)
    ens = dyn.simulate(laws, 1.0, grid_, data, 0.3, cfg, mons)
    assert blocks == [(3, 124), (3, 124), (3, 53)]
    blocks.clear()
    solos = solo_runs(laws, data, mons, grid_, 0.3, cfg)
    assert blocks == [(1, 124), (1, 124), (1, 53)] * 3
    for traj, solo in zip(ens, solos):
        rows, ref = traj.rows, list(solo.rows)
        assert isinstance(rows, diag.Timeseries) and len(rows) == 301
        assert rows.values.dtype == np.float64
        assert rows.values.shape == (len(rows), len(diag.DIAG_COLUMNS))
        assert rows == solo.rows and rows == ref and rows != []
        assert [bits(r) for r in rows] == [bits(r) for r in ref]
        assert rows[::3] + rows[-1:] == ref[::3] + ref[-1:]
        assert type(rows[-1].clamp_count) is int
        assert rows.column("drift").tolist() == [r.drift for r in ref]


def test_no_two_members_rows_share_memory_nor_a_work_array(monkeypatch):
    # each member's blocks are arrays of its own, and nothing a flush keeps
    # (rows, accumulators) is a view of the work arrays the next block reuses
    grid_ = g.Grid1D(1.0, 33)
    laws, data, mons = members(grid_)
    tables, flush = [], diag.Rows.flush

    def flushing(rows):
        tables.append(rows)
        flush(rows)

    monkeypatch.setattr(diag.Rows, "flush", flushing)
    ens = dyn.simulate(laws, 1.0, grid_, data, 0.3, cfg_for(1e-3), mons)
    (table,) = set(tables)
    blocks = [b for traj in ens for b in traj.rows._blocks]
    assert len(blocks) == 3 * 3
    for i, b in enumerate(blocks):
        assert b.flags.c_contiguous
        assert not any(np.shares_memory(b, other) for other in blocks[i + 1:])
        assert not any(np.shares_memory(b, w) for w in table._arrays.values())
    assert not any(np.shares_memory(table.cum, w) for w in table._arrays.values())
    for traj, solo in zip(ens, solo_runs(laws, data, mons, grid_, 0.3, cfg_for(1e-3))):
        assert [bits(r) for r in traj.rows] == [bits(r) for r in solo.rows]


def test_a_flush_after_the_first_allocates_less_than_half_a_mib(monkeypatch):
    # an 8-member batch at n = 129 (blocks of 31 states): the first flush
    # makes the work arrays, every later one evaluates its block in them
    scen = sc.battery_scenario("coupled")
    scens = [replace(scen, t_end=0.2, laws=replace(scen.laws, delta=0.02 * i)) for i in range(8)]
    assert scen.make_grid().n == 129
    peaks, flush = [], diag.Rows.flush

    def measured(rows):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        flush(rows)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)

    monkeypatch.setattr(diag.Rows, "flush", measured)
    tracemalloc.start()
    try:
        ens = dyn.run(scens)
    finally:
        tracemalloc.stop()
    assert [len(traj.rows) for traj in ens] == [201] * 8
    assert len(peaks) >= 4
    assert max(peaks[1:]) < 0.5 * 2 ** 20, peaks


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


def test_recorders_see_views_of_the_batch_rows():
    grid_ = g.Grid1D(1.0, 33)
    laws, data, mons = members(grid_)
    recs = [[_Log()] for _ in laws]
    seen = []
    for (rec,) in recs:
        rec.sample = lambda ev, log=rec.sample: seen.append(ev) or log(ev)
    dyn.simulate(laws, 1.0, grid_, data, 0.003, cfg_for(1e-3), mons, recorders=recs)
    assert len(seen) == 3 * 4
    for ev in seen:
        assert not any(x.flags.owndata for x in (ev.u, ev.v, ev.theta))  # rows of the batch's
    solo = _Log()
    dyn.simulate(laws[2], 1.0, grid_, data[2], 0.003, cfg_for(1e-3), mons[2], recorders=[solo])
    assert recs[2][0].log == solo.log


def test_a_nan_member_fails_alone():
    # the NaN spoils the stacked velocity solve of every member; taken again
    # member by member, the step fails for the middle member alone, which
    # then goes on alone from t = 0
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


def test_members_failing_in_one_step_go_on_alone_in_member_order(monkeypatch):
    # the first batch step fails twice over: member 2's NaN spoils the
    # velocity solve, and member 0's heat spike dips below zero after the
    # heat solve.  Taken again member by member, the step fails for both,
    # and they go on alone in member order, each from t = 0
    n = 65
    grid_ = g.Grid1D(1.0, n)
    dt = 10.0 * grid_.dx ** 2
    laws, data, mons = members(grid_)
    spike = np.zeros(n)
    spike[n // 2] = 1.0
    data[0] = mat.InitialData(u0=np.zeros(n), v0=np.zeros(n), theta0=spike)
    theta0 = data[2].theta0.copy()
    theta0[7] = np.nan
    data[2] = mat.InitialData(u0=data[2].u0, v0=data[2].v0, theta0=theta0)
    cfg = cfg_for(dt, "imex_cn", positivity_policy="reject_step")
    resumed = []
    real = dyn._march

    def march(act, *args):
        if act[0].resume is not None:
            resumed.append((id(act[0].traj), act[0].resume[0].t))
        return real(act, *args)

    monkeypatch.setattr(dyn, "_march", march)
    logs = [[_Log()] for _ in laws]
    ens = dyn.simulate(laws, 1.0, grid_, data, 20 * dt, cfg, mons, recorders=logs)
    assert resumed == [(id(ens[0]), 0.0), (id(ens[2]), 0.0)]
    assert [t.status for t in ens] == ["completed", "completed", "aborted"]
    assert [t.steps_taken for t in ens] == [24, 20, 0]
    solo_logs = [[_Log()] for _ in laws]
    solos = solo_runs(laws, data, mons, grid_, 20 * dt, cfg, solo_logs)
    for traj, solo, log, ref in zip(ens, solos, logs, solo_logs):
        assert_same_run(traj, solo)
        assert log[0].log == ref[0].log


def test_a_batch_failure_no_member_repeats_alone_propagates(monkeypatch):
    grid_ = g.Grid1D(1.0, 33)
    laws, data, mons = members(grid_)
    real = dyn.step_with_count
    batch_steps = []

    def batch_fails(state, laws, *args, **kwargs):
        if isinstance(laws, mat.LawRows):
            batch_steps.append(state.t)
            raise StepError("the batch step failed")
        return real(state, laws, *args, **kwargs)

    monkeypatch.setattr(dyn, "step_with_count", batch_fails)
    with pytest.raises(StepError, match="the batch step failed"):
        dyn.simulate(laws, 1.0, grid_, data, 0.01, cfg_for(1e-3), mons)
    assert batch_steps == [0.0]  # raised, not taken again


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


def test_an_ensemble_without_monitor_configs_gives_each_member_the_default():
    grid_ = g.Grid1D(1.0, 33)
    laws, data, _ = members(grid_)
    ens = dyn.simulate(laws[:2], 1.0, grid_, data[:2], 0.005, cfg_for(1e-3))
    for i, traj in enumerate(ens):
        assert_same_run(traj, dyn.simulate(laws[i], 1.0, grid_, data[i], 0.005, cfg_for(1e-3),
                                           diag.MonitorConfig()))


def test_ensemble_arguments_checked():
    grid_ = g.Grid1D(1.0, 33)
    laws, data, mons = members(grid_)
    with pytest.raises(ConfigError, match="each member"):
        dyn.simulate(laws[:2], 1.0, grid_, data, 0.01, cfg_for(1e-3), mons)
    with pytest.raises(ConfigError, match="each member"):
        dyn.simulate(laws, 1.0, grid_, data, 0.01, cfg_for(1e-3), mons[:2])


def _members_against_solos(monkeypatch, cfg, mons, forcing=None):
    """The members' ensemble run, its ``_march`` calls (members each) and
    the members' solo runs."""
    grid_ = g.Grid1D(1.0, 33)
    laws, data, _ = members(grid_)
    solos = [dyn.simulate(l, 1.0, grid_, d, 0.01, cfg, m, forcing)
             for l, d, m in zip(laws, data, mons)]
    marched = []
    real = dyn._march
    monkeypatch.setattr(dyn, "_march", lambda act, *args: marched.append(len(act)) or real(act, *args))
    return dyn.simulate(laws, 1.0, grid_, data, 0.01, cfg, mons, forcing), marched, solos


@pytest.mark.parametrize("case", ["adaptive", "cadences"])
def test_members_that_cannot_share_steps_run_one_after_another(case, monkeypatch):
    cfg, mons = cfg_for(1e-3), members(g.Grid1D(1.0, 33))[2]
    if case == "adaptive":
        cfg = dyn.SchemeConfig(dt_initial=1e-3, dt_max=4e-3, adaptive=True)
    else:
        mons = mons[:2] + [diag.MonitorConfig(cadence=2)]
    ens, marched, solos = _members_against_solos(monkeypatch, cfg, mons)
    assert marched == [1, 1, 1]
    for traj, solo in zip(ens, solos):
        assert_same_run(traj, solo)
    assert ens.steps_taken == sum(s.steps_taken for s in solos)


def test_forced_members_share_their_steps(monkeypatch):
    # one forcing for every member: its fields broadcast over the batch's rows
    forcing = dyn.Forcing(fv=lambda x, t: np.sin(np.pi * x) * t,
                          ftheta=lambda x, t: np.ones_like(x))
    mons = members(g.Grid1D(1.0, 33))[2]
    ens, marched, solos = _members_against_solos(monkeypatch, cfg_for(1e-3), mons, forcing)
    assert marched == [3]
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

    def __call__(self, state, laws, a, grid_, cfg, dt, *args, **kwargs):
        batch = isinstance(laws, mat.LawRows)
        for law in (laws if batch else [laws]):
            fault = self.faults.get(id(law)) if state.t >= self.t_fail else None
            if fault == "aborts" or fault == "rejects" and dt == cfg.dt_initial:
                raise StepError(f"{fault} at t = {state.t:g}",
                                suggested_dt=0.5 * dt if fault == "rejects" else None)
        return self.real(state, laws, a, grid_, cfg, dt, *args, **kwargs)


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


def test_members_that_halt_or_resume_mid_block_equal_their_solo_runs(monkeypatch):
    # three members on 33 nodes: a block holds 124 states, as a solo run's
    # does.  Member 1's detector fires at its 150th sample, in the second
    # block; member 0's full steps are rejected from t = 0.1995 on, so it
    # leaves the batch after 200 steps, mid-block, and resumes alone at
    # halved steps, with its own blocks, and a last one that t_end clips just
    # below the full dt
    grid_ = g.Grid1D(1.0, 33)
    assert diag.block_size(33) == 124
    laws, data, mons = members(grid_)
    mons[1] = diag.MonitorConfig(kappa=KAPPAS[1], q=QS[1], blowup_threshold=1e-9,
                                 blowup_rate_min=-100.0, blowup_window=150)
    cfg = cfg_for(1e-3)
    monkeypatch.setattr(dyn, "step_with_count", _Faults({id(LAWS[0]): "rejects"}, 0.1995))
    ens = dyn.simulate(laws, 1.0, grid_, data, 0.3, cfg, mons)
    solos = solo_runs(laws, data, mons, grid_, 0.3, cfg)
    assert [t.status for t in ens] == ["completed", "blowup_halt", "completed"]
    assert [t.steps_taken for t in ens] == [200 + 198 + 1, 149, 300]
    for traj, solo in zip(ens, solos):
        assert_same_run(traj, solo)


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


def test_run_over_mms_configs_passes_the_forcing_and_batches_the_members(monkeypatch):
    # scenarios that share an MMS case share its forcing: dyn.run passes it on,
    # and simulate runs the members as one batch, each with its solo bits
    scen = sc.Scenario(name="mms", laws=sc.mms_case("exponential").laws, a=1.0, length=1.0,
                       n=33, generator="mms", t_end=0.004,
                       scheme=cfg_for(2e-4, "imex_cn"), mms_id="exponential")
    scens = [replace(scen, laws=replace(scen.laws, delta=d)) for d in (0.0, 0.1, 0.3)]
    solos = [dyn.run(s) for s in scens]
    grid_ = scen.make_grid()
    unforced = dyn.simulate(scen.laws, 1.0, grid_, scen.make_data(grid_), scen.t_end, scen.scheme)
    assert bits(unforced.final_state) != bits(solos[1].final_state)  # the forcing shows
    marched = []
    real = dyn._march
    monkeypatch.setattr(dyn, "_march", lambda act, *args: marched.append(len(act)) or real(act, *args))
    ens = dyn.run(scens)
    assert marched == [3]
    for traj, solo in zip(ens, solos):
        assert_same_run(traj, solo)
    with pytest.raises(ConfigError, match="mms case"):
        dyn.run([scens[0], replace(scens[1], mms_id=None)])
