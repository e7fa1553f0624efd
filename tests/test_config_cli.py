import concurrent.futures
import configparser
import csv
import io
import json
import os
import pickle
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from viscowave import cli
from viscowave import config as cfgmod
from viscowave import diagnostics as diag
from viscowave import dynamics as dyn
from viscowave import material as mat
from viscowave import scenarios as sc
from viscowave.errors import ConfigError, DomainError

COUPLED_INI = """
[run]
scenario = coupled
out_dir = {out}
seed = 11

[time]
T_end = 0.05
"""

CUSTOM_INI = """
[run]
scenario = custom
name = my_experiment
out_dir = {out}
seed = 3

[material]
gamma_family = saturating
gamma0 = 2.0
delta = 0.05
f_family = power
K_f = 0.5
alpha = 1.2

[domain]
L = 2.0
n = 65
a = 0.5

[initial]
generator = coupled_smooth
amp_v = 0.25

[time]
T_end = 0.1
scheme = imex_cn
dt_initial = 5e-4
dt_max = 5e-4

[monitors]
q = 2.5
kappa = 1.5
cadence = 2
"""


def write_ini(tmp_path, text, name="run.ini", out="out"):
    path = tmp_path / name
    path.write_text(text.format(out=tmp_path / out))
    return str(path)


# --------------------------------------------------------------------------
# parsing and round trip
# --------------------------------------------------------------------------


def test_parse_named_scenario_with_override(tmp_path):
    cfg = cfgmod.parse_config(write_ini(tmp_path, COUPLED_INI))
    assert cfg.scenario.name == "coupled"
    assert cfg.scenario.t_end == 0.05
    assert cfg.scenario.laws.gamma_family == "saturating"
    assert cfg.seed == 11


def test_parse_custom_scenario(tmp_path):
    cfg = cfgmod.parse_config(write_ini(tmp_path, CUSTOM_INI))
    s = cfg.scenario
    assert s.name == "my_experiment"
    assert s.laws.gamma0 == 2.0 and s.laws.alpha == 1.2
    assert s.length == 2.0 and s.n == 65 and s.a == 0.5
    assert s.gen_params == {"amp_v": 0.25}
    assert s.scheme.scheme == "imex_cn"
    assert s.monitors.q == 2.5 and s.monitors.cadence == 2


def test_parse_requires_generator_for_custom(tmp_path):
    bad = "[run]\nscenario = custom\n"
    with pytest.raises(ConfigError):
        cfgmod.parse_config(io.StringIO(bad))


def test_parse_reports_bad_field(tmp_path):
    bad = COUPLED_INI + "\n[domain]\nn = not_a_number\n"
    with pytest.raises(ConfigError) as err:
        cfgmod.parse_config(io.StringIO(bad.format(out=tmp_path)))
    assert "n" in str(err.value)


def test_config_round_trip(tmp_path):
    cfg = cfgmod.parse_config(write_ini(tmp_path, CUSTOM_INI))
    text = cfgmod.serialize_config(cfg)
    again = cfgmod.parse_config(io.StringIO(text))
    assert again == cfg


def _mms_scenario(case: str) -> sc.Scenario:
    mms = sc.mms_case(case)
    return sc.Scenario(name=f"mms_{case}", laws=mms.laws, a=mms.a, length=mms.length, n=33,
                       generator="mms", t_end=0.25, mms_id=case)


# every battery scenario and the manufactured solution, at non-default run controls
ROUND_TRIP_CONFIGS = [cfgmod.RunConfig(scen, out_dir="elsewhere", seed=11)
                      for scen in sc.builtin_battery() + [_mms_scenario("exponential")]]


def test_round_trip_of_battery_config():
    for cfg in ROUND_TRIP_CONFIGS:
        again = cfgmod.parse_config(io.StringIO(cfgmod.serialize_config(cfg)))
        assert again == cfg, cfg.scenario.name
        params = cfg.scenario.gen_params.values()
        assert [type(v) for v in again.scenario.gen_params.values()] == [type(v) for v in params]


# a valid value other than the default for every key of the dataclass-backed
# sections that set no part of the scenario
NON_DEFAULT_RUN = {
    "run": (cfgmod.RunConfig, dict(out_dir="elsewhere", seed=5, dump_fields=True)),
    "sweep": (cfgmod.SweepConfig, dict(axis="kappa", values=(2.0, 3.0), workers=4)),
    "converge": (cfgmod.ConvergeConfig, dict(n_values=(17, 33), dt_scaling="quadratic")),
}


def test_the_format_is_described_once_for_parsing_and_serializing():
    # every key that serialize_config writes is a known key of its section
    for cfg in ROUND_TRIP_CONFIGS:
        written = configparser.ConfigParser(interpolation=None)
        written.read_string(cfgmod.serialize_config(cfg))
        for section in written.sections():
            known = [key.lower() for key in cfgmod._SECTIONS[section]]
            assert section == "initial" or set(written.options(section)) <= set(known), section
    # each dataclass-backed section's keys are its dataclass's fields, but for
    # the nested config
    for section, cls in (("run", cfgmod.RunConfig), ("material", mat.MaterialLaws),
                         ("time", dyn.SchemeConfig), ("monitors", diag.MonitorConfig),
                         ("sweep", cfgmod.SweepConfig), ("converge", cfgmod.ConvergeConfig)):
        keys = cfgmod._field_keys(cls)
        assert set(keys) <= set(cfgmod._SECTIONS[section])
        assert [f.name for f in fields(cls) if f.name not in keys] in (
            [], ["scenario"], ["base"]), section
    # and each of those keys parses back into its field
    text = "[run]\nscenario = coupled\n"
    for section, (cls, values) in NON_DEFAULT_RUN.items():
        assert tuple(values) == cfgmod._field_keys(cls)
        text += "" if section == "run" else f"[{section}]\n"
        text += "".join(f"{key} = {' '.join(map(str, v)) if isinstance(v, tuple) else v}\n"
                        for key, v in values.items())
    sweep = cfgmod.parse_sweep_config(io.StringIO(text))
    conv = cfgmod.parse_converge_config(io.StringIO(text))
    for section, obj in (("run", sweep.base), ("sweep", sweep), ("converge", conv)):
        values = NON_DEFAULT_RUN[section][1]
        read = {key: getattr(obj, key) for key in values}
        assert read == values and [type(v) for v in read.values()] == [
            type(v) for v in values.values()], section


def test_initial_parameters_go_over_the_base_scenarios():
    text = "[run]\nscenario = near_alpha_limit\n\n[initial]\namp_v = 0.2\n"
    cfg = cfgmod.parse_config(io.StringIO(text))
    base = sc.battery_scenario("near_alpha_limit")
    assert cfg.scenario.gen_params == {**base.gen_params, "amp_v": 0.2}
    written = cfgmod.serialize_config(cfg)
    for line in ("amp_u = 0.05", "amp_v = 0.2", "theta_base = 1.0", "theta_amp = 0.1"):
        assert line in written
    assert cfgmod.parse_config(io.StringIO(written)) == cfg


def test_another_generator_drops_the_base_scenarios_parameters():
    run = "[run]\nscenario = coupled\n\n[initial]\n"
    cfg = cfgmod.parse_config(io.StringIO(run + "generator = zero\n"))
    assert (cfg.scenario.generator, cfg.scenario.gen_params) == ("zero", {})
    cfg = cfgmod.parse_config(io.StringIO(run + "generator = heat_eigenmode\nk = 2\n"))
    assert (cfg.scenario.generator, cfg.scenario.gen_params) == ("heat_eigenmode", {"k": 2})


def test_name_names_a_run_of_a_battery_scenario(tmp_path):
    text = COUPLED_INI.replace("scenario = coupled", "scenario = coupled\nname = my_run")
    out = tmp_path / "out"
    assert cli.cmd_run(write_ini(tmp_path, text)) == cli.EXIT_OK
    assert json.loads((out / "summary.json").read_text())["scenario"] == "my_run"
    assert "name = my_run" in (out / "config.ini").read_text()


COUPLED_SERIALIZED = """\
[run]
scenario = custom
name = coupled
out_dir = runs/out
seed = 0
dump_fields = False

[material]
gamma_family = saturating
f_family = linear
gamma0 = 1.0
delta = 0.1
k_f = 1.0
alpha = 1.0

[domain]
l = 1.0
n = 129
a = 1.0

[initial]
generator = coupled_smooth
amp_u = 0.1
amp_v = 0.5
theta_base = 1.0
theta_amp = 0.25

[time]
t_end = 1.0
scheme = imex_be
dt_initial = 0.001
dt_max = 0.001
positivity_policy = clamp_and_count
adaptive = False

[monitors]
q = 2.0
kappa = 1.0
t0 = 1.0
cadence = 1
blowup_threshold = 10000.0
blowup_window = 16
blowup_rate_min = 0.2

"""


def test_serialized_battery_config_is_pinned():
    # the key order of each section is part of every run's config.ini
    cfg = cfgmod.RunConfig(scenario=sc.battery_scenario("coupled"))
    assert cfgmod.serialize_config(cfg) == COUPLED_SERIALIZED


# a valid value other than the default for every key of the key tables
NON_DEFAULT = {
    "material": dict(gamma_family="saturating", f_family="power", gamma0=1.5, delta=0.25,
                     K_f=0.75, alpha=1.25),
    "time": dict(scheme="imex_cn", dt_initial=2.5e-4, dt_max=5e-3,
                 positivity_policy="reject_step", adaptive=True),
    "monitors": dict(q=3.0, kappa=2.5, T0=0.5, cadence=3, blowup_threshold=1e3,
                     blowup_window=8, blowup_rate_min=0.5),
}


def test_every_table_key_round_trips_at_a_non_default_value():
    def keys(cls):  # the keys of the dataclass-backed section read by their field's type
        return tuple(k for k in cfgmod._field_keys(cls) if k not in cfgmod._TABLE_KEYS)

    tables = {"material": (keys(mat.MaterialLaws), mat.MaterialLaws(), "laws"),
              "time": (keys(dyn.SchemeConfig), dyn.SchemeConfig(), "scheme"),
              "monitors": (keys(diag.MonitorConfig), diag.MonitorConfig(), "monitors")}
    scen = sc.battery_scenario("coupled")
    for section, (keys, default, attr) in tables.items():
        values = NON_DEFAULT[section]
        assert tuple(values) == keys
        assert all(values[k] != getattr(default, k) for k in keys)
        scen = replace(scen, **{attr: replace(default, **values)})
    cfg = cfgmod.RunConfig(scenario=scen)
    text = cfgmod.serialize_config(cfg)
    again = cfgmod.parse_config(io.StringIO(text))
    assert again == cfg
    for section, (keys, _, attr) in tables.items():
        obj = getattr(again.scenario, attr)
        read = {k: getattr(obj, k) for k in keys}
        assert read == NON_DEFAULT[section]
        assert [type(v) for v in read.values()] == [type(v) for v in NON_DEFAULT[section].values()]
    # each key read alone from a file that sets only it
    for section, values in NON_DEFAULT.items():
        for key, value in values.items():
            one = cfgmod.parse_config(io.StringIO(
                f"[run]\nscenario = coupled\n[{section}]\n{key} = {value}\n"))
            obj = getattr(one.scenario, tables[section][2])
            assert getattr(obj, key) == value and type(getattr(obj, key)) is type(value), key


MALFORMED = {
    "no_section_header": (cfgmod.parse_config, "scenario = coupled\n"),
    "duplicate_key": (cfgmod.parse_config, "[run]\nscenario = coupled\nseed = 1\nseed = 2\n"),
    "sweep_values": (cfgmod.parse_sweep_config,
                     "[run]\nscenario = coupled\n[sweep]\naxis = delta\nvalues = 0.1 abc\n"),
    "converge_n_values": (cfgmod.parse_converge_config,
                          "[run]\nscenario = heat_eigenmode\n[converge]\nn_values = 17 x\n"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_config_is_a_config_error(tmp_path, case):
    parse, text = MALFORMED[case]
    with pytest.raises(ConfigError) as err:
        parse(io.StringIO(text))
    if case.endswith("values"):
        field = case.split("_", 1)[1]
        assert f"{field} = " in str(err.value)
    path = tmp_path / "bad.ini"
    path.write_text(text)
    with pytest.raises(ConfigError):
        parse(str(path))


def test_parse_error_of_a_file_object_names_the_file(tmp_path):
    path = tmp_path / "headless.ini"
    path.write_text(MALFORMED["no_section_header"][1])
    with open(path) as fh, pytest.raises(ConfigError) as err:
        cfgmod.parse_config(fh)
    assert str(path) in str(err.value)
    with pytest.raises(ConfigError) as err:
        cfgmod.parse_config(str(path))
    assert str(path) in str(err.value)


# --------------------------------------------------------------------------
# sweep / converge configs
# --------------------------------------------------------------------------


def test_apply_axis_each():
    cfg = cfgmod.parse_config(io.StringIO("[run]\nscenario = coupled\n"))
    assert cfgmod.apply_axis(cfg, "delta", 0.2).scenario.laws.delta == 0.2
    assert cfgmod.apply_axis(cfg, "alpha", 1.3).scenario.laws.alpha == 1.3
    assert cfgmod.apply_axis(cfg, "kappa", 3.0).scenario.monitors.kappa == 3.0
    assert cfgmod.apply_axis(cfg, "grid_n", 65).scenario.n == 65
    out = cfgmod.apply_axis(cfg, "dt", 2e-4)
    assert out.scenario.scheme.dt_initial == 2e-4
    with pytest.raises(ConfigError):
        cfgmod.apply_axis(cfg, "bogus", 1.0)


def test_parse_sweep(tmp_path):
    text = COUPLED_INI + "\n[sweep]\naxis = delta\nvalues = 0.0, 0.05, 0.1\n"
    sweep = cfgmod.parse_sweep_config(io.StringIO(text.format(out=tmp_path / "o")))
    assert sweep.axis == "delta"
    assert sweep.values == (0.0, 0.05, 0.1)


def test_parse_sweep_errors(tmp_path):
    no_section = COUPLED_INI.format(out=tmp_path / "o")
    with pytest.raises(ConfigError):
        cfgmod.parse_sweep_config(io.StringIO(no_section))
    bad_axis = no_section + "\n[sweep]\naxis = nope\nvalues = 1\n"
    with pytest.raises(ConfigError):
        cfgmod.parse_sweep_config(io.StringIO(bad_axis))
    empty = no_section + "\n[sweep]\naxis = delta\nvalues =\n"
    with pytest.raises(ConfigError):
        cfgmod.parse_sweep_config(io.StringIO(empty))


def test_parse_converge(tmp_path):
    text = COUPLED_INI + "\n[converge]\nn_values = 33, 65\ndt_scaling = quadratic\n"
    conv = cfgmod.parse_converge_config(io.StringIO(text.format(out=tmp_path / "o")))
    assert conv.n_values == (33, 65)
    assert conv.dt_scaling == "quadratic"


# --------------------------------------------------------------------------
# cmd_run
# --------------------------------------------------------------------------

STATIONARY_INI = """
[run]
scenario = stationary
out_dir = {out}

[time]
T_end = 0.05
"""


def test_cmd_run_stationary_zero_drift(tmp_path):
    out = tmp_path / "made" / "by" / "run"  # nested: created automatically
    path = write_ini(tmp_path, STATIONARY_INI, out=str(out))
    code = cli.cmd_run(path, out_dir=str(out))
    assert code == cli.EXIT_OK
    rows = np.genfromtxt(out / "timeseries.csv", delimiter=",", names=True)
    assert np.all(np.abs(rows["drift"]) < 1e-10)
    assert (out / "summary.json").exists()
    assert (out / "final_state.csv").exists()


def test_cmd_run_rejects_alpha_out_of_range(tmp_path, capsys):
    text = COUPLED_INI + "\n[material]\nf_family = power\nalpha = 1.6\n"
    path = write_ini(tmp_path, text)
    code = cli.cmd_run(path)
    assert code == cli.EXIT_CONFIG
    assert "alpha" in capsys.readouterr().err


def test_cmd_run_deterministic_artifacts(tmp_path):
    path = write_ini(tmp_path, COUPLED_INI)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.cmd_run(path, out_dir=str(out1), seed=5) == cli.EXIT_OK
    assert cli.cmd_run(path, out_dir=str(out2), seed=5) == cli.EXIT_OK
    assert (out1 / "timeseries.csv").read_bytes() == (out2 / "timeseries.csv").read_bytes()
    assert (out1 / "final_state.csv").read_bytes() == (out2 / "final_state.csv").read_bytes()


def test_cmd_run_missing_config(tmp_path):
    assert cli.cmd_run(str(tmp_path / "nope.ini")) == cli.EXIT_CONFIG


DUMP_INI = """
[run]
scenario = stationary
out_dir = {out}
dump_fields = true

[time]
T_end = 0.05

[monitors]
cadence = 10
"""


def test_cmd_run_field_dumps_at_cadence(tmp_path):
    out = tmp_path / "dumps"
    path = write_ini(tmp_path, DUMP_INI, out=str(out))
    assert cli.cmd_run(path, out_dir=str(out)) == cli.EXIT_OK
    dumps = sorted((out / "fields").glob("fields_*.csv"))
    rows = np.genfromtxt(out / "timeseries.csv", delimiter=",", names=True)
    assert len(dumps) == len(np.atleast_1d(rows))
    first = np.genfromtxt(dumps[0], delimiter=",", names=True)
    assert set(first.dtype.names) == {"x", "u", "v", "theta"}


def test_field_dumps_are_the_sampled_states_written_as_final_state(tmp_path):
    # cadence 3 over 50 steps: samples at steps 0, 3, ..., 48 and the final 50
    text = COUPLED_INI.replace("seed = 11\n", "seed = 11\ndump_fields = true\n") \
        + "\n[monitors]\ncadence = 3\n"
    out = tmp_path / "dumps"
    path = write_ini(tmp_path, text, out=str(out))
    assert cli.cmd_run(path, out_dir=str(out)) == cli.EXIT_OK
    dumps = sorted((out / "fields").glob("fields_*.csv"))
    assert [p.name for p in dumps] == [f"fields_{i:05d}.csv" for i in range(18)]

    snaps = dyn.Snapshots()
    traj = dyn.run(cfgmod.parse_config(path).scenario, recorders=[snaps])
    assert len(snaps.states) == len(traj.rows) == 18
    for dump, state in zip(dumps, snaps.states):
        ref = tmp_path / "ref.csv"
        cli.write_final_state(state, traj.grid, str(ref))
        assert dump.read_bytes() == ref.read_bytes()
    assert dumps[-1].read_bytes() == (out / "final_state.csv").read_bytes()


def test_a_shorter_rerun_leaves_only_its_own_field_dumps(tmp_path):
    # 10 steps at cadence 2 dump 6 states, then 4 steps into the same
    # directory dump 3: the first run's last three go, and no other file;
    # then the same 4 steps without dumps leave none
    text = COUPLED_INI + "\n[monitors]\ncadence = 2\n"
    out, kept = tmp_path / "dumps", []
    for t_end, dump, count in (("0.01", True, 6), ("0.004", True, 3), ("0.004", False, 3)):
        ini = text.replace("T_end = 0.05", f"T_end = {t_end}") \
            .replace("seed = 11\n", f"seed = 11\ndump_fields = {dump}\n")
        path = write_ini(tmp_path, ini, out=str(out))
        assert cli.cmd_run(path, out_dir=str(out)) == cli.EXIT_OK
        rows = np.atleast_1d(np.genfromtxt(out / "timeseries.csv", delimiter=",", names=True))
        names = sorted(p.name for p in (out / "fields").iterdir())
        assert len(rows) == count
        assert names == sorted([f"fields_{i:05d}.csv" for i in range(count if dump else 0)] + kept)
        kept = ["fields_notes.csv", "fields_00001.txt", "notes.txt"]
        for name in kept:
            (out / "fields" / name).write_text("kept\n")


def test_a_sweep_rerun_without_dumps_leaves_no_field_dumps(tmp_path):
    # a 2-point batch whose points dump 6 states each, then the same sweep
    # without dumps into the same directory: no point keeps a dump, and no
    # other file goes
    text = COUPLED_INI + "\n[monitors]\ncadence = 2\n[sweep]\naxis = delta\nvalues = 0.0, 0.1\n"
    out = tmp_path / "out"
    kept = ["fields_notes.csv", "fields_00001.txt", "notes.txt"]
    for dump, count in ((True, 6), (False, 0)):
        ini = text.replace("T_end = 0.05", "T_end = 0.01") \
            .replace("seed = 11\n", f"seed = 11\ndump_fields = {dump}\n")
        path = write_ini(tmp_path, ini, name="sweep.ini")
        assert cli.main(["sweep", "--config", path, "--workers", "1", "--out", str(out)]) \
            == cli.EXIT_OK
        for point in ("point_delta_00", "point_delta_01"):
            names = sorted(p.name for p in (out / point / "fields").iterdir())
            assert names == sorted([f"fields_{i:05d}.csv" for i in range(count)]
                                   + (kept if not dump else []))
            for name in kept:
                (out / point / "fields" / name).write_text("kept\n")


def test_a_summary_that_raises_leaves_no_artifacts(tmp_path, monkeypatch):
    # the theory constants raise while the summary is built: it surfaces out
    # of cmd_run, and no file is written
    def failing(*args, **kwargs):
        raise RuntimeError("constants failed")

    monkeypatch.setattr(diag, "theory_constants", failing)
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="constants failed"):
        cli.cmd_run(write_ini(tmp_path, COUPLED_INI), out_dir=str(out))
    assert not out.exists()


def test_a_negative_seed_is_a_config_error_before_any_step(tmp_path, monkeypatch, capsys):
    # from the file or from --seed, run and sweep exit 2: no step, no run or
    # point directory
    def no_step(*args, **kwargs):
        raise AssertionError("stepped")

    monkeypatch.setattr(dyn, "simulate", no_step)
    bad = write_ini(tmp_path, COUPLED_INI.replace("seed = 11", "seed = -1"), name="bad.ini")
    good = write_ini(tmp_path, COUPLED_INI)
    sweep = write_ini(tmp_path, COUPLED_INI + "\n[sweep]\naxis = delta\nvalues = 0.0, 0.1\n",
                      name="sweep.ini")
    for argv in (["run", "--config", bad], ["run", "--config", good, "--seed", "-1"],
                 ["sweep", "--config", sweep, "--seed", "-1", "--workers", "1"]):
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert "seed must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_nan_row_mid_run_makes_the_bounds_maxima_nan():
    # as for the drift: a NaN in a middle row is not skipped
    traj = dyn.run(replace(sc.battery_scenario("coupled"), t_end=0.01))
    for c in ("E_kin", "E_el", "mass_theta"):
        traj.rows.values[5, diag.DIAG_COLUMNS.index(c)] = np.nan
    bounds = cli._bounds_block(traj)
    assert all(np.isnan(bounds[k]["observed_max"]) for k in ("int_v2", "int_ux2", "int_theta"))


@pytest.mark.parametrize("gamma0", [None, 1.3], ids=["coupled.ini", "gamma0=1.3"])
def test_K_est_is_the_closed_form_gamma0_to_the_minus_4(tmp_path, gamma0):
    # K(4, D) >= D^-4 with D = gamma0, and delta_est and kappa_est follow from it
    path = os.path.join(os.path.dirname(__file__), "..", "demos", "config", "coupled.ini")
    if gamma0 is not None:
        path = write_ini(tmp_path, COUPLED_INI + f"\n[material]\ngamma0 = {gamma0}\n")
    out = tmp_path / "out"
    assert cli.cmd_run(path, out_dir=str(out)) == cli.EXIT_OK
    scen = cfgmod.parse_config(path).scenario
    assert scen.laws.gamma0 == (1.0 if gamma0 is None else gamma0)
    consts = json.loads((out / "summary.json").read_text())["theory_constants"]
    K = scen.laws.gamma0 ** -4
    assert consts["K_est"]["value"].hex() == K.hex()
    assert consts["K_est"]["provenance"].startswith("closed form")
    ref = diag.theory_constants(K, scen.a, scen.monitors.T0, scen.laws.alpha)
    assert consts["delta_est"]["value"].hex() == ref.delta_est.hex()
    assert consts["kappa_est"]["value"].hex() == ref.kappa_est.hex()


def test_a_run_and_a_sweep_fork_no_process(tmp_path, monkeypatch):
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    run = write_ini(tmp_path, COUPLED_INI)
    sweep = write_ini(tmp_path, COUPLED_INI + "\n[sweep]\naxis = delta\nvalues = 0.0, 0.1\n",
                      name="sweep.ini")
    assert cli.main(["run", "--config", run, "--out", str(tmp_path / "run")]) == cli.EXIT_OK
    assert cli.main(["sweep", "--config", sweep, "--workers", "1",
                     "--out", str(tmp_path / "sweep")]) == cli.EXIT_OK
    assert forks == []
    assert (tmp_path / "sweep" / "point_delta_01" / "summary.json").exists()


def _no_fork():
    raise BlockingIOError(11, "Resource temporarily unavailable")


def test_artifacts_are_the_same_with_and_without_a_k_child(tmp_path, monkeypatch):
    # K_est needs no process of its own: a run whose os.fork fails writes the
    # same bytes as one that could fork
    path = write_ini(tmp_path, COUPLED_INI)
    assert cli.cmd_run(path, out_dir=str(tmp_path / "fork")) == cli.EXIT_OK
    monkeypatch.setattr(os, "fork", _no_fork)
    assert cli.cmd_run(path, out_dir=str(tmp_path / "no_fork")) == cli.EXIT_OK
    for f in ("timeseries.csv", "final_state.csv", "summary.json"):
        assert (tmp_path / "fork" / f).read_bytes() == (tmp_path / "no_fork" / f).read_bytes()


def test_a_run_that_cannot_fork_probes_k_itself(tmp_path, monkeypatch):
    # with os.fork refused the run still reports K_est, by the closed form
    # gamma0^-4 and without marching estimate_K
    monkeypatch.setattr(os, "fork", _no_fork)
    calls = []
    monkeypatch.setattr(diag, "estimate_K", lambda *a, **k: calls.append(1))
    out = tmp_path / "out"
    assert cli.cmd_run(write_ini(tmp_path, COUPLED_INI), out_dir=str(out)) == cli.EXIT_OK
    consts = json.loads((out / "summary.json").read_text())["theory_constants"]
    assert consts["K_est"]["value"] == 1.0 and calls == []


def test_a_sweep_that_cannot_fork_probes_k_itself(tmp_path, monkeypatch):
    text = COUPLED_INI + "\n[sweep]\naxis = delta\nvalues = 0.0, 0.05, 0.1\n"
    path = write_ini(tmp_path, text, name="sweep.ini")
    assert cli.cmd_sweep(path, out_dir=str(tmp_path / "fork"), workers=1) == cli.EXIT_OK
    monkeypatch.setattr(os, "fork", _no_fork)
    calls = []
    monkeypatch.setattr(diag, "estimate_K", lambda *a, **k: calls.append(1))
    assert cli.cmd_sweep(path, out_dir=str(tmp_path / "no_fork"), workers=1) == cli.EXIT_OK
    assert calls == []
    for i in range(3):
        for f in ("timeseries.csv", "final_state.csv", "summary.json"):
            a, b = (tmp_path / side / f"point_delta_{i:02d}" / f for side in ("fork", "no_fork"))
            assert a.read_bytes() == b.read_bytes()
        consts = json.loads(b.read_text())["theory_constants"]
        assert consts["K_est"]["value"] == 1.0
    assert (tmp_path / "fork" / "sweep.csv").read_bytes() == (tmp_path / "no_fork" / "sweep.csv").read_bytes()


def test_a_sweep_task_with_no_valid_point_starts_no_k_child(tmp_path, monkeypatch):
    # alpha = 0.8 and 0.7 break the growth bound of the linear coupling
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    text = COUPLED_INI + "\n[sweep]\naxis = alpha\nvalues = 0.8, 0.7\n"
    path = write_ini(tmp_path, text, name="sweep.ini")
    assert cli.cmd_sweep(path, out_dir=str(tmp_path / "sw"), workers=1) == cli.EXIT_SOLVER
    assert forks == []
    assert not list((tmp_path / "sw").glob("point_*"))


def test_k_trials_is_an_unknown_key(tmp_path, capsys):
    # K_est is a closed form: no config key sets a number of K trials
    path = write_ini(tmp_path, COUPLED_INI.replace("seed = 11\n", "seed = 11\nk_trials = 3\n"))
    with pytest.raises(ConfigError, match="k_trials"):
        cfgmod.parse_config(path)
    assert cli.main(["run", "--config", path]) == cli.EXIT_CONFIG
    assert "k_trials" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _step_raising_after(monkeypatch, calls, exc):
    real = dyn.step_with_count
    seen = []

    def step(*args, **kwargs):
        seen.append(None)
        if len(seen) > calls:
            raise exc
        return real(*args, **kwargs)

    monkeypatch.setattr(dyn, "step_with_count", step)


def test_run_that_raises_leaves_no_field_dumps(tmp_path, monkeypatch):
    text = COUPLED_INI.replace("seed = 11\n", "seed = 11\ndump_fields = true\n")
    out = tmp_path / "dumps"
    path = write_ini(tmp_path, text, out=str(out))
    # 7 steps at cadence 1 have written 8 dumps when the step raises
    _step_raising_after(monkeypatch, 7, DomainError("viscosity must stay positive"))
    assert cli.cmd_run(path, out_dir=str(out)) == cli.EXIT_SOLVER
    assert not (out / "fields").exists()

    # a fields directory that was there before keeps what it held
    (out / "fields").mkdir(parents=True)
    (out / "fields" / "notes.txt").write_text("kept\n")
    assert cli.cmd_run(path, out_dir=str(out)) == cli.EXIT_SOLVER
    assert [p.name for p in (out / "fields").iterdir()] == ["notes.txt"]


def test_sweep_point_that_raises_leaves_no_field_dumps(tmp_path, monkeypatch):
    text = COUPLED_INI.replace("seed = 11\n", "seed = 11\ndump_fields = true\n")
    path = write_ini(tmp_path, text, out=str(tmp_path / "o"))
    sub = tmp_path / "point"
    _step_raising_after(monkeypatch, 5, RuntimeError("boom"))
    [row] = cli._sweep_point((cfgmod.parse_config(path), "delta", (0.2,), (str(sub),)))
    assert row["status"] == "failed"
    assert row["error"] == "RuntimeError: boom"
    assert not (sub / "fields").exists()


def test_parse_tabulated_law_from_file(tmp_path):
    table = tmp_path / "gamma.txt"
    table.write_text("0.0 1.0\n1.0 1.08\n3.0 1.1\n")
    text = COUPLED_INI + f"\n[material]\ngamma_family = tabulated\ngamma_table = {table}\n"
    cfg = cfgmod.parse_config(io.StringIO(text.format(out=tmp_path / "o")))
    laws = cfg.scenario.laws
    assert laws.gamma_family == "tabulated"
    assert laws.gamma_table.shape == (3, 2)
    from viscowave.material import eval_gamma
    assert eval_gamma(laws, 0.5) == pytest.approx(1.04)
    assert eval_gamma(laws, 99.0) == pytest.approx(1.1)  # clamped past last knot
    # a table file that is not numbers is a config error naming the key, not a traceback
    table.write_text("x gamma\n0.0 1.0\n")
    with pytest.raises(ConfigError, match=r"\[material\] gamma_table"):
        cfgmod.parse_config(io.StringIO(text.format(out=tmp_path / "o")))


def test_main_entry_run(tmp_path):
    path = write_ini(tmp_path, STATIONARY_INI, out=str(tmp_path / "o"))
    assert cli.main(["run", "--config", path]) == cli.EXIT_OK


BLOWUP_INI = """
[run]
scenario = coupled
out_dir = {out}

[time]
T_end = 0.05

[monitors]
; degenerate detector settings: any bounded trajectory trips it
blowup_threshold = 1e-9
blowup_rate_min = -100.0
blowup_window = 4
"""


def test_cmd_run_blowup_halt_exit_code(tmp_path, capsys):
    path = write_ini(tmp_path, BLOWUP_INI, out=str(tmp_path / "b"))
    code = cli.cmd_run(path, out_dir=str(tmp_path / "b"))
    assert code == cli.EXIT_BLOWUP
    assert "blow-up detector fired" in capsys.readouterr().err
    # partial artifacts are still written
    assert (tmp_path / "b" / "timeseries.csv").exists()


def test_cmd_run_solver_failure_exit_code(tmp_path, capsys, monkeypatch):
    # an unattainable solve tolerance turns the first residual check into a
    # hard step failure; the run aborts with the solver exit code
    monkeypatch.setattr(dyn, "SOLVER_TOL", 1e-30)
    path = write_ini(tmp_path, COUPLED_INI, out=str(tmp_path / "s"))
    code = cli.cmd_run(path, out_dir=str(tmp_path / "s"))
    assert code == cli.EXIT_SOLVER
    assert "solver failure" in capsys.readouterr().err


# --------------------------------------------------------------------------
# cmd_sweep
# --------------------------------------------------------------------------


def test_cmd_sweep_delta(tmp_path):
    text = COUPLED_INI + "\n[sweep]\naxis = delta\nvalues = 0.0, 0.05, 0.1\n"
    path = write_ini(tmp_path, text, name="sweep.ini", out=str(tmp_path / "sw"))
    code = cli.cmd_sweep(path, out_dir=str(tmp_path / "sw"))
    assert code == cli.EXIT_OK
    agg = (tmp_path / "sw" / "sweep.csv").read_text().strip().splitlines()
    assert len(agg) == 4  # header + 3 points
    assert all("completed" in line for line in agg[1:])
    assert all("False" in line.split(",")[4] for line in agg[1:])  # no blow-up
    for i in range(3):
        assert (tmp_path / "sw" / f"point_delta_{i:02d}" / "timeseries.csv").exists()


class _InlinePool:
    """A process pool that runs its tasks in this process and keeps them."""

    tasks: list = []

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        tasks = list(tasks)
        _InlinePool.tasks = tasks
        return map(fn, tasks)


@pytest.mark.parametrize("axis,values,tasks", [
    ("delta", "0.0, 0.05, 0.1", [(0.0, 0.05), (0.1,)]),
    ("kappa", "1.0, 2.0, 3.0, 4.0", [(1.0, 2.0), (3.0, 4.0)]),
    ("grid_n", "17, 33, 65", [(17.0,), (33.0,), (65.0,)]),
    ("dt", "1e-3, 5e-4", [(1e-3,), (5e-4,)]),
    ("delta, adaptive", "0.0, 0.05, 0.1", [(0.0, 0.05), (0.1,)]),
])
def test_sweep_tasks_per_axis(tmp_path, monkeypatch, axis, values, tasks):
    # delta, alpha and kappa points go to the workers as ensembles of
    # ceil(points / workers), whatever the scheme (simulate runs adaptive
    # members one after another); grid_n and dt points one per task
    axis, *adaptive = axis.split(", ")
    text = COUPLED_INI + "adaptive = true\n" * len(adaptive)
    text += f"\n[sweep]\naxis = {axis}\nvalues = {values}\n"
    path = write_ini(tmp_path, text, name="sweep.ini", out=str(tmp_path / "sw"))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    assert cli.cmd_sweep(path, out_dir=str(tmp_path / "sw"), workers=2) == cli.EXIT_OK
    assert [t[2] for t in _InlinePool.tasks] == tasks
    rows = list(csv.DictReader(open(tmp_path / "sw" / "sweep.csv", newline="")))
    assert [r["status"] for r in rows] == ["completed"] * len(values.split(","))


def test_ensemble_sweep_points_are_byte_identical_to_solo_points(tmp_path, monkeypatch):
    text = COUPLED_INI.replace("seed = 11\n", "seed = 11\ndump_fields = true\n")
    text += "\n[sweep]\naxis = alpha\nvalues = 1.0, 1.2, 1.4\n"
    path = write_ini(tmp_path, text, name="sweep.ini", out=str(tmp_path / "sw"))
    sims = []
    simulate = dyn.simulate
    monkeypatch.setattr(dyn, "simulate", lambda *a, **k: sims.append(1) or simulate(*a, **k))
    assert cli.cmd_sweep(path, out_dir=str(tmp_path / "sw"), workers=1) == cli.EXIT_OK
    assert len(sims) == 1  # the three points were one batch
    base = cfgmod.parse_config(path)
    sweep_rows = list(csv.DictReader(open(tmp_path / "sw" / "sweep.csv", newline="")))
    for i, value in enumerate((1.0, 1.2, 1.4)):
        point = tmp_path / "sw" / f"point_alpha_{i:02d}"
        solo = tmp_path / f"solo_{i}"
        [row] = cli._sweep_point((base, "alpha", (value,), (str(solo),)))
        assert {k: str(v) for k, v in row.items()} == sweep_rows[i]
        names = sorted(p.relative_to(solo).as_posix() for p in solo.rglob("*.csv"))
        assert "fields/fields_00050.csv" in names and "summary.json" not in names
        for name in names + ["summary.json"]:
            assert (point / name).read_bytes() == (solo / name).read_bytes(), name
    assert len(sims) == 4


def test_ensemble_batches_only_its_valid_points(tmp_path, monkeypatch):
    # alpha = 0.8 breaks the growth bound of the linear coupling: that point
    # fails on its own, and the other two still run as one batch
    text = COUPLED_INI + "\n[sweep]\naxis = alpha\nvalues = 1.0, 0.8, 1.2\n"
    path = write_ini(tmp_path, text, name="sweep.ini", out=str(tmp_path / "sw"))
    sims = []
    simulate = dyn.simulate
    monkeypatch.setattr(dyn, "simulate", lambda *a, **k: sims.append(a[3]) or simulate(*a, **k))
    assert cli.cmd_sweep(path, out_dir=str(tmp_path / "sw"), workers=1) == cli.EXIT_SOLVER
    assert len(sims) == 1 and len(sims[0]) == 2
    rows = list(csv.DictReader(open(tmp_path / "sw" / "sweep.csv", newline="")))
    base = cfgmod.parse_config(path)
    solo = [row for v in (1.0, 0.8, 1.2)
            for row in cli._sweep_point((base, "alpha", (v,), (str(tmp_path / f"solo_{v}"),)))]
    assert rows == [{k: str(v) for k, v in r.items()} for r in solo]
    assert [r["status"] for r in rows] == ["completed", "failed", "completed"]
    assert "hypothesis validation" in rows[1]["error"]


def test_ensemble_that_raises_outside_the_package_is_reported_and_run_point_by_point(
        tmp_path, monkeypatch, capsys):
    text = COUPLED_INI + "\n[sweep]\naxis = delta\nvalues = 0.0, 0.05\n"
    path = write_ini(tmp_path, text, name="sweep.ini", out=str(tmp_path / "sw"))
    simulate = dyn.simulate

    def batch_fault(laws, a, grid_, data, *args, **kw):
        if isinstance(data, list) and len(data) > 1:  # a solo run is a list of one
            raise TypeError("fault in the batch")
        return simulate(laws, a, grid_, data, *args, **kw)

    monkeypatch.setattr(dyn, "simulate", batch_fault)
    assert cli.cmd_sweep(path, out_dir=str(tmp_path / "sw"), workers=1) == cli.EXIT_OK
    err = capsys.readouterr().err
    assert "ensemble run failed" in err and "TypeError: fault in the batch" in err
    rows = list(csv.DictReader(open(tmp_path / "sw" / "sweep.csv", newline="")))
    assert [r["status"] for r in rows] == ["completed", "completed"]


def test_a_sweep_reads_its_config_once(tmp_path, monkeypatch):
    # the tasks carry the parsed config, --seed included: the points do not
    # read the file again
    text = COUPLED_INI + "\n[sweep]\naxis = delta\nvalues = 0.0, 0.05, 0.1\n"
    path = write_ini(tmp_path, text, name="sweep.ini", out=str(tmp_path / "sw"))
    loads = []
    load = cfgmod._load
    monkeypatch.setattr(cfgmod, "_load", lambda source: loads.append(source) or load(source))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    assert cli.cmd_sweep(path, out_dir=str(tmp_path / "sw"), workers=2, seed=7) == cli.EXIT_OK
    assert loads == [path] and len(_InlinePool.tasks) == 2
    assert [task[0].seed for task in _InlinePool.tasks] == [7, 7]
    summary = json.loads((tmp_path / "sw" / "point_delta_02" / "summary.json").read_text())
    assert summary["seed"] == 7
    assert pickle.loads(pickle.dumps(_InlinePool.tasks)) == _InlinePool.tasks  # as a pool sends them


def test_cmd_sweep_records_failing_point_and_exits_solver(tmp_path, monkeypatch, capsys):
    # one point raises an exception that is not a ViscowaveError; the other
    # points are still run and written, and the sweep exits non-zero
    text = COUPLED_INI + "\n[sweep]\naxis = delta\nvalues = 0.0, 0.05, 0.1\n"
    out = tmp_path / "sw"
    path = write_ini(tmp_path, text, name="sweep.ini", out=str(out))
    real_run = cli.dyn.run

    def run(scenario, **kwargs):
        if scenario.laws.delta == 0.05:
            raise RuntimeError("injected fault, with a comma")
        return real_run(scenario, **kwargs)

    monkeypatch.setattr(cli.dyn, "run", run)
    code = cli.main(["sweep", "--config", path, "--out", str(out), "--workers", "1"])
    assert code == cli.EXIT_SOLVER
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["status"] for r in rows] == ["completed", "failed", "completed"]
    assert rows[1]["error"] == "RuntimeError: injected fault, with a comma"
    for i in (0, 2):
        assert (out / f"point_delta_{i:02d}" / "timeseries.csv").exists()
    assert "RuntimeError" in capsys.readouterr().err


def test_cmd_sweep_blowup_exit_code(tmp_path):
    text = BLOWUP_INI + "\n[sweep]\naxis = delta\nvalues = 0.0, 0.1\n"
    path = write_ini(tmp_path, text, name="sweep.ini", out=str(tmp_path / "sb"))
    assert cli.cmd_sweep(path, out_dir=str(tmp_path / "sb")) == cli.EXIT_BLOWUP


def test_cmd_sweep_bad_config(tmp_path):
    path = write_ini(tmp_path, COUPLED_INI)  # no [sweep] section
    assert cli.cmd_sweep(path) == cli.EXIT_CONFIG


@pytest.mark.parametrize("command,case", [
    ("cmd_run", "no_section_header"),
    ("cmd_run", "duplicate_key"),
    ("cmd_sweep", "sweep_values"),
    ("cmd_sweep", "duplicate_key"),
    ("cmd_converge", "converge_n_values"),
    ("cmd_converge", "no_section_header"),
])
def test_malformed_config_exits_with_config_error(tmp_path, capsys, command, case):
    path = tmp_path / "bad.ini"
    path.write_text(MALFORMED[case][1])
    assert getattr(cli, command)(str(path), out_dir=str(tmp_path / "out")) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_config_values_are_read_literally(tmp_path):
    # a % is an ordinary character: a name with one runs, and the config.ini
    # it writes re-creates the run
    text = CUSTOM_INI.replace("name = my_experiment", "name = run 50%").replace(
        "T_end = 0.1", "T_end = 0.01")
    path = write_ini(tmp_path, text)
    out = tmp_path / "out"
    assert cli.cmd_run(path, out_dir=str(out)) == cli.EXIT_OK
    assert cfgmod.parse_config(str(out / "config.ini")).scenario.name == "run 50%"
    assert cli.cmd_run(str(out / "config.ini"), out_dir=str(out / "again")) == cli.EXIT_OK
    for name in ("timeseries.csv", "final_state.csv", "summary.json"):
        assert (out / name).read_bytes() == (out / "again" / name).read_bytes(), name
    assert json.loads((out / "summary.json").read_text())["scenario"] == "run 50%"


def test_a_lone_percent_in_a_bad_value_is_a_config_error(tmp_path, capsys):
    path = write_ini(tmp_path, COUPLED_INI + "scheme = 50%\n")  # in [time], the last section
    assert cli.cmd_run(path, out_dir=str(tmp_path / "out")) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and "50%" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,extra,needle", [
    ("run", "[monitors]\nT0 = 0\n", "T0"),  # else theory_constants fails once the run is over
    ("run", "[domain]\na = 0\n", "elastic modulus a"),  # else a solver error from the stepper
    ("run", "[initial]\namp_x = 0.3\n", "amp_x"),  # else a TypeError from the generator
    ("sweep", "[initial]\namp_x = 0.3\n[sweep]\naxis = delta\nvalues = 0.0, 0.1\n", "amp_x"),
    # else the run's first step raises; a sweep wrote failed rows and exited 3
    ("run", "T_end = 0\n", "T_end"),
    ("sweep", "T_end = nan\n[sweep]\naxis = delta\nvalues = 0.0, 0.1\n", "T_end"),
    # the solver settings that are dynamics constants now: a file that sets
    # one, as a config.ini written before lists them all, is refused
    ("run", "solver_tol = nan\n", "unknown key [time] solver_tol"),
    ("run", "solver_tol = inf\n", "unknown key [time] solver_tol"),
    ("run", "positivity_tolerance = nan\n", "unknown key [time] positivity_tolerance"),
    ("run", "max_step_retries = -3\n", "unknown key [time] max_step_retries"),
    ("run", "cfl_safety = 0.9\n", "unknown key [time] cfl_safety"),
    # non-finite numbers: else the run exits 0 with a check switched off or
    # NaN monitors, exits 3 after 0 steps, or ends in a traceback
    ("run", "dt_initial = nan\n", "[time] dt_initial"),
    ("run", "T_end = inf\n", "[time] T_end"),
    ("run", "[monitors]\nblowup_threshold = nan\n", "[monitors] blowup_threshold"),
    ("run", "[monitors]\nq = nan\n", "[monitors] q"),
    ("run", "[monitors]\nkappa = nan\n", "[monitors] kappa"),
    ("run", "[material]\ndelta = nan\n", "[material] delta"),
    ("run", "[material]\ngamma0 = nan\n", "[material] gamma0"),
    ("run", "[domain]\nL = nan\n", "[domain] L"),
    ("run", "[initial]\namp_v = nan\n", "[initial] amp_v"),
    ("sweep", "[sweep]\naxis = delta\nvalues = 0.0, nan\n", "[sweep] values"),
    # else the first point ran at n = 33 while its sweep.csv row said 33.7
    ("sweep", "[sweep]\naxis = grid_n\nvalues = 33.7, 65\n", "grid_n takes whole numbers"),
    # else the first point failed when it ran: a failed sweep.csv row, exit 3
    ("sweep", "[sweep]\naxis = delta\nvalues = -0.1, 0.1\n",
     "[sweep] values: delta = -0.1: delta must be nonnegative"),
    ("sweep", "[sweep]\naxis = dt\nvalues = -1e-3, 1e-3\n",
     "[sweep] values: dt = -0.001: time steps must be positive"),
    # misspelt names: else the key or the section is ignored
    ("run", "[material]\ndelat = 0.3\n", "[material] delat"),
    ("run", "[monitor]\nq = 3.0\n", "[monitor]"),
    ("sweep", "[sweep]\naxis = delta\nvalues = 0.0, 0.1\nworker = 2\n", "worker"),
], ids=["run-T0", "run-a", "run-gen_param", "sweep-gen_param", "run-T_end", "sweep-T_end",
        "run-solver_tol-nan", "run-solver_tol-inf", "run-positivity_tolerance-nan",
        "run-max_step_retries-negative", "run-cfl_safety-removed",
        "run-dt_initial-nan", "run-T_end-inf", "run-blowup_threshold-nan", "run-q-nan",
        "run-kappa-nan", "run-delta-nan", "run-gamma0-nan", "run-L-nan", "run-gen_param-nan",
        "sweep-values-nan", "sweep-grid_n-fraction", "sweep-delta-negative",
        "sweep-dt-negative", "run-misspelt-key", "run-misspelt-section",
        "sweep-misspelt-key"])
def test_config_mistakes_fail_when_parsed(tmp_path, capsys, command, extra, needle):
    ini = COUPLED_INI
    if extra.startswith("T_end"):  # it replaces the [time] section's T_end, the last line
        ini = ini.replace("T_end = 0.05\n", "")
    path = write_ini(tmp_path, ini + "\n" + extra, out=str(tmp_path / "out"))
    assert cli.main([command, "--config", path]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and needle in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_adaptive_dt_below_its_floor_aborts_the_run(tmp_path, capsys, monkeypatch, command):
    # dt_max = 1e-15 asks for ~1e13 steps: the run ends at once as aborted,
    # with its artifacts, where it never ended
    real, steps = dyn.step_with_count, []

    def step(*args, **kw):
        steps.append(1)
        assert len(steps) < 100, "the run did not end"
        return real(*args, **kw)

    monkeypatch.setattr(dyn, "step_with_count", step)
    ini = COUPLED_INI.replace("T_end = 0.05", "T_end = 0.01\nadaptive = true\ndt_max = 1e-15")
    if command == "sweep":
        ini += "\n[sweep]\naxis = delta\nvalues = 0.0, 0.1\n"
    path = write_ini(tmp_path, ini, out=str(tmp_path / "out"))
    workers = ["--workers", "1"] if command == "sweep" else []  # in this process: steps counted
    assert cli.main([command, "--config", path, *workers]) == cli.EXIT_SOLVER
    assert steps == []
    runs = [tmp_path / "out"] if command == "run" else sorted((tmp_path / "out").glob("point_*"))
    assert len(runs) == (1 if command == "run" else 2)
    for run_dir in runs:
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["status"] == "aborted" and summary["steps"] == 0
        assert "adaptive dt" in summary["error"] and "1e-14" in summary["error"]
        assert len((run_dir / "timeseries.csv").read_text().splitlines()) == 2  # t = 0 only
    if command == "sweep":
        rows = list(csv.DictReader(io.StringIO((tmp_path / "out" / "sweep.csv").read_text())))
        assert [r["status"] for r in rows] == ["aborted", "aborted"]
    else:
        assert "adaptive dt" in capsys.readouterr().err


# --------------------------------------------------------------------------
# cmd_converge / mms-verify
# --------------------------------------------------------------------------

HEAT_CONV_INI = """
[run]
scenario = heat_eigenmode
out_dir = {out}

[time]
T_end = 0.25
dt_initial = 1e-3
dt_max = 1e-3

[converge]
n_values = 33, 65, 129
dt_scaling = fixed
"""


def test_cmd_converge_heat_order_two(tmp_path, capsys):
    path = write_ini(tmp_path, HEAT_CONV_INI, name="conv.ini", out=str(tmp_path / "cv"))
    code = cli.cmd_converge(path, out_dir=str(tmp_path / "cv"))
    assert code == cli.EXIT_OK
    text = capsys.readouterr().out
    order = float(text.split("observed order")[1].split()[0])
    assert 1.8 <= order <= 2.2
    assert (tmp_path / "cv" / "convergence.txt").exists()


def test_cmd_converge_stationary_degenerate(tmp_path, capsys):
    text = STATIONARY_INI + "\n[converge]\nn_values = 17, 33\n"
    path = write_ini(tmp_path, text, name="conv.ini", out=str(tmp_path / "cv"))
    assert cli.cmd_converge(path) == cli.EXIT_OK
    assert "degenerate" in capsys.readouterr().out


def test_cmd_converge_rejects_a_coupled_heat_eigenmode(tmp_path, capsys):
    # the coupling sets v moving, so theta no longer solves the heat equation
    text = HEAT_CONV_INI + "\n[material]\nf_family = linear\n"
    path = write_ini(tmp_path, text, name="conv.ini", out=str(tmp_path / "cv"))
    assert cli.cmd_converge(path) == cli.EXIT_CONFIG
    assert "no exact solution" in capsys.readouterr().err


def test_cmd_converge_rejects_generic_scenario(tmp_path, capsys):
    text = COUPLED_INI + "\n[converge]\nn_values = 17, 33\n"
    path = write_ini(tmp_path, text, name="conv.ini")
    assert cli.cmd_converge(path) == cli.EXIT_CONFIG
    assert "exact solution" in capsys.readouterr().err


MMS_INI = """
[run]
scenario = custom
name = mms_check
mms_case = exponential
out_dir = {out}

[material]
gamma_family = saturating
gamma0 = 1.0
delta = 0.1
f_family = linear
K_f = 1.0
alpha = 1.0

[domain]
L = 1.0
n = 33
a = 1.0

[initial]
generator = mms

[time]
T_end = 0.1
scheme = imex_cn
dt_initial = 2e-4
dt_max = 2e-4

[converge]
n_values = 33, 65
dt_scaling = fixed
"""


def test_cmd_mms_verify(tmp_path, capsys):
    path = write_ini(tmp_path, MMS_INI, name="mms.ini", out=str(tmp_path / "mm"))
    assert cli.main(["mms-verify", "--config", path]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "theta" in out and "observed order" in out


def test_cmd_mms_verify_computes_no_rows(tmp_path, capsys, monkeypatch):
    # the study reads only final states, so its runs carry no Rows recorder
    path = write_ini(tmp_path, MMS_INI, name="mms.ini", out=str(tmp_path / "mm"))
    assert cli.main(["mms-verify", "--config", path]) == cli.EXIT_OK
    table = capsys.readouterr().out

    def no_row(*args, **kwargs):
        raise AssertionError("a diagnostic row was computed")

    monkeypatch.setattr(cli.diag.Rows, "__init__", no_row)
    assert cli.main(["mms-verify", "--config", path]) == cli.EXIT_OK
    assert capsys.readouterr().out == table


@pytest.mark.parametrize("case", ["blowup_halt", "aborted"])
def test_converge_stops_at_a_run_that_does_not_complete(tmp_path, capsys, monkeypatch, case):
    # no order from a halted or aborted run: its final state is not at T_end
    text = MMS_INI
    if case == "blowup_halt":  # any bounded trajectory trips the detector after a step
        text += "\n[monitors]\nblowup_threshold = 1e-9\nblowup_rate_min = -100\nblowup_window = 2\n"
    else:  # an unattainable solve tolerance fails the first step
        monkeypatch.setattr(dyn, "SOLVER_TOL", 1e-300)
    path = write_ini(tmp_path, text, name="mms.ini")
    code = cli.main(["mms-verify", "--config", path, "--out", str(tmp_path / "cv")])
    assert code == (cli.EXIT_BLOWUP if case == "blowup_halt" else cli.EXIT_SOLVER)
    captured = capsys.readouterr()
    assert "observed order" not in captured.out
    assert f"the run at n = 33 ended {case}" in captured.err
    if case == "aborted":
        assert "solve residual exceeds tolerance" in captured.err
    assert not (tmp_path / "cv" / "convergence.txt").exists()


@pytest.mark.parametrize("old,new,named", [
    ("delta = 0.1", "delta = 0.5", "delta = 0.5 (the case's: 0.1)"),
    ("a = 1.0", "a = 2.0", "a = 2.0 (the case's: 1.0)"),
    ("generator = mms", "generator = coupled_smooth", "generator = 'coupled_smooth'"),
], ids=["delta", "a", "generator"])
def test_mms_verify_refuses_a_scenario_its_case_does_not_solve(tmp_path, capsys, old, new, named):
    # the forcing is the case's own, built for its laws, a, L and data: an
    # order fitted against the case's fields would measure nothing
    path = write_ini(tmp_path, MMS_INI.replace(old, new), name="mms.ini")
    assert cli.main(["mms-verify", "--config", path, "--out", str(tmp_path / "cv")]) \
        == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and "do not solve" in err and named in err
    assert not (tmp_path / "cv").exists()


def test_cmd_mms_verify_requires_mms(tmp_path):
    path = write_ini(tmp_path, HEAT_CONV_INI, name="conv.ini", out=str(tmp_path / "x"))
    assert cli.main(["mms-verify", "--config", path]) == cli.EXIT_CONFIG


# --------------------------------------------------------------------------
# cmd_report
# --------------------------------------------------------------------------


def test_cmd_report_full_cycle(tmp_path, capsys):
    out = tmp_path / "rep"
    path = write_ini(tmp_path, COUPLED_INI, out=str(out))
    assert cli.cmd_run(path, out_dir=str(out)) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.cmd_report(str(out)) == cli.EXIT_OK
    text = capsys.readouterr().out
    for needle in ("Energy budget", "Conserved-budget bounds", "Theory constants",
                   "Blow-up detector: never fired", "estimate"):
        assert needle in text
    assert (out / "report.md").exists()


def test_cmd_report_missing_artifact(tmp_path, capsys):
    os.makedirs(tmp_path / "empty", exist_ok=True)
    assert cli.cmd_report(str(tmp_path / "empty")) == cli.EXIT_CONFIG
    assert "timeseries.csv not found" in capsys.readouterr().err


@pytest.mark.parametrize("module", ["scipy.fft", "scipy.linalg", "numpy.f2py",
                                    "concurrent.futures", "logging"])
def test_cli_import_does_not_load(module):
    # tridiag loads the LAPACK extension alone, and scenarios.mollify the
    # pocketfft one (when called), without their packages' imports, which
    # would pull in numpy.f2py through scipy's array-API layer; cmd_sweep
    # imports concurrent.futures, and with it logging, only for its pool
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = f"import sys, viscowave.cli; sys.exit(int({module!r} in sys.modules))"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_a_run_a_sweep_and_estimate_K_do_not_import_numpy_random(tmp_path):
    # nothing in viscowave draws random numbers: its trials are deterministic
    run = write_ini(tmp_path, COUPLED_INI)
    sweep = write_ini(tmp_path, COUPLED_INI + "\n[sweep]\naxis = delta\nvalues = 0.0, 0.1\n",
                      name="sweep.ini")
    code = ("import sys\nfrom viscowave import cli, diagnostics, grid\n"
            f"assert cli.cmd_run({run!r}, {str(tmp_path / 'run')!r}) == 0\n"
            f"assert cli.cmd_sweep({sweep!r}, {str(tmp_path / 'sweep')!r}, workers=1) == 0\n"
            "diagnostics.estimate_K(4.0, 1.0, 3, grid.Grid1D(1.0, 33), 1.0)\n"
            "sys.exit('numpy.random' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "sweep" / "point_delta_01" / "summary.json").exists()


def _import_viscowave_in(env: dict, code: str) -> str:
    """Run ``import viscowave`` and then ``code`` in a fresh process; its stdout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(env, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", "import os, viscowave; " + code],
                          env=env, capture_output=True, text=True, check=True)
    return proc.stdout.strip()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_import_starts_no_blas_threads():
    # the pytest process has imported viscowave, so it carries the variable:
    # the child must be started without it
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    assert _import_viscowave_in(env, "print(len(os.listdir('/proc/self/task')))") == "1"


def test_a_preset_blas_thread_count_is_kept():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    assert _import_viscowave_in(env, "print(os.environ['OPENBLAS_NUM_THREADS'])") == "2"
