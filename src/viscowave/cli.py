"""Batch front-end: run, sweep, converge, mms-verify, and report commands.

Artifacts per run directory:

* ``timeseries.csv``   one row per diagnostic sample (schema in
  :data:`viscowave.diagnostics.DIAG_COLUMNS`),
* ``summary.json``     final monitors, budget bounds, theory constants with
  provenance labels, and the run verdict,
* ``final_state.csv``  columns x, u, v, theta at the final time,
* ``config.ini``       the resolved configuration (round-trips through the
  parser).

Exit codes: 0 ok, 2 configuration error, 3 solver failure, 4 blow-up halt.
A sweep exits 3 if any point failed or aborted, else 4 if any point halted
on blow-up, else 0.

A sweep over ``delta``, ``alpha`` or ``kappa`` changes neither the grid nor
dt, so its points are split into one ensemble per worker, which
:func:`viscowave.dynamics.simulate` integrates as one batch when its members
can share steps; every point's artifacts are byte-identical to its own
run's.  ``grid_n`` and ``dt`` points run one per task.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import functools
import json
import math
import os
import sys
import traceback
from dataclasses import asdict, replace

import numpy as np

from . import config as cfgmod
from . import diagnostics as diag
from . import dynamics as dyn
from . import grid as g
from . import material as mat
from .errors import ConfigError, ViscowaveError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_BLOWUP = 4

# sweep axes that change neither the grid nor dt: their points run as ensembles
ENSEMBLE_AXES = ("delta", "alpha", "kappa")


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_timeseries(rows, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(diag.DIAG_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row.as_tuple()) + "\n")


def write_final_state(state, grid_: g.Grid1D, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("x,u,v,theta\n")
        for x, u, v, th in zip(grid_.nodes, state.u, state.v, state.theta):
            fh.write(f"{_fmt(x)},{_fmt(u)},{_fmt(v)},{_fmt(th)}\n")


class FieldDump(dyn.Recorder):
    """Writes each recorded state to ``fields_%05d.csv`` in ``fields_dir``
    as it is sampled (columns as in ``final_state.csv``)."""

    def __init__(self, fields_dir: str):
        self.dir = fields_dir
        self.count = 0
        self.made_dir = False

    def sample(self, ev):
        if self.count == 0 and not os.path.isdir(self.dir):
            os.makedirs(self.dir)
            self.made_dir = True
        write_final_state(ev, ev.grid, self._path(self.count))
        self.count += 1

    def _path(self, i: int) -> str:
        return os.path.join(self.dir, f"fields_{i:05d}.csv")

    def discard(self) -> None:
        """Removes the dumps written so far, and the directory if this
        recorder made it."""
        for i in range(self.count):
            os.remove(self._path(i))
        if self.made_dir:
            os.rmdir(self.dir)


def _run(config):
    """``dyn.run`` with the rows, plus the field dumps when ``dump_fields``;
    a list of configs runs as one ensemble.

    A run that raises leaves no dumps behind, like it leaves no other
    artifact; a run that ends on a status (``aborted``, ``blowup_halt``)
    keeps them.
    """
    batch = isinstance(config, list)
    dumps = [[FieldDump(os.path.join(c.out_dir, "fields"))] if c.dump_fields else []
             for c in (config if batch else [config])]
    if not any(dumps):
        return dyn.run(config)
    try:
        return dyn.run(config, recorders=dumps if batch else dumps[0])
    except BaseException:
        for recs in dumps:
            for dump in recs:
                dump.discard()
        raise


def _bounds_block(traj: dyn.Trajectory) -> dict:
    """Observed trajectory maxima against the conserved-budget bounds."""
    init = traj.initial_state
    data = mat.InitialData(u0=init.u, v0=init.v, theta0=init.theta)
    M = mat.data_bound_M(data, traj.grid)
    lam = mat.lambda1_bound(M, traj.a, traj.grid.length)
    max_v2 = max(2.0 * r.E_kin for r in traj.rows)
    max_ux2 = max(2.0 * r.E_el / traj.a for r in traj.rows)
    max_th = max(r.mass_theta for r in traj.rows)
    return {
        "M": {"value": M.M, "provenance": "measured"},
        "B": {"value": lam.B, "provenance": "measured"},
        "int_v2": {"observed_max": max_v2, "bound": lam.bound_v2},
        "int_ux2": {"observed_max": max_ux2, "bound": lam.bound_ux2},
        "int_theta": {"observed_max": max_th, "bound": lam.bound_theta},
    }


@functools.lru_cache(maxsize=64)
def _estimate_K(p: float, D: float, trials: int, grid_: g.Grid1D, T: float,
                seed: int) -> diag.KEstimate:
    """``diag.estimate_K`` once per distinct key in this process: it depends
    on neither the data nor delta, alpha or kappa, so the points of a sweep
    share it."""
    return diag.estimate_K(p=p, D=D, trials=trials, grid_=grid_, T=T, seed=seed)


def _summary_payload(config: cfgmod.RunConfig, traj: dyn.Trajectory) -> dict:
    scen = config.scenario
    last = traj.rows[-1]
    kest = _estimate_K(4.0, scen.laws.gamma0, config.k_trials, traj.grid, scen.monitors.T0,
                       config.seed)
    consts = diag.theory_constants(kest.K, scen.a, scen.monitors.T0, scen.laws.alpha)
    return {
        "scenario": scen.name,
        "status": traj.status,
        "error": traj.error,
        "steps": traj.steps_taken,
        "t_final": last.t,
        "energy": {
            "E0": {"value": traj.e0, "provenance": "measured"},
            "E_final": {"value": last.E_total, "provenance": "measured"},
            "drift_final": {"value": last.drift, "provenance": "measured"},
            "drift_max_abs": {"value": traj.max_drift, "provenance": "measured"},
        },
        "bounds": _bounds_block(traj),
        "monitors_final": asdict(traj.monitors),
        "theory_constants": {
            "K_est": {"value": kest.K, "provenance": "estimated (lower bound, not certified)"},
            "delta_est": {"value": consts.delta_est, "provenance": "estimated (from K_est lower bound)"},
            "kappa_est": {"value": consts.kappa_est, "provenance": "estimated (from K_est lower bound)"},
            "q": {"value": consts.q, "provenance": "configured (4*alpha - 2)"},
        },
        "positivity": {
            "policy": scen.scheme.positivity_policy,
            "clamp_total": traj.clamp_total,
            "clamp_fraction": traj.clamp_fraction(),
            "min_theta_final": last.min_theta,
        },
        "blowup": {
            "fired": traj.blowup is not None and traj.blowup.fired,
            "t_fire": None if traj.blowup is None else traj.blowup.t_fire,
            "rate": None if traj.blowup is None else traj.blowup.rate,
        },
        "seed": config.seed,
    }


def _write_artifacts(config: cfgmod.RunConfig, traj: dyn.Trajectory, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_timeseries(traj.rows, os.path.join(out_dir, "timeseries.csv"))
    write_final_state(traj.final_state, traj.grid, os.path.join(out_dir, "final_state.csv"))
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(_summary_payload(config, traj), fh, indent=2, sort_keys=True)
        fh.write("\n")
    try:
        text = cfgmod.serialize_config(config)
    except ConfigError:
        return  # tabulated laws: keep the user's original file authoritative
    with open(os.path.join(out_dir, "config.ini"), "w") as fh:
        fh.write(text)


def cmd_run(config_path: str, out_dir: str | None = None, seed: int | None = None) -> int:
    """Execute one configured run and write its artifacts."""
    try:
        config = cfgmod.parse_config(config_path)
        if out_dir is not None:
            config = replace(config, out_dir=out_dir)
        if seed is not None:
            config = replace(config, seed=seed)
        traj = _run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ViscowaveError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    _write_artifacts(config, traj, config.out_dir)
    if traj.status == "aborted":
        print(f"solver failure after {traj.steps_taken} steps: {traj.error}", file=sys.stderr)
        return EXIT_SOLVER
    if traj.status == "blowup_halt":
        print(f"blow-up detector fired at t = {traj.blowup.t_fire:g} "
              f"(rate {traj.blowup.rate:.3g}/sample)", file=sys.stderr)
        return EXIT_BLOWUP
    print(f"completed: {traj.steps_taken} steps, final drift {traj.rows[-1].drift:.3e}, "
          f"artifacts in {config.out_dir}")
    return EXIT_OK


def _point_config(config_path: str, axis: str, value, subdir: str, seed: int):
    """The point's config; ConfigError if its laws fail the hypotheses, as
    ``dyn.run`` would raise, so that an ensemble holds only points it can run."""
    config = cfgmod.parse_config(config_path)
    config = replace(config, out_dir=subdir, seed=seed)
    config = cfgmod.apply_axis(config, axis, value)
    mat.require_hypotheses(config.scenario.laws)
    return config


def _failed_row(axis: str, value, exc: Exception) -> dict:
    """The row of a point that raised ``exc``; call it in the handler, so
    that an exception from outside the package prints its traceback."""
    if isinstance(exc, ViscowaveError):
        error = str(exc)
    else:
        traceback.print_exc()
        error = f"{type(exc).__name__}: {exc}"
    return {"axis": axis, "value": value, "status": "failed", "drift_max": "",
            "blowup": "", "monitors_finite": "", "error": error}


def _run_ensemble(configs: list) -> list | None:
    """The trajectories of the configs, integrated as one batch.  None if
    there are fewer than two, or if the batch raised: each point is then run
    on its own, so that its own run decides its row.  An exception from
    outside the package prints its traceback first."""
    if len(configs) < 2:
        return None
    try:
        return _run(configs)
    except ViscowaveError:  # say, one member's DomainError
        return None
    except Exception:
        print("ensemble run failed; running its points one at a time", file=sys.stderr)
        traceback.print_exc()
        return None


def _sweep_point(task):
    """Worker: run one task of a sweep from primitives (safe across processes).

    A task ``(config_path, axis, values, subdirs, seed)`` holds a tuple of
    values and one of subdirectories; its points run as one ensemble (a
    single point on its own), and it returns one row per point.  Any
    exception stays with its point: the row reads status ``failed`` and
    carries the error, and the other points still run.
    """
    config_path, axis, values, subdirs, seed = task
    rows, configs = {}, {}
    for i, (val, sub) in enumerate(zip(values, subdirs)):
        try:
            configs[i] = _point_config(config_path, axis, val, sub, seed)
        except Exception as exc:  # one bad point must not end the sweep
            rows[i] = _failed_row(axis, val, exc)
    trajs = dict(zip(configs, _run_ensemble(list(configs.values())) or ()))
    for i, config in configs.items():
        try:
            traj = trajs[i] if i in trajs else _run(config)
            _write_artifacts(config, traj, config.out_dir)
            rows[i] = {"axis": axis, "value": values[i], "status": traj.status,
                       "drift_max": traj.max_drift,
                       "blowup": traj.blowup is not None and traj.blowup.fired,
                       "monitors_finite": traj.monitors.all_finite(),
                       "error": traj.error or ""}
        except Exception as exc:
            rows[i] = _failed_row(axis, values[i], exc)
    return [rows[i] for i in range(len(values))]


def cmd_sweep(config_path: str, out_dir: str | None = None, workers: int = 1,
              seed: int | None = None) -> int:
    """Run every sweep point, aggregate one summary row per point.

    Points of an ``ENSEMBLE_AXES`` sweep go to the workers as ensembles of
    ceil(points / workers) points each; other points go one per task.

    Returns EXIT_SOLVER if any point failed or aborted, else EXIT_BLOWUP if
    any point halted on blow-up, else EXIT_OK.
    """
    try:
        sweep = cfgmod.parse_sweep_config(config_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = out_dir or sweep.base.out_dir
    os.makedirs(out, exist_ok=True)
    base_seed = sweep.base.seed if seed is None else seed
    workers = max(1, workers if workers else sweep.workers)

    values = list(sweep.values)
    subdirs = [os.path.join(out, f"point_{sweep.axis}_{i:02d}") for i in range(len(values))]
    size = math.ceil(len(values) / workers) if sweep.axis in ENSEMBLE_AXES else 1
    tasks = [(config_path, sweep.axis, tuple(values[i:i + size]), tuple(subdirs[i:i + size]),
              base_seed) for i in range(0, len(values), size)]
    if workers == 1:
        done = [_sweep_point(t) for t in tasks]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_sweep_point, tasks))
    results = [row for rows in done for row in rows]

    agg = os.path.join(out, "sweep.csv")
    cols = ("axis", "value", "status", "drift_max", "blowup", "monitors_finite", "error")
    with open(agg, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cols)
        writer.writerows([str(row[c]) for c in cols] for row in results)
    bad = [r for r in results if r["status"] not in ("completed", "blowup_halt")]
    print(f"sweep over {sweep.axis}: {len(results)} points, "
          f"{len(results) - len(bad)} finished, aggregate in {agg}")
    if bad:
        return EXIT_SOLVER
    if any(r["status"] == "blowup_halt" for r in results):
        return EXIT_BLOWUP
    return EXIT_OK


def _converge_errors(config: cfgmod.RunConfig, n_values, dt_scaling: str):
    """Run the study and return {field: [error per n]} plus dx list."""
    scen = config.scenario
    exact = scen.exact_fields()
    if exact is None:
        raise ConfigError(
            f"scenario {scen.name!r} (tag {scen.tag!r}) has no exact solution; "
            "converge needs a closed_form, stationary, or mms scenario")
    base_dx = scen.length / (n_values[0] - 1)
    base_dt = scen.scheme.dt_initial
    errors: dict[str, list[float]] = {f: [] for f in exact}
    dxs = []
    for n in n_values:
        dx = scen.length / (n - 1)
        dt = base_dt if dt_scaling == "fixed" else base_dt * (dx / base_dx) ** 2
        point = replace(config, scenario=replace(
            scen, n=int(n), scheme=replace(scen.scheme, dt_initial=dt, dt_max=dt)))
        traj = dyn.run(point, rows=False)
        st = traj.final_state
        grid_ = traj.grid
        for fname, fn in exact.items():
            ref = fn(grid_.nodes, st.t)
            errors[fname].append(float(np.max(np.abs(getattr(st, fname) - ref))))
        dxs.append(dx)
    return errors, dxs


def cmd_converge(config_path: str, out_dir: str | None = None, mms_only: bool = False) -> int:
    """Grid-refinement study against the scenario's exact fields."""
    try:
        conv = cfgmod.parse_converge_config(config_path)
        if mms_only and conv.base.scenario.mms_id is None:
            raise ConfigError("mms-verify requires a scenario with an mms_case")
        errors, dxs = _converge_errors(conv.base, conv.n_values, conv.dt_scaling)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ViscowaveError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    lines = [f"# convergence study: {conv.base.scenario.name}",
             f"n values: {list(conv.n_values)}  dt scaling: {conv.dt_scaling}"]
    log_dx = np.log(np.asarray(dxs))
    for fname, errs in errors.items():
        if max(errs) < 1e-13:
            lines.append(f"{fname}: errors identically zero (degenerate fit)")
            continue
        order = float(np.polyfit(log_dx, np.log(np.maximum(errs, 1e-300)), 1)[0])
        err_str = ", ".join(f"{e:.3e}" for e in errs)
        lines.append(f"{fname}: errors [{err_str}]  observed order {order:.3f}")
    report = "\n".join(lines)
    print(report)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "convergence.txt"), "w") as fh:
            fh.write(report + "\n")
    return EXIT_OK


def cmd_report(run_dir: str) -> int:
    """Human-readable markdown summary of a finished run directory."""
    ts_path = os.path.join(run_dir, "timeseries.csv")
    sm_path = os.path.join(run_dir, "summary.json")
    for path, name in ((ts_path, "timeseries.csv"), (sm_path, "summary.json")):
        if not os.path.exists(path):
            print(f"error: {name} not found in {run_dir}", file=sys.stderr)
            return EXIT_CONFIG
    with open(sm_path) as fh:
        summary = json.load(fh)
    rows = np.genfromtxt(ts_path, delimiter=",", names=True)
    rows = np.atleast_1d(rows)

    def row_line(r):
        return (f"| {r['t']:.4g} | {r['E_total']:.6g} | {r['E_kin']:.4g} | "
                f"{r['E_el']:.4g} | {r['E_th']:.6g} | {r['drift']:.3e} |")

    lines = [f"# Run report: {summary['scenario']}", "",
             f"status: **{summary['status']}**  steps: {summary['steps']}", "",
             "## Energy budget", "",
             "| t | E_total | E_kin | E_el | E_th | drift |",
             "|---|---------|-------|------|------|-------|",
             row_line(rows[0])]
    if len(rows) > 2:
        lines.append(row_line(rows[len(rows) // 2]))
    if len(rows) > 1:
        lines.append(row_line(rows[-1]))
    lines += ["", "## Conserved-budget bounds (observed max vs bound)", "",
              "| functional | observed max | bound |", "|---|---|---|"]
    bounds = summary["bounds"]
    for key in ("int_v2", "int_ux2", "int_theta"):
        blk = bounds[key]
        lines.append(f"| {key} | {blk['observed_max']:.6g} | {blk['bound']:.6g} |")
    lines += ["", "## Theory constants", ""]
    for key, blk in summary["theory_constants"].items():
        lines.append(f"- {key} = {blk['value']:.6g}  ({blk['provenance']})")
    blow = summary["blowup"]
    verdict = "fired" if blow["fired"] else "never fired"
    lines += ["", f"## Blow-up detector: {verdict}", ""]
    pos = summary["positivity"]
    lines += [f"positivity: policy `{pos['policy']}`, clamp fraction "
              f"{pos['clamp_fraction']:.3e}, final min(theta) {pos['min_theta_final']:.3e}", ""]
    report = "\n".join(lines)
    print(report)
    with open(os.path.join(run_dir, "report.md"), "w") as fh:
        fh.write(report + "\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="viscowave",
                                     description="1D viscous-wave/heat simulator batch front-end")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured run")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--seed", type=int, default=None)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--workers", type=int, default=None)
    p_sweep.add_argument("--seed", type=int, default=None)

    for name, help_ in (("converge", "grid-refinement study against exact fields"),
                        ("mms-verify", "converge restricted to manufactured-solution scenarios")):
        p_c = sub.add_parser(name, help=help_)
        p_c.add_argument("--config", required=True)
        p_c.add_argument("--out", default=None)

    p_rep = sub.add_parser("report", help="summarize a run directory")
    p_rep.add_argument("--out", required=True, help="run directory holding the artifacts")

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, args.out, args.seed)
    if args.command == "sweep":
        return cmd_sweep(args.config, args.out, args.workers or 0, args.seed)
    if args.command == "converge":
        return cmd_converge(args.config, args.out)
    if args.command == "mms-verify":
        return cmd_converge(args.config, args.out, mms_only=True)
    if args.command == "report":
        return cmd_report(args.out)
    parser.error(f"unknown command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
