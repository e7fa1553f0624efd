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

The points of a sweep axis that changes neither the grid nor dt (``ensemble``
in :data:`viscowave.config.SWEEP_AXES`: ``delta``, ``alpha``, ``kappa``) are
split into one ensemble per worker, which :func:`viscowave.dynamics.simulate`
integrates as one batch when its members can share steps; every point's
artifacts are byte-identical to its own run's.  ``grid_n`` and ``dt`` points
run one per task.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
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

# the statuses of a run that finished: it neither failed nor aborted
FINISHED = ("completed", "blowup_halt")


def _exit_code(statuses: list) -> int:
    """EXIT_SOLVER if any of the runs ending on ``statuses`` did not finish,
    else EXIT_BLOWUP if any halted on blow-up, else EXIT_OK."""
    if any(s not in FINISHED for s in statuses):
        return EXIT_SOLVER
    return EXIT_BLOWUP if "blowup_halt" in statuses else EXIT_OK


def _write_csv(path: str, header, line: str, rows) -> None:
    """The ``header`` names, then ``line % row`` for each row: one ``%``
    format for the whole line."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % row for row in rows)


def write_timeseries(rows: diag.Timeseries, path: str) -> None:
    line = ",".join("%d" if c == "clamp_count" else "%.17g" for c in diag.DIAG_COLUMNS) + "\n"
    _write_csv(path, diag.DIAG_COLUMNS, line, map(tuple, rows.values.tolist()))


def write_final_state(state, grid_: g.Grid1D, path: str) -> None:
    _write_csv(path, ("x", "u", "v", "theta"), "%.17g,%.17g,%.17g,%.17g\n",
               zip(grid_.nodes, state.u, state.v, state.theta))


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


def _prune(fields_dir: str, written: int) -> None:
    """Removes every ``fields_NNNNN.csv`` in ``fields_dir``, if it exists,
    numbered ``written`` or more: those a run that wrote ``written`` dumps
    did not write, say an earlier, longer run's."""
    for name in os.listdir(fields_dir) if os.path.isdir(fields_dir) else ():
        if re.fullmatch(r"fields_\d{5,}\.csv", name) and int(name[7:-4]) >= written:
            os.remove(os.path.join(fields_dir, name))


def _run(config):
    """``dyn.run`` of the config's scenario with the rows, plus the field
    dumps when ``dump_fields``; a list of configs runs as one ensemble.

    A run that raises leaves no dumps behind, like it leaves no other
    artifact; a run that ends on a status (``aborted``, ``blowup_halt``)
    keeps them.  A run that returns leaves its own dumps in ``fields/``, if
    any, and no other ``fields_NNNNN.csv``, such as an earlier run's.
    """
    batch = isinstance(config, list)
    configs = config if batch else [config]
    dirs = [os.path.join(c.out_dir, "fields") for c in configs]
    dumps = [[FieldDump(d)] if c.dump_fields else [] for c, d in zip(configs, dirs)]
    made = [dump for recs in dumps for dump in recs]
    try:
        trajs = dyn.run([c.scenario for c in configs] if batch else config.scenario,
                        recorders=dumps if batch else dumps[0])
    except BaseException:
        for dump in made:
            dump.discard()
        raise
    for d, recs in zip(dirs, dumps):
        _prune(d, recs[0].count if recs else 0)
    return trajs


def _bounds_block(traj: dyn.Trajectory) -> dict:
    """Observed trajectory maxima against the conserved-budget bounds; a NaN
    row makes its maximum NaN."""
    init = traj.initial_state
    data = mat.InitialData(u0=init.u, v0=init.v, theta0=init.theta)
    M = mat.data_bound_M(data, traj.grid)
    lam = mat.lambda1_bound(M, traj.a, traj.grid.length)
    col = traj.rows.column
    max_v2 = float((2.0 * col("E_kin")).max())
    max_ux2 = float((2.0 * col("E_el") / traj.a).max())
    max_th = float(col("mass_theta").max())
    return {
        "M": {"value": M.M, "provenance": "measured"},
        "B": {"value": lam.B, "provenance": "measured"},
        "int_v2": {"observed_max": max_v2, "bound": lam.bound_v2},
        "int_ux2": {"observed_max": max_ux2, "bound": lam.bound_ux2},
        "int_theta": {"observed_max": max_th, "bound": lam.bound_theta},
    }


def _summary_payload(config: cfgmod.RunConfig, traj: dyn.Trajectory) -> dict:
    scen = config.scenario
    last = traj.rows[-1]
    # K(p, D) at p = 4, D = gamma0: the steady single-mode ratios of
    # diag.estimate_K rise to D^-p as the mode's frequency grows, so D^-p is
    # their supremum and a lower bound of K, with no march
    K = scen.laws.gamma0 ** -4.0
    consts = diag.theory_constants(K, scen.a, scen.monitors.T0, scen.laws.alpha)
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
            "K_est": {"value": K, "provenance": "closed form: the supremum of the single-mode "
                                                "ratios, a lower bound of K"},
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
    """The run's artifacts.  The summary is built before any file is
    written, so a summary that raises leaves none."""
    summary = json.dumps(_summary_payload(config, traj), indent=2, sort_keys=True) + "\n"
    try:
        text = cfgmod.serialize_config(config)
    except ConfigError:
        text = None  # tabulated laws: keep the user's original file authoritative
    os.makedirs(out_dir, exist_ok=True)
    write_timeseries(traj.rows, os.path.join(out_dir, "timeseries.csv"))
    write_final_state(traj.final_state, traj.grid, os.path.join(out_dir, "final_state.csv"))
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        fh.write(summary)
    if text is not None:
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
    elif traj.status == "blowup_halt":
        print(f"blow-up detector fired at t = {traj.blowup.t_fire:g} "
              f"(rate {traj.blowup.rate:.3g}/sample)", file=sys.stderr)
    else:
        print(f"completed: {traj.steps_taken} steps, final drift {traj.rows[-1].drift:.3e}, "
              f"artifacts in {config.out_dir}")
    return _exit_code([traj.status])


def _point_config(base: cfgmod.RunConfig, axis: str, value, subdir: str):
    """The point's config; ConfigError if its laws fail the hypotheses, as
    ``dyn.run`` would raise, so that an ensemble holds only points it can run."""
    config = cfgmod.apply_axis(replace(base, out_dir=subdir), axis, value)
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
    """Worker: run one task of a sweep (picklable, safe across processes).

    A task ``(base, axis, values, subdirs)`` holds the sweep's parsed base
    config (with its seed), a tuple of values and one of subdirectories; its
    points run as one ensemble (a single point on its own), and it returns
    one row per point.  Any exception stays with its point: the row reads
    status ``failed`` and carries the error, and the other points still run.
    """
    base, axis, values, subdirs = task
    rows, configs = {}, {}
    for i, (val, sub) in enumerate(zip(values, subdirs)):
        try:
            configs[i] = _point_config(base, axis, val, sub)
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

    Points of an axis whose ``config.SWEEP_AXES`` entry says ``ensemble``
    go to the workers as ensembles of ceil(points / workers) points each;
    other points go one per task.

    Returns the :func:`_exit_code` of the points' statuses.
    """
    try:
        sweep = cfgmod.parse_sweep_config(config_path)
        base = sweep.base if seed is None else replace(sweep.base, seed=seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = out_dir or sweep.base.out_dir
    os.makedirs(out, exist_ok=True)
    workers = max(1, workers if workers else sweep.workers)

    values = list(sweep.values)
    subdirs = [os.path.join(out, f"point_{sweep.axis}_{i:02d}") for i in range(len(values))]
    size = math.ceil(len(values) / workers) if cfgmod.SWEEP_AXES[sweep.axis].ensemble else 1
    tasks = [(base, sweep.axis, tuple(values[i:i + size]), tuple(subdirs[i:i + size]))
             for i in range(0, len(values), size)]
    if workers == 1:
        done = [_sweep_point(t) for t in tasks]
    else:
        import concurrent.futures  # here, not at the top: it imports logging
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_sweep_point, tasks))
    results = [row for rows in done for row in rows]

    agg = os.path.join(out, "sweep.csv")
    cols = ("axis", "value", "status", "drift_max", "blowup", "monitors_finite", "error")
    with open(agg, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cols)
        writer.writerows([str(row[c]) for c in cols] for row in results)
    statuses = [r["status"] for r in results]
    finished = sum(s in FINISHED for s in statuses)
    print(f"sweep over {sweep.axis}: {len(results)} points, {finished} finished, "
          f"aggregate in {agg}")
    return _exit_code(statuses)


def _converge_errors(scen, n_values, dt_scaling: str):
    """Run the study and return {field: [error per n]}, the dx list, and the
    last run's trajectory: the study stops at a run that does not complete."""
    exact = scen.exact_fields()
    if exact is None:
        raise ConfigError(f"scenario {scen.name!r} has no exact solution; " + (
            f"the fields of mms case {scen.mms_id!r} do not solve it: the case's forcing is "
            f"built for its laws, a, L and data, and the scenario has {scen.mms_mismatch()}"
            if scen.mms_id else "converge needs an mms_case, the zero generator, or the "
            "heat_eigenmode generator with f_family = zero"))
    base_dx = scen.length / (n_values[0] - 1)
    base_dt = scen.scheme.dt_initial
    errors: dict[str, list[float]] = {f: [] for f in exact}
    dxs = []
    for n in n_values:
        dx = scen.length / (n - 1)
        dt = base_dt if dt_scaling == "fixed" else base_dt * (dx / base_dx) ** 2
        point = replace(scen, n=int(n), scheme=replace(scen.scheme, dt_initial=dt, dt_max=dt))
        traj = dyn.run(point, rows=False)
        if traj.status != "completed":
            break
        st, nodes = traj.final_state, traj.grid.nodes
        for fname, fn in exact.items():
            errors[fname].append(float(np.max(np.abs(getattr(st, fname) - fn(nodes, st.t)))))
        dxs.append(dx)
    return errors, dxs, traj


def cmd_converge(config_path: str, out_dir: str | None = None, mms_only: bool = False) -> int:
    """Grid-refinement study against the scenario's exact fields.  A study
    with a run that does not complete stops there and reports no order: it
    exits with that run's :func:`_exit_code`."""
    try:
        conv = cfgmod.parse_converge_config(config_path)
        if mms_only and conv.base.scenario.mms_id is None:
            raise ConfigError("mms-verify requires a scenario with an mms_case")
        errors, dxs, traj = _converge_errors(conv.base.scenario, conv.n_values, conv.dt_scaling)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ViscowaveError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    if traj.status != "completed":  # no order from a run that did not reach T_end
        print(f"the run at n = {traj.grid.n} ended {traj.status} at t = {traj.final_state.t:g}"
              + (f": {traj.error}" if traj.error else ""), file=sys.stderr)
        return _exit_code([traj.status])

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
