"""Correctness gate applied to every op's outputs.

An op that fails a check counts as failed; ``run.py`` then reports
``correct: false`` and exits non-zero.  The sweep's own exit code is not
trusted: ``viscowave sweep`` returns 0 even when points fail, so each row of
``sweep.csv`` is checked instead.
"""

from __future__ import annotations

import csv
import json
import math
import os

from workloads import Workload


def check_run(out_dir: str, work: Workload, diag_columns: list[str]) -> list[str]:
    """Problems with one ``viscowave run`` output directory (empty when correct)."""
    try:
        with open(os.path.join(out_dir, "summary.json")) as fh:
            summary = json.load(fh)
        with open(os.path.join(out_dir, "timeseries.csv")) as fh:
            header = fh.readline().strip().split(",")
            rows = sum(1 for line in fh if line.strip())
        with open(os.path.join(out_dir, "final_state.csv")) as fh:
            fh.readline()
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    problems = []
    if summary.get("status") != "completed":
        problems.append(f"status {summary.get('status')!r}, not 'completed'")
    steps = summary.get("steps")
    if steps != work.steps:
        problems.append(f"{steps} steps, expected {work.steps}")
    if not diag_columns or header != diag_columns:
        problems.append("timeseries header differs from DIAG_COLUMNS")
    expected_rows = 1 + math.ceil(work.steps / work.cadence)
    if rows != expected_rows:
        problems.append(f"{rows} timeseries rows, expected {expected_rows} at cadence {work.cadence}")
    monitors = summary.get("monitors_final", {})
    if not monitors or not all(isinstance(v, (int, float)) and math.isfinite(v)
                               for v in monitors.values()):
        problems.append("a final monitor is missing or not finite")
    try:
        e0 = summary["energy"]["E0"]["value"]
        drift = summary["energy"]["drift_max_abs"]["value"]
        rel = abs(drift) / e0
    except (KeyError, TypeError, ZeroDivisionError):
        problems.append("energy block incomplete")
    else:
        if not rel <= work.drift_bound:
            problems.append(f"|drift|/E0 = {rel:.3e} exceeds {work.drift_bound:g}")
    return problems


def check_sweep(out_dir: str, work: Workload) -> tuple[int, list[str]]:
    """Failed point count and problems of one sweep; every point is one operation."""
    try:
        with open(os.path.join(out_dir, "sweep.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        return work.points, [f"sweep.csv unreadable: {exc}"]
    problems = []
    if len(rows) != work.points:
        problems.append(f"{len(rows)} sweep rows, expected {work.points}")
    good = 0
    for row in rows[:work.points]:
        if (row.get("status") == "completed" and row.get("monitors_finite") == "True"
                and row.get("blowup") == "False"):
            good += 1
        else:
            problems.append(f"point {row.get('axis')}={row.get('value')}: status "
                            f"{row.get('status')!r}, monitors_finite {row.get('monitors_finite')!r}, "
                            f"blowup {row.get('blowup')!r}")
    return work.points - good, problems


def _decreasing(values) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


def check_ladders(result: dict, rungs: int) -> list[str]:
    """Criterion 10 (eps cascade Cauchy in u, v, theta) and criterion 9
    (eta cascade sup_y strictly decreasing with slope >= 0.5)."""
    problems = []
    eps, eta = result.get("eps"), result.get("eta")
    if eps is None or eta is None:
        return ["ladder results missing"]
    if eps["statuses"] != ["completed"] * rungs or eps["blowup_fired"]:
        problems.append(f"eps cascade statuses {eps['statuses']}, blowup {eps['blowup_fired']}")
    for field in ("u", "v", "theta"):
        dists = eps["sup_dists"].get(field, [])
        if len(dists) != rungs - 1 or not _decreasing(dists):
            problems.append(f"eps cascade not Cauchy in {field}: {dists}")
    if not _decreasing(eta["sup_y"]) or not eta["slope"] >= 0.5:
        problems.append(f"eta cascade sup_y {eta['sup_y']}, slope {eta['slope']:.3f}")
    return problems
