"""Tests of the benchmark itself: the correctness gate fires on corrupted
outputs, missing wrapper targets are reported as absent, timings are scaled by
the machine-speed probe, and BENCHMARK.json matches the metrics the benchmark
prints.

    python3 -m pytest -q bench/test_gate.py
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

from viscowave import cli, diagnostics, dynamics  # noqa: E402

TINY = Workload("tiny", "run", "", steps=10, cadence=1, drift_bound=1e-3)


@pytest.fixture
def run_dir(tmp_path):
    """Output of a real 10-step run of the coupled scenario on 17 nodes."""
    cfg = tmp_path / "tiny.ini"
    cfg.write_text("[run]\nscenario = coupled\n[domain]\nn = 17\n"
                   "[time]\nT_end = 0.01\ndt_initial = 1e-3\ndt_max = 1e-3\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--seed", "3"]) == 0
    return out


def test_gate_passes_real_run(run_dir):
    assert checks.check_run(str(run_dir), TINY, list(diagnostics.DIAG_COLUMNS)) == []


def test_gate_fires_on_truncated_timeseries(run_dir):
    ts = run_dir / "timeseries.csv"
    ts.write_text("".join(ts.read_text().splitlines(keepends=True)[:-1]))
    problems = checks.check_run(str(run_dir), TINY, list(diagnostics.DIAG_COLUMNS))
    assert any("timeseries rows" in p for p in problems)


def test_gate_fires_on_header_drift_and_bad_summary(run_dir):
    columns = list(diagnostics.DIAG_COLUMNS)
    assert checks.check_run(str(run_dir), TINY, columns[::-1])
    summary = json.loads((run_dir / "summary.json").read_text())
    summary["status"] = "aborted"
    summary["monitors_final"]["cum_vx4"] = float("nan")
    (run_dir / "summary.json").write_text(json.dumps(summary))
    problems = checks.check_run(str(run_dir), TINY, columns)
    assert any("status" in p for p in problems)
    assert any("not finite" in p for p in problems)


def test_gate_fires_on_drift(run_dir):
    strict = Workload("tiny", "run", "", steps=10, cadence=1, drift_bound=1e-30)
    problems = checks.check_run(str(run_dir), strict, list(diagnostics.DIAG_COLUMNS))
    assert any("drift" in p for p in problems)


def _write_sweep(path, statuses):
    lines = ["axis,value,status,drift_max,blowup,monitors_finite,error"]
    lines += [f"delta,{i / 10},{s},1e-4,False,True," for i, s in enumerate(statuses)]
    (path / "sweep.csv").write_text("\n".join(lines) + "\n")


def test_gate_counts_failed_sweep_points(tmp_path):
    work = Workload("s", "sweep", "", points=3, workers=2)
    _write_sweep(tmp_path, ["completed"] * 3)
    assert checks.check_sweep(str(tmp_path), work) == (0, [])
    _write_sweep(tmp_path, ["completed", "failed", "completed"])
    failed, problems = checks.check_sweep(str(tmp_path), work)
    assert failed == 1 and problems
    _write_sweep(tmp_path, ["completed"] * 2)
    failed, problems = checks.check_sweep(str(tmp_path), work)
    assert failed == 1 and problems
    assert checks.check_sweep(str(tmp_path / "missing"), work)[0] == 3


def test_gate_checks_ladder_criteria():
    good = {"eps": {"statuses": ["completed"] * 3, "blowup_fired": False,
                    "sup_dists": {f: [0.2, 0.1] for f in ("u", "v", "theta")}},
            "eta": {"sup_y": [1e-2, 1e-3, 1e-4], "slope": 1.0}}
    assert checks.check_ladders(good, 3) == []
    not_cauchy = json.loads(json.dumps(good))
    not_cauchy["eps"]["sup_dists"]["v"] = [0.1, 0.2]
    assert checks.check_ladders(not_cauchy, 3)
    flat = json.loads(json.dumps(good))
    flat["eta"]["slope"] = 0.3
    assert checks.check_ladders(flat, 3)


@pytest.fixture
def restore_modules():
    saved = {m: dict(vars(m)) for m in (dynamics, diagnostics, cli)}
    yield
    for m, attrs in saved.items():
        for key in set(vars(m)) - set(attrs):
            delattr(m, key)
        for key, value in attrs.items():
            setattr(m, key, value)


def test_missing_target_is_absent(tmp_path, monkeypatch, restore_modules):
    monkeypatch.delattr(dynamics, "_solve_banded")
    rec = tracing.Recorder(str(tmp_path))
    installed, absent = tracing.install(rec, traced=False)
    assert installed == ["dynamics.simulate"] and absent == []
    monkeypatch.setattr(tracing, "EXTRA_TARGETS", ("viscowave.dynamics:_solve_banded",))
    installed, absent = tracing.install(rec, traced=True)
    assert "viscowave.dynamics:_solve_banded" in absent
    missing = layers.absent_metrics(installed)
    assert {"dynamics.solve.velocity_s", "dynamics.solve.calls"} <= missing
    assert "dynamics.step.s" not in missing


def test_benchmark_json_matches_the_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(name, unit, better) for name, unit, better, _, _ in layers.PER_LAYER]


def test_speed_scaling_scales_times_and_rates_but_not_memory():
    slow = {"probe_s": 2 * run.PROBE_NOMINAL_S, "setup_s": 1.0, "wall_s": 4.0, "cpu_s": 3.0,
            "steps_per_s": 100.0, "peak_rss_mb": 50.0}
    assert set(run.SPEED_POWER) == {name for name, _ in run.END_TO_END}
    assert [run.scaled(slow, n) for n, _ in run.END_TO_END] == [0.5, 2.0, 1.5, 200.0, 50.0]
