"""Per-layer metrics of one traced op, computed from its spans.

A layer's busy time counts only its outermost spans, so a layer function
calling another of the same layer is not counted twice.  Self time is a span's
duration minus the durations of its direct children, summed over the layer.

``PER_LAYER`` lists every per-layer metric with its unit, which way is better,
the wrapped functions it is built from, and the end-to-end metric it should
move on which workload ("little" marks a workload where the prediction is no
change).  A metric whose sources were all missing from the program is absent.
"""

from __future__ import annotations

import statistics

import numpy as np

# name, unit, better, sources (layer names; "" = not from spans), what it should move
PER_LAYER = (
    ("package.import_s", "s", "lower", ("",), "setup_s, all workloads"),
    ("config.parse_s", "s", "lower", ("config.parse_config", "config.parse_sweep_config"),
     "setup_s, all workloads; wall_s/cpu_s on sweep16 (parsed once per point)"),
    ("material.validate_s", "s", "lower", ("material.validate_hypotheses",), "setup_s"),
    ("material.eval.calls", "count", "lower", ("material.eval_gamma", "material.eval_f"),
     "steps_per_s on run_coupled; little on run_fine"),
    ("material.eval.s", "s", "lower", ("material.eval_gamma", "material.eval_f"),
     "steps_per_s on run_coupled; little on run_fine"),
    ("grid.calls", "count", "lower", ("grid.integrate", "grid.d1", "grid.d2"),
     "steps_per_s on run_coupled; little on run_fine"),
    ("grid.s", "s", "lower", ("grid.integrate", "grid.d1", "grid.d2"),
     "steps_per_s on run_coupled; little on run_fine"),
    ("grid.integrate.calls", "count", "lower", ("grid.integrate",),
     "steps_per_s on run_coupled; little on run_fine"),
    ("dynamics.step.calls", "count", "lower", ("dynamics.step_with_count", "dynamics.step"),
     "steps_per_s on run_fine; little on run_coupled"),
    ("dynamics.step.s", "s", "lower", ("dynamics.step_with_count", "dynamics.step"),
     "steps_per_s on run_fine; little on run_coupled"),
    ("dynamics.step.self_s", "s", "lower", ("dynamics.step_with_count", "dynamics.step"),
     "steps_per_s on run_fine; little on run_coupled"),
    ("dynamics.step.retries", "count", "lower", ("dynamics.step_with_count", "dynamics.step"),
     "steps_per_s, all workloads (0 at the seed)"),
    ("dynamics.solve.velocity_s", "s", "lower", ("dynamics._solve_banded",),
     "steps_per_s on run_fine and ladders"),
    ("dynamics.solve.heat_s", "s", "lower", ("dynamics._solve_banded",),
     "steps_per_s on run_fine and ladders"),
    ("dynamics.solve.eta_s", "s", "lower", ("dynamics._solve_banded",), "steps_per_s on ladders"),
    ("dynamics.solve.calls", "count", "lower", ("dynamics._solve_banded",),
     "steps_per_s on run_fine and ladders"),
    ("dynamics.solve.bytes_computed", "bytes", "lower", ("dynamics._solve_banded",),
     "steps_per_s on run_fine and ladders (computed from array sizes, not a bandwidth)"),
    ("dynamics.step_eta.calls", "count", "lower", ("dynamics.step_eta",), "steps_per_s on ladders"),
    ("dynamics.step_eta.s", "s", "lower", ("dynamics.step_eta",), "steps_per_s on ladders"),
    ("dynamics.states_bytes", "bytes", "lower", ("dynamics.simulate",),
     "peak_rss_mb on run_fine; little on run_coupled (largest Trajectory.states of one run)"),
    ("diagnostics.monitors_update.calls", "count", "lower", ("diagnostics.monitors_update",),
     "steps_per_s on run_coupled and run_fine"),
    ("diagnostics.monitors_update.s", "s", "lower", ("diagnostics.monitors_update",),
     "steps_per_s on run_coupled and run_fine"),
    ("diagnostics.make_row.calls", "count", "lower", ("diagnostics.make_row",),
     "steps_per_s on run_coupled; little on run_fine"),
    ("diagnostics.make_row.s", "s", "lower", ("diagnostics.make_row",),
     "steps_per_s on run_coupled; little on run_fine"),
    ("diagnostics.z_residual.calls", "count", "lower", ("diagnostics.z_residual",),
     "steps_per_s on run_coupled; little on run_fine"),
    ("diagnostics.z_residual.s", "s", "lower", ("diagnostics.z_residual",),
     "steps_per_s on run_coupled; little on run_fine"),
    ("diagnostics.blowup_check.calls", "count", "lower", ("diagnostics.blowup_check",),
     "steps_per_s on run_coupled; little on run_fine"),
    ("diagnostics.blowup_check.s", "s", "lower", ("diagnostics.blowup_check",),
     "steps_per_s on run_coupled; little on run_fine"),
    ("diagnostics.instantaneous_monitors.calls", "count", "lower",
     ("diagnostics.instantaneous_monitors",), "steps_per_s on run_coupled and run_fine"),
    ("diagnostics.sample_useful_ratio", "ratio", "higher", ("diagnostics.instantaneous_monitors",),
     "steps_per_s on run_coupled and run_fine (rows / instantaneous_monitors calls)"),
    ("diagnostics.estimate_K.s", "s", "lower", ("diagnostics.estimate_K",),
     "wall_s on run_fine and sweep16, not steps_per_s"),
    ("diagnostics.estimate_K.solves", "count", "lower", ("diagnostics.estimate_K",),
     "wall_s on run_fine and sweep16, not steps_per_s"),
    ("scenarios.mollify.s", "s", "lower", ("scenarios.mollify",), "wall_s on ladders"),
    ("scenarios.eps_cascade.s", "s", "lower", ("scenarios.eps_cascade",), "wall_s on ladders"),
    ("scenarios.eta_cascade.s", "s", "lower", ("scenarios.eta_cascade",), "wall_s on ladders"),
    ("cli.write_artifacts.self_s", "s", "lower", ("cli._write_artifacts",),
     "wall_s on sweep16 and run_coupled (cli functions under _write_artifacts; estimate_K "
     "and other layers excluded)"),
    ("cli.bytes_written", "bytes", "lower", ("",), "wall_s on sweep16 and run_coupled"),
    ("cli.sweep_point.s", "s", "lower", ("cli._sweep_point",),
     "wall_s/cpu_s on sweep16 (median point)"),
    ("cli.sweep_point.max_s", "s", "lower", ("cli._sweep_point",),
     "wall_s on sweep16 (slowest point)"),
    ("cli.sweep.queue_wait_s", "s", "lower", ("cli._sweep_point",),
     "wall_s on sweep16 (summed wait of points behind the first start)"),
    ("cli.sweep.worker_busy_frac", "ratio", "higher", ("cli._sweep_point",),
     "wall_s/cpu_s on sweep16"),
    ("trace.overhead", "ratio", "lower", ("",),
     "none: traced wall_s median over untraced wall_s median in the same run"),
    ("trace.absent", "count", "lower", ("",),
     "none: wrapper targets not found in the program"),
)

class Spans:
    """Index over one op's spans (at least one): durations, parents, self times."""

    def __init__(self, names: list[str], spans: np.ndarray):
        self.names = names
        self.spans = spans
        self.dur = spans["t1"] - spans["t0"]
        order = np.argsort(spans["sid"])
        sids = spans["sid"][order]
        at = np.searchsorted(sids, spans["parent"]).clip(0, len(sids) - 1)
        self.parent = np.where(sids[at] == spans["parent"], order[at], -1)
        has = self.parent >= 0
        child_sum = np.bincount(self.parent[has], weights=self.dur[has], minlength=len(spans))
        self.self_t = self.dur - child_sum

    def mask(self, *names: str) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n in names]
        return np.isin(self.spans["name"], ids)

    def under(self, group: np.ndarray) -> np.ndarray:
        """True where some proper ancestor of the span is in ``group``."""
        out = np.zeros(len(self.spans), dtype=bool)
        cur = self.parent.copy()
        live = cur >= 0
        while live.any():
            out[live] |= group[cur[live]]
            cur[live] = self.parent[cur[live]]
            live = cur >= 0
        return out

    def outer(self, *names: str) -> np.ndarray:
        group = self.mask(*names)
        return group & ~self.under(group)

    def busy(self, *names: str) -> float:
        return float(self.dur[self.outer(*names)].sum())

    def calls(self, *names: str) -> int:
        return int(self.outer(*names).sum())

    def note(self, name: str) -> np.ndarray:
        return self.spans["value"][self.mask("note:" + name)]


def _sweep_points(ix: Spans) -> dict:
    pts = ix.mask("cli._sweep_point")
    if not pts.any():
        return dict.fromkeys(("cli.sweep_point.s", "cli.sweep_point.max_s",
                              "cli.sweep.queue_wait_s", "cli.sweep.worker_busy_frac"), 0.0)
    t0, t1, dur = ix.spans["t0"][pts], ix.spans["t1"][pts], ix.dur[pts]
    workers = len(set((ix.spans["sid"][pts] >> 32).tolist()))
    span = float(t1.max() - t0.min())
    return {
        "cli.sweep_point.s": float(np.median(dur)),
        "cli.sweep_point.max_s": float(dur.max()),
        "cli.sweep.queue_wait_s": float((t0 - t0.min()).sum()),
        "cli.sweep.worker_busy_frac": float(dur.sum() / (workers * span)) if span > 0 else 0.0,
    }


def op_metrics(names: list[str], spans: np.ndarray, info: dict) -> dict:
    """Per-layer metrics of one traced op; ``info`` holds op.json plus
    ``bytes_written`` measured on disk."""
    ix = Spans(names, spans)
    step = ("dynamics.step_with_count", "dynamics.step")
    mat_eval = ("material.eval_gamma", "material.eval_f", "material.eval_gamma_prime",
                "material.eval_f_prime")
    grid_all = tuple(n for n in names if n.startswith("grid."))
    step_outer = ix.outer(*step)
    inst_calls = ix.calls("diagnostics.instantaneous_monitors")
    rows = float(ix.note("simulate.rows").sum())
    solves_under_k = ix.mask("scipy.linalg.solve_banded") & ix.under(ix.mask("diagnostics.estimate_K"))
    states = ix.note("simulate.states_bytes")
    solve_names = [n for n in names if n.startswith("dynamics.solve.")]
    artifacts = ix.mask("cli._write_artifacts")
    in_artifacts = artifacts | ix.under(artifacts)
    cli_layer = ix.mask(*(n for n in names if n.startswith("cli.")))
    m = {
        "package.import_s": info["import_s"],
        "config.parse_s": ix.busy("config.parse_config", "config.parse_sweep_config",
                                  "config.parse_converge_config"),
        "material.validate_s": ix.busy("material.validate_hypotheses"),
        "material.eval.calls": ix.calls(*mat_eval),
        "material.eval.s": ix.busy(*mat_eval),
        "grid.calls": int(ix.mask(*grid_all).sum()),
        "grid.s": ix.busy(*grid_all),
        "grid.integrate.calls": int(ix.mask("grid.integrate").sum()),
        "dynamics.step.calls": int(step_outer.sum()),
        "dynamics.step.s": float(ix.dur[step_outer].sum()),
        "dynamics.step.self_s": float(ix.self_t[ix.mask(*step)].sum()),
        "dynamics.step.retries": int((step_outer & (ix.spans["err"] == 1)).sum()),
        "dynamics.solve.velocity_s": ix.busy("dynamics.solve.velocity"),
        "dynamics.solve.heat_s": ix.busy("dynamics.solve.heat"),
        "dynamics.solve.eta_s": ix.busy("dynamics.solve.eta"),
        "dynamics.solve.calls": ix.calls(*solve_names),
        "dynamics.solve.bytes_computed": float(ix.spans["value"][ix.mask(*solve_names)].sum()),
        "dynamics.step_eta.calls": ix.calls("dynamics.step_eta"),
        "dynamics.step_eta.s": ix.busy("dynamics.step_eta"),
        "dynamics.states_bytes": float(states.max()) if states.size else 0.0,
        "diagnostics.instantaneous_monitors.calls": inst_calls,
        "diagnostics.sample_useful_ratio": rows / inst_calls if inst_calls else 0.0,
        "diagnostics.estimate_K.s": ix.busy("diagnostics.estimate_K"),
        "diagnostics.estimate_K.solves": int(solves_under_k.sum()),
        "scenarios.mollify.s": ix.busy("scenarios.mollify"),
        "scenarios.eps_cascade.s": ix.busy("scenarios.eps_cascade"),
        "scenarios.eta_cascade.s": ix.busy("scenarios.eta_cascade"),
        "cli.write_artifacts.self_s": float(ix.self_t[in_artifacts & cli_layer].sum()),
        "cli.bytes_written": info["bytes_written"],
        "trace.absent": len(info["absent"]),
    }
    for fn in ("monitors_update", "make_row", "z_residual", "blowup_check"):
        m[f"diagnostics.{fn}.calls"] = ix.calls(f"diagnostics.{fn}")
        m[f"diagnostics.{fn}.s"] = ix.busy(f"diagnostics.{fn}")
    m.update(_sweep_points(ix))
    return m


def absent_metrics(installed: list[str]) -> set[str]:
    """Metrics none of whose source functions could be wrapped."""
    have = set(installed)
    return {name for name, _, _, sources, _ in PER_LAYER
            if "" not in sources and not have.intersection(sources)}


def layer_table(names: list[str], spans: np.ndarray) -> list[tuple[str, int, float, float]]:
    """(layer, calls, busy s, self s) for every wrapped function seen in the op."""
    ix = Spans(names, spans)
    rows = []
    for name in sorted(n for n in names if not n.startswith("note:")):
        group = ix.mask(name)
        rows.append((name, int(group.sum()), ix.busy(name), float(ix.self_t[group].sum())))
    return rows


def median_metrics(per_op: list[dict]) -> dict:
    """Median of each metric over the traced ops of a run."""
    return {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
