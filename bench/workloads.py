"""The benchmark's workloads and what a correct op of each must produce.

Every op is one process launched by ``run.py`` (closed loop, one client).
Only sweep16 starts more processes: a pool of 2 workers.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                   # "run", "sweep" or "ladders"
    why: str
    config: str = ""            # INI path relative to the repository root
    steps: int = 0              # accepted steps a run must take
    cadence: int = 1            # diagnostic rows: one per `cadence` steps, plus t=0 and t_end
    drift_bound: float = 0.0    # largest |drift| / E0 a run may show
    points: int = 0             # sweep points
    workers: int = 0            # sweep pool size


WORKLOADS = {w.name: w for w in (
    Workload(
        "run_coupled", "run",
        "ROADMAP headline run (n=129, imex_be, cadence 1): Python call overhead and per-sample "
        "diagnostics dominate the step loop",
        config="demos/config/coupled.ini", steps=1000, cadence=1, drift_bound=1e-3),
    Workload(
        "run_fine", "run",
        "n=8193 imex_cn at cadence 10: array work and the banded solves dominate, and retained "
        "states (~20 MB) show in peak RSS; the only CN workload",
        config="bench/configs/fine.ini", steps=1000, cadence=10, drift_bound=1e-6),
    Workload(
        "sweep16", "sweep",
        "16-point delta sweep with --workers 2: process pool, per-point config parse, artifacts "
        "and estimate_K; the target of batching across points",
        config="bench/configs/sweep16.ini", points=16, workers=2),
    Workload(
        "ladders", "ladders",
        "eps_cascade on rough_theta and the eta_cascade of criterion 9: the only path through "
        "step_eta, mollify and full-history runs"),
)}

# eps_cascade: criterion 10 of the acceptance suite.
EPS_LADDER = tuple(2.0 ** -k for k in range(1, 6))
# eta_cascade: criterion 9 of the acceptance suite (n=129, t_end=0.5, dt=5e-4).
ETA_LADDER = (1e-1, 1e-2, 1e-3)
ETA_T_END = 0.5
ETA_DT = 5e-4
