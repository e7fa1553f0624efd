"""One op of a workload, run in its own process by ``run.py``.

    python3 bench/op.py WORKLOAD SEED OUT_DIR TRACE

Imports viscowave from ``src/`` (``run.py`` sets PYTHONPATH), wraps its
functions (only ``dynamics.simulate`` when TRACE is 0), runs the op, and
writes ``op.json`` and the span files into OUT_DIR.  The exit code is the
program's own.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

from workloads import ETA_DT, ETA_LADDER, ETA_T_END, EPS_LADDER, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _ladders(out: dict) -> None:
    import numpy as np
    from viscowave import grid as g
    from viscowave import scenarios as sc

    rep = sc.eps_cascade(sc.battery_scenario("rough_theta"), EPS_LADDER)
    out["eps"] = {"statuses": list(rep.statuses), "blowup_fired": rep.blowup_fired,
                  "sup_dists": {k: list(v) for k, v in rep.sup_dists.items()}}

    grid_ = g.Grid1D(1.0, 129)
    x = grid_.nodes
    A = 1.0 + 0.3 * np.sin(np.pi * x)
    gsrc = 0.5 * np.sin(np.pi * x)
    v0 = np.sin(np.pi * x)
    u0 = 0.2 * np.sin(2 * np.pi * x)
    for w in (gsrc, v0, u0):
        w[0] = w[-1] = 0.0
    t0 = time.monotonic()
    eta = sc.eta_cascade(A, gsrc, 1.0, grid_, v0, u0, ETA_LADDER, t_end=ETA_T_END, dt=ETA_DT)
    out["eta_s"] = time.monotonic() - t0
    out["eta_steps"] = (len(ETA_LADDER) + 1) * round(ETA_T_END / ETA_DT)
    out["eta"] = {"sup_y": list(eta.sup_y), "slope": eta.slope}


def main(argv: list[str]) -> int:
    name, seed, out_dir, traced = argv[0], argv[1], argv[2], argv[3] == "1"
    work = WORKLOADS[name]

    t0 = time.monotonic()
    import viscowave
    import_s = time.monotonic() - t0
    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(viscowave.__file__).startswith(src):
        print(f"viscowave imported from {viscowave.__file__}, not from {src}", file=sys.stderr)
        return 90

    import tracing  # after the timed import: it pulls in numpy
    rec = tracing.Recorder(out_dir)
    installed, absent = tracing.install(rec, traced)
    out = {"import_s": import_s, "installed": installed, "absent": absent}

    from viscowave import cli
    run_dir = os.path.join(out_dir, "out")
    if work.kind == "run":
        code = cli.main(["run", "--config", work.config, "--out", run_dir, "--seed", seed])
    elif work.kind == "sweep":
        code = cli.main(["sweep", "--config", work.config, "--out", run_dir,
                         "--workers", str(work.workers), "--seed", seed])
    else:
        _ladders(out)
        code = 0

    import numpy
    import scipy
    from viscowave import diagnostics
    out["diag_columns"] = list(getattr(diagnostics, "DIAG_COLUMNS", []))
    out["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                       "scipy": scipy.__version__}
    for who, flag in (("self", resource.RUSAGE_SELF), ("children", resource.RUSAGE_CHILDREN)):
        ru = resource.getrusage(flag)
        out[f"{who}_cpu_s"] = ru.ru_utime + ru.ru_stime
        out[f"{who}_maxrss_mb"] = ru.ru_maxrss / 1024.0
    rec.flush()
    with open(os.path.join(out_dir, "op.json"), "w") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
