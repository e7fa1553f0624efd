"""viscowave benchmark: one workload, closed loop, one op at a time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each op is a fresh process (``bench/op.py``)
importing viscowave from ``src/``; ops are launched back to back until the
next one would end more than half an op after S seconds.  Every op's outputs
go through the correctness gate in ``checks.py``.

Before every op, and after the last, the run times ``probe.py``, a fixed
program that shares no code with viscowave.  On a shared host the machine's
speed drifts by tens of percent over seconds to minutes, and every timing
drifts with it; each op's timings are therefore scaled by PROBE_NOMINAL_S /
(the mean wall time of the probes just before and just after it).  A timing
metric thus reads as seconds on a machine that runs the probe in
PROBE_NOMINAL_S; a change to the program moves it exactly as it moves the raw
time, which the report prints beside it.

With ``--trace 0`` the ops run untraced and the result carries the
end-to-end metrics (median over ops of the scaled values).  With ``--trace 1``
every other op is traced (its viscowave functions wrapped, see
``tracing.py``) and the result carries the per-layer metrics of
``layers.py``, medians over traced ops, plus the tracing overhead against the
untraced ops of the same run.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The exit code is 0 only when every op passed the gate; it is 2,
with no result, when the program is not there to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import checks
import layers
import tracing
from workloads import EPS_LADDER, WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RUN_LIMIT_S = 170.0       # every run ends well inside 180 s
MIN_OPS = {0: 3, 1: 2}    # untraced: several set-ups per run; traced: one op of each kind
PROBE_NOMINAL_S = 0.65    # a typical probe wall time on the 2-vCPU Xeon host the bounds were set on

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("steps_per_s", "steps/s"),
              ("peak_rss_mb", "MiB"))
# The power of PROBE_NOMINAL_S / probe time that scales each end-to-end
# metric: times with it, rates against it, memory not at all.
SPEED_POWER = {"setup_s": 1, "wall_s": 1, "cpu_s": 1, "steps_per_s": -1, "peak_rss_mb": 0}


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def preflight() -> str | None:
    """Why the program cannot run here, or None.  Also compiles its bytecode
    so the first timed op does not pay for it."""
    if not os.path.isfile(os.path.join(ROOT, "src", "viscowave", "__init__.py")):
        return f"no viscowave package under {os.path.join(ROOT, 'src')}"
    proc = subprocess.run(
        [sys.executable, "-c", "import viscowave.cli, sys; print(viscowave.__file__)"],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        return "cannot import viscowave: " + proc.stderr.strip().splitlines()[-1]
    if not proc.stdout.strip().startswith(os.path.join(ROOT, "src") + os.sep):
        return f"viscowave resolves to {proc.stdout.strip()}, not to this checkout"
    return None


def _stop_group(pgid: int) -> None:
    """SIGKILL what is left of an op's process group until nothing is left
    (a pool worker forked after the first signal gets the next one)."""
    for _ in range(500):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def _sha256(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return "missing"


def _tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files)


def run_op(work, seed: int, op_dir: str, traced: bool, timeout: float) -> dict:
    """Launch one op, wait for it, gate its outputs, and measure it."""
    os.makedirs(op_dir)
    cmd = [sys.executable, os.path.join(BENCH, "op.py"), work.name, str(seed), op_dir,
           "1" if traced else "0"]
    with open(os.path.join(op_dir, "log.txt"), "w") as log:
        t_launch = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=log, stderr=log,
                                start_new_session=True)
        killer = threading.Timer(timeout, _stop_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            t_end = time.monotonic()
        except BaseException:  # SIGTERM or Ctrl-C: take the op down with the run
            os.killpg(proc.pid, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
            _stop_group(proc.pid)
            raise
        finally:
            killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _stop_group(proc.pid)

    op = {"traced": traced, "exit": proc.returncode, "wall_s": t_end - t_launch,
          "cpu_s": usage.ru_utime + usage.ru_stime, "peak_rss_mb": usage.ru_maxrss / 1024.0}
    try:
        with open(os.path.join(op_dir, "op.json")) as fh:
            info = json.load(fh)
    except (OSError, ValueError):
        info = None
    problems = [] if proc.returncode == 0 else [f"exit code {proc.returncode}"]
    out_dir = os.path.join(op_dir, "out")
    attempted, failed = (work.points, 0) if work.kind == "sweep" else (1, 0)
    if info is None:
        problems.append("op.json missing")
    elif work.kind == "run":
        problems += checks.check_run(out_dir, work, info["diag_columns"])
        op["sha256"] = {f: _sha256(os.path.join(out_dir, f))
                        for f in ("timeseries.csv", "final_state.csv")}
    elif work.kind == "sweep":
        failed, sweep_problems = checks.check_sweep(out_dir, work)
        problems += sweep_problems
    else:
        problems += checks.check_ladders(info, len(EPS_LADDER))

    names, spans = tracing.load(op_dir)
    if info is not None and len(spans):
        ix = layers.Spans(names, spans)
        sims = ix.mask("dynamics.simulate")
        steps = float(ix.note("simulate.steps").sum())
        busy = ix.busy("dynamics.simulate")
        if work.kind == "ladders":
            steps += info["eta_steps"]
            busy += info["eta_s"]
        op["setup_s"] = float(spans["t0"][sims].min()) - t_launch if sims.any() else None
        op["steps_per_s"] = steps / busy if busy > 0 else None
        op["info"] = info
        if traced:
            info["bytes_written"] = _tree_bytes(out_dir) if os.path.isdir(out_dir) else 0
            op["layers"] = layers.op_metrics(names, spans, info)
            op["table"] = layers.layer_table(names, spans)
    if op.get("setup_s") is None or op.get("steps_per_s") is None:
        problems.append("no dynamics.simulate span: setup_s and steps_per_s cannot be measured")
    if problems and failed == 0:
        failed = attempted
    op.update(attempted=attempted, failed=failed, problems=problems)
    if problems:
        with open(os.path.join(op_dir, "log.txt")) as fh:
            op["log_tail"] = fh.read()[-2000:]
    shutil.rmtree(op_dir)
    return op


def run_loop(work, seed: int, seconds: float, trace: bool, base: str) -> list[dict]:
    start = time.monotonic()
    ops: list[dict] = []
    probes: list[float] = []
    while True:
        elapsed = time.monotonic() - start
        if len(ops) >= MIN_OPS[trace]:
            typical = statistics.median(p + o["wall_s"] for p, o in zip(probes, ops))
            # Rounding the op count rather than flooring it gives workloads
            # with long ops (ladders, sweep16) one more sample in about half
            # of their runs, at no cost in total time over many runs.
            if elapsed + typical / 2 > seconds:
                break
        timeout = RUN_LIMIT_S - elapsed
        if timeout < 10.0:
            break
        probes.append(run_probe(timeout))
        op = run_op(work, seed, os.path.join(base, f"op-{len(ops):03d}"),
                    traced=trace and len(ops) % 2 == 0, timeout=timeout - probes[-1])
        ops.append(op)
        if op["exit"] < 0:   # killed: no time is left for another op
            break
    # An op's probe time is the mean of the probes just before and just after
    # it, which cancels a steady drift of machine speed across a long op.
    if ops and ops[-1]["exit"] >= 0:
        probes.append(run_probe(10.0))
    for i, op in enumerate(ops):
        op["probe_s"] = statistics.mean(probes[i:i + 2])
    return ops


def _summary_line(name: str, unit: str, values: list[float]) -> str:
    """Median, the highest percentile with at least ten samples above it, and n."""
    values = sorted(values)
    n = len(values)
    line = f"  {name:<12} median {statistics.median(values):.6g} {unit}"
    if n >= 11:
        line += f"  p{100 * (n - 10) // n} {values[n - 11]:.6g} {unit} (10 samples above)"
    else:
        line += "  (no percentile with 10 samples above)"
    return line + f"  n={n}"


def run_probe(timeout: float) -> float:
    """Wall time of one run of probe.py, launch to exit."""
    t0 = time.monotonic()
    subprocess.run([sys.executable, os.path.join(BENCH, "probe.py")], cwd=ROOT, env=_env(),
                   check=True, capture_output=True, timeout=timeout)
    return time.monotonic() - t0


def scaled(op: dict, name: str) -> float:
    """The op's value of an end-to-end metric at nominal machine speed."""
    return op[name] * (PROBE_NOMINAL_S / op["probe_s"]) ** SPEED_POWER[name]


def _provenance(ops: list[dict]) -> str:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    versions = next((o["info"]["versions"] for o in ops if "info" in o), {})
    return (f"provenance: nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
            f"cpu={model!r} python={versions.get('python')} numpy={versions.get('numpy')} "
            f"scipy={versions.get('scipy')}; the benchmark pins no CPU and sets no "
            "frequency governor, so neither is controlled")


def report(work, seed: int, seconds: float, trace: bool, ops: list[dict]) -> dict:
    """Print the human-readable report; return the JSON result."""
    attempted = sum(o["attempted"] for o in ops)
    failed = sum(o["failed"] for o in ops)
    good = [o for o in ops if not o["problems"]]
    plain = [o for o in good if not o["traced"]]
    print(f"workload {work.name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}  "
          f"ops {len(ops)} ({sum(o['traced'] for o in ops)} traced)")
    print(_provenance(ops))
    probes = [o["probe_s"] for o in ops]
    print(f"machine: probe {min(probes):.3f} to {max(probes):.3f} s, median "
          f"{statistics.median(probes):.3f} s; nominal {PROBE_NOMINAL_S} s")
    for o in ops:
        for p in o["problems"]:
            print(f"FAILED op: {p}")
        if o["problems"] and "log_tail" in o:
            print(o["log_tail"], file=sys.stderr)
    print("end to end (untraced ops), scaled to the nominal probe time:")
    medians = {}
    for name, unit in END_TO_END:
        values = [scaled(o, name) for o in plain]
        medians[name] = statistics.median(values) if values else 0.0
        if values:
            print(_summary_line(name, unit, values))
    print("end to end (untraced ops), as measured:")
    for name, unit in END_TO_END:
        if plain and SPEED_POWER[name]:
            print(_summary_line(name, unit, [o[name] for o in plain]))
    print(f"  fail_frac    {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    if work.kind == "sweep" and plain:
        o = plain[-1]["info"]
        print(f"  sweep processes, last op: op process cpu {o['self_cpu_s']:.3f} s, "
              f"workers cpu {o['children_cpu_s']:.3f} s; op process maxrss "
              f"{o['self_maxrss_mb']:.1f} MiB, largest worker maxrss {o['children_maxrss_mb']:.1f} MiB")
    for o in good[-1:]:
        for fname, digest in o.get("sha256", {}).items():
            distinct = {x["sha256"][fname] for x in good}
            print(f"  sha256 {fname} {digest} ({len(distinct)} distinct over {len(good)} ops)")
    if not trace:
        return {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": {n: {"value": medians[n], "unit": u} for n, u in END_TO_END}}

    traced = [o for o in good if o["traced"]]
    per_layer = layers.median_metrics([o["layers"] for o in traced]) if traced else {}
    traced_wall = [scaled(o, "wall_s") for o in traced]
    per_layer["trace.overhead"] = (statistics.median(traced_wall) / medians["wall_s"]
                                   if traced_wall and medians["wall_s"] else 0.0)
    installed = traced[-1]["info"]["installed"] if traced else []
    absent = layers.absent_metrics(installed)
    if traced:
        print("layers of the last traced op (calls, busy s, self s):")
        for name, calls, busy, self_s in traced[-1]["table"]:
            print(f"  {name:<40} {calls:>9d} {busy:>10.4f} {self_s:>10.4f}")
        for target in traced[-1]["info"]["absent"]:
            print(f"  {target:<40} absent")
    print(f"per layer (median over {len(traced)} traced ops):")
    metrics = {}
    for name, unit, _, _, moves in layers.PER_LAYER:
        value = float(per_layer.get(name, 0.0))
        shown = "absent" if name in absent else f"{value:.6g} {unit}"
        print(f"  {name:<42} {shown:<22} -> {moves}")
        metrics[name] = {"value": value, "unit": unit}
    print(f"tracing overhead: traced wall_s median / untraced wall_s median = "
          f"{per_layer['trace.overhead']:.4f}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    why_not = preflight()
    if why_not:
        print(f"benchmark cannot run: {why_not}", file=sys.stderr)
        return 2
    work = WORKLOADS[args.workload]
    base = os.path.join(ROOT, ".bench_work", f"{work.name}-{os.getpid()}")
    try:
        ops = run_loop(work, args.seed, args.seconds, bool(args.trace), base)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(base))
        except OSError:
            pass  # another run still uses it
    result = report(work, args.seed, args.seconds, bool(args.trace), ops)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
