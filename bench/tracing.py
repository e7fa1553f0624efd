"""Span recording around viscowave's public functions, installed from outside.

Callers inside viscowave look functions up at call time (``dyn.run``,
``g.integrate``, the module global ``simulate`` in ``dynamics``), so replacing
a module attribute before an op starts puts a wrapper on every call path.
Nothing in ``src/`` is edited.

Each target is resolved by name when an op starts.  A target a refactor has
removed is reported as absent, never as an error, so the benchmark keeps
running against a changed program.

A span is (id, parent, name, start, end, error flag, value).  Spans stay in
memory and are written as one ``.npy`` file per flush.  The op's main process
flushes once at the end; a pool worker flushes after each of its top-level
spans (one sweep point), because workers leave through ``os._exit`` and would
drop anything still buffered.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

import numpy as np

SPAN_DTYPE = np.dtype([("sid", "i8"), ("parent", "i8"), ("name", "i4"), ("t0", "f8"),
                       ("t1", "f8"), ("err", "i1"), ("value", "f8")])

# Modules whose public functions are wrapped in a traced op.
TRACED_MODULES = ("grid", "material", "dynamics", "diagnostics", "scenarios", "config", "cli")

# Private or foreign targets that per-layer metrics need, as "module:attribute".
EXTRA_TARGETS = (
    "viscowave.dynamics:_solve_banded",
    "viscowave.cli:_write_artifacts",
    "viscowave.cli:_sweep_point",
    "scipy.linalg:solve_banded",
)

SIMULATE = "viscowave.dynamics:simulate"


class Recorder:
    """In-memory span buffer for one process of one op."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.main_pid = os.getpid()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self):
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self._count = 0
        self._flushes = 0

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self) -> int:
        self._count += 1
        sid = (self.pid << 32) | self._count
        self.stack.append(sid)
        return sid

    def close(self, sid: int, name_id: int, t0: float, t1: float, err: int, value: float):
        self.stack.pop()
        parent = self.stack[-1] if self.stack else -1
        self.spans.append((sid, parent, name_id, t0, t1, err, value))
        if not self.stack and self.pid != self.main_pid:
            self.flush()

    def note(self, name: str, value: float):
        """A zero-length span under the current span carrying one number."""
        sid = self.open()
        t = time.monotonic()
        self.close(sid, self.name_id("note:" + name), t, t, 0, float(value))

    def flush(self):
        if not self.spans:
            return
        self._flushes += 1
        stem = os.path.join(self.out_dir, f"spans-{self.pid}-{self._flushes}")
        np.save(stem + ".npy", np.array(self.spans, dtype=SPAN_DTYPE))
        with open(stem + ".json", "w") as fh:
            json.dump(self.names, fh)
        self.spans = []


def _resolve(target: str):
    mod_name, attr = target.split(":")
    try:
        module = importlib.import_module(mod_name)
    except ImportError:
        return None, None
    return module, getattr(module, attr, None)


def _solve_name(args, kwargs) -> str:
    """Layer name of a banded solve, from its ``label`` argument."""
    label = str(kwargs.get("label", args[5] if len(args) > 5 else ""))
    if "eta" in label:
        return "dynamics.solve.eta"
    if "velocity" in label:
        return "dynamics.solve.velocity"
    if "heat" in label:
        return "dynamics.solve.heat"
    return "dynamics.solve.other"


def _array_bytes(args, result) -> float:
    """Bytes of the ndarray operands and result of one call (computed, not measured)."""
    total = sum(a.nbytes for a in args if isinstance(a, np.ndarray))
    if isinstance(result, np.ndarray):
        total += result.nbytes
    return float(total)


def _note_trajectory(rec: Recorder, traj):
    """Steps, rows and retained-state bytes of a finished ``simulate`` call."""
    rec.note("simulate.steps", getattr(traj, "steps_taken", 0))
    rec.note("simulate.rows", len(getattr(traj, "rows", ())))
    held = sum(s.u.nbytes + s.v.nbytes + s.theta.nbytes for s in getattr(traj, "states", ()))
    rec.note("simulate.states_bytes", held)


def _wrap(rec: Recorder, fn, name: str):
    solve = name == "dynamics._solve_banded"
    simulate = name == "dynamics.simulate"
    fixed = rec.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = rec.open()
        t0 = time.monotonic()
        err, result = 1, None
        try:
            result = fn(*args, **kwargs)
            err = 0
            if simulate:
                _note_trajectory(rec, result)
            return result
        finally:
            t1 = time.monotonic()
            if solve:
                rec.close(sid, rec.name_id(_solve_name(args, kwargs)), t0, t1, err,
                          _array_bytes(args, result))
            else:
                rec.close(sid, fixed, t0, t1, err, 0.0)

    return wrapper


def _targets(traced: bool) -> list[str]:
    if not traced:
        return [SIMULATE]
    found = []
    for short in TRACED_MODULES:
        try:
            module = importlib.import_module(f"viscowave.{short}")
        except ImportError:
            continue  # its metrics show as absent
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and callable(obj) and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == module.__name__):
                found.append(f"{module.__name__}:{attr}")
    return sorted(set(found) | set(EXTRA_TARGETS) | {SIMULATE})


def install(rec: Recorder, traced: bool) -> tuple[list[str], list[str]]:
    """Wrap every target in place.

    Returns the layer names of the wrapped targets and the targets not found.
    """
    installed, absent = [], []
    for target in _targets(traced):
        module, fn = _resolve(target)
        if fn is None or not callable(fn):
            absent.append(target)
            continue
        name = target.replace("viscowave.", "").replace(":", ".")
        setattr(module, target.split(":")[1], _wrap(rec, fn, name))
        installed.append(name)
    return installed, absent


def load(out_dir: str):
    """All spans flushed into ``out_dir``, with name ids mapped onto one list."""
    index: dict[str, int] = {}
    parts = []
    for fname in sorted(os.listdir(out_dir)):
        if not (fname.startswith("spans-") and fname.endswith(".npy")):
            continue
        stem = os.path.join(out_dir, fname[:-4])
        arr = np.load(stem + ".npy")
        with open(stem + ".json") as fh:
            remap = np.array([index.setdefault(n, len(index)) for n in json.load(fh)], dtype="i4")
        arr["name"] = remap[arr["name"]]
        parts.append(arr)
    spans = np.concatenate(parts) if parts else np.zeros(0, dtype=SPAN_DTYPE)
    return list(index), spans
