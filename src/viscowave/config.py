"""Run configuration: plain-text config files, resolution into concrete
simulation inputs, and the sweep/convergence variants.

The file format is INI with one section per concern::

    [run]
    scenario = coupled          ; a battery name, or "custom"
    out_dir = runs/coupled
    seed = 1234

    [material]                  ; optional overrides / custom laws
    gamma_family = saturating
    gamma0 = 1.0
    delta = 0.1
    ...

Physical keys carry the symbol names used throughout (gamma0, delta, K_f,
alpha, a, L, T_end, kappa, q) so artifacts stay traceable.  A parsed
RunConfig serializes back to an equivalent file: parse(serialize(cfg)) == cfg.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, fields, replace

import numpy as np

from . import material as mat
from . import scenarios as sc
from .errors import ConfigError

SWEEP_AXES = ("delta", "alpha", "kappa", "grid_n", "dt")


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved experiment: scenario plus run-level controls.

    ``dump_fields`` additionally writes one x,u,v,theta snapshot file per
    diagnostic sample into ``<out_dir>/fields/``.
    """

    scenario: sc.Scenario
    out_dir: str = "runs/out"
    seed: int = 0
    k_trials: int = 3
    dump_fields: bool = False

    def __post_init__(self):
        if self.k_trials < 1:
            raise ConfigError("k_trials must be at least 1")


@dataclass(frozen=True)
class SweepConfig:
    base: RunConfig
    axis: str
    values: tuple[float, ...]
    workers: int = 1

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}, got {self.axis!r}")
        if not self.values:
            raise ConfigError("sweep needs a nonempty value list")


@dataclass(frozen=True)
class ConvergeConfig:
    base: RunConfig
    n_values: tuple[int, ...]
    dt_scaling: str = "fixed"  # or "quadratic": dt ~ dx^2 relative to first n

    def __post_init__(self):
        if len(self.n_values) < 2:
            raise ConfigError("convergence study needs at least two grid sizes")
        if self.dt_scaling not in ("fixed", "quadratic"):
            raise ConfigError("dt_scaling must be 'fixed' or 'quadratic'")


def apply_axis(config: RunConfig, axis: str, value: float) -> RunConfig:
    """New RunConfig with one swept parameter replaced."""
    scen = config.scenario
    if axis == "delta":
        scen = replace(scen, laws=replace(scen.laws, delta=float(value)))
    elif axis == "alpha":
        scen = replace(scen, laws=replace(scen.laws, alpha=float(value)))
    elif axis == "kappa":
        scen = replace(scen, monitors=replace(scen.monitors, kappa=float(value)))
    elif axis == "grid_n":
        scen = replace(scen, n=int(value))
    elif axis == "dt":
        scen = replace(scen, scheme=replace(scen.scheme, dt_initial=float(value),
                                            dt_max=float(value)))
    else:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    return replace(config, scenario=scen)


# --------------------------------------------------------------------------
# the file format: sections whose keys are the fields of a dataclass, written
# once here for both parse_config and serialize_config, in file order
# --------------------------------------------------------------------------

_MATERIAL_KEYS = ("gamma_family", "f_family", "gamma0", "delta", "K_f", "alpha")
_TIME_KEYS = ("scheme", "dt_initial", "dt_max", "cfl_safety", "positivity_policy",
              "positivity_tolerance", "adaptive", "solver_tol", "max_step_retries")
_MONITOR_KEYS = ("q", "kappa", "T0", "cadence", "blowup_threshold", "blowup_window",
                 "blowup_rate_min")
_RUN_KEYS = ("out_dir", "seed", "k_trials", "dump_fields")
# (section, key, Scenario field) of the keys that each set one field of the scenario
_SCENARIO_KEYS = (("run", "name", "name"), ("run", "mms_case", "mms_id"),
                  ("domain", "L", "length"), ("domain", "n", "n"), ("domain", "a", "a"),
                  ("time", "T_end", "t_end"))

# every key of each section; [initial] takes the parameters of its generator,
# which Scenario checks against the generator's signature
_SECTIONS = {
    "run": ("scenario", "name", "mms_case") + _RUN_KEYS,
    "material": _MATERIAL_KEYS + ("gamma_table", "f_table"),
    "domain": ("L", "n", "a"),
    "initial": (),
    "time": ("T_end",) + _TIME_KEYS,
    "monitors": _MONITOR_KEYS,
    "sweep": ("axis", "values", "workers"),
    "converge": ("n_values", "dt_scaling"),
}


def _get(parser, section, key, conv, default=None, required=False):
    if parser.has_option(section, key):
        raw = parser.get(section, key)
        try:
            return conv(raw)
        except ValueError as exc:
            raise ConfigError(f"config field [{section}] {key} = {raw!r}: {exc}") from exc
    if required:
        raise ConfigError(f"missing required config field [{section}] {key}")
    return default


def _float(raw: str) -> float:
    if not np.isfinite(value := float(raw)):
        raise ValueError("not a finite number")
    return value


def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _tuple(conv):
    """Converter of a comma- or space-separated list."""
    return lambda raw: tuple(conv(v) for v in raw.replace(",", " ").split())


_CONVERTERS = {"float": _float, "int": int, "str": str, "str | None": str, "bool": _bool}


def _read_section(parser, section, keys, base, **extra):
    """``base`` with each of ``keys`` read from ``[section]`` by the converter
    of its dataclass field, plus ``extra``."""
    types = {f.name: f.type for f in fields(base)}
    return replace(base, **{key: _get(parser, section, key, _CONVERTERS[types[key]],
                                      getattr(base, key)) for key in keys}, **extra)


def _write_section(obj, keys) -> dict:
    """The ``keys`` of ``obj`` as INI values: a string as it is, others by repr."""
    values = {key: getattr(obj, key) for key in keys}
    return {key: v if isinstance(v, str) else repr(v) for key, v in values.items()}


# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------


def _load(source) -> configparser.ConfigParser:
    """The INI document of a path or a file-like object, values read literally;
    a file that is not valid INI is a ConfigError naming the file."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    try:
        if hasattr(source, "read"):
            parser.read_file(source)
        elif not parser.read(source):
            raise ConfigError(f"cannot read config file {source!r}")
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]; known: {', '.join(_SECTIONS)}")
        keys = _SECTIONS[section]
        unknown = [k for k in parser.options(section) if k not in (x.lower() for x in keys)]
        if unknown and section != "initial":  # the parser lower-cases every key
            raise ConfigError(f"unknown key [{section}] {unknown[0]}; known: {', '.join(keys)}")
    return parser


def _load_table(path: str) -> np.ndarray:
    try:
        tab = np.loadtxt(path, dtype=float)
    except OSError as exc:
        raise ConfigError(f"cannot read table file {path!r}: {exc}") from exc
    return np.atleast_2d(tab)


def _parse_gen_params(parser) -> dict:
    if not parser.has_section("initial"):
        return {}
    return {key: _get(parser, "initial", key, int if key == "k" else _float)
            for key in parser.options("initial") if key != "generator"}


def _run_config(parser) -> RunConfig:
    """The file's base scenario with each key of the file in the field it
    names.  The base is the battery entry named by ``scenario``, or for
    ``custom`` the defaults with the file's (required) generator.  The
    ``[initial]`` parameters go over the base's own, or replace them when
    ``generator`` names another generator."""
    name = _get(parser, "run", "scenario", str, "custom")
    generator = _get(parser, "initial", "generator", str, required=name == "custom")
    base = (sc.battery_scenario(name) if name != "custom" else
            sc.Scenario(name=name, laws=mat.MaterialLaws(), a=1.0, length=1.0, n=129,
                        generator=generator))
    gen_params = _parse_gen_params(parser)
    if generator in (None, base.generator):
        gen_params = {**base.gen_params, **gen_params}

    tables = {key: _load_table(path) for key in ("gamma_table", "f_table")
              if (path := _get(parser, "material", key, str))}
    types = {f.name: f.type for f in fields(base)}
    scenario = replace(
        base, generator=generator or base.generator, gen_params=gen_params,
        laws=_read_section(parser, "material", _MATERIAL_KEYS, base.laws, **tables),
        scheme=_read_section(parser, "time", _TIME_KEYS, base.scheme),
        monitors=_read_section(parser, "monitors", _MONITOR_KEYS, base.monitors),
        **{field: _get(parser, section, key, _CONVERTERS[types[field]], getattr(base, field))
           for section, key, field in _SCENARIO_KEYS})
    return _read_section(parser, "run", _RUN_KEYS, RunConfig(scenario))


def parse_config(source) -> RunConfig:
    """Parse a run config from a path or a file-like object."""
    return _run_config(_load(source))


def parse_sweep_config(source) -> SweepConfig:
    parser = _load(source)
    base = _run_config(parser)
    if not parser.has_section("sweep"):
        raise ConfigError("sweep config needs a [sweep] section")
    return SweepConfig(base=base,
                       axis=_get(parser, "sweep", "axis", str, required=True),
                       values=_get(parser, "sweep", "values", _tuple(_float), required=True),
                       workers=_get(parser, "sweep", "workers", int, 1))


def parse_converge_config(source) -> ConvergeConfig:
    parser = _load(source)
    base = _run_config(parser)
    if not parser.has_section("converge"):
        raise ConfigError("convergence config needs a [converge] section")
    return ConvergeConfig(base=base,
                          n_values=_get(parser, "converge", "n_values", _tuple(int),
                                        required=True),
                          dt_scaling=_get(parser, "converge", "dt_scaling", str, "fixed"))


# --------------------------------------------------------------------------
# serialization (round-trips through parse_config)
# --------------------------------------------------------------------------


def serialize_config(config: RunConfig) -> str:
    """Emit an INI document that parses back to an identical RunConfig.

    Tabulated laws cannot round-trip through a flat file (they reference an
    external table); serializing them raises.
    """
    scen = config.scenario
    if scen.laws.gamma_table is not None or scen.laws.f_table is not None:
        raise ConfigError("tabulated laws serialize by table path only; keep the original config")
    parser = configparser.ConfigParser(interpolation=None)
    parser["run"] = {"scenario": "custom", "name": scen.name,
                     **_write_section(config, _RUN_KEYS)}
    if scen.mms_id is not None:
        parser["run"]["mms_case"] = scen.mms_id
    parser["material"] = _write_section(scen.laws, _MATERIAL_KEYS)
    parser["domain"] = {"L": repr(scen.length), "n": repr(scen.n), "a": repr(scen.a)}
    parser["initial"] = {"generator": scen.generator}
    for key, val in scen.gen_params.items():
        parser["initial"][key] = repr(val)
    parser["time"] = {"T_end": repr(scen.t_end), **_write_section(scen.scheme, _TIME_KEYS)}
    parser["monitors"] = _write_section(scen.monitors, _MONITOR_KEYS)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()
