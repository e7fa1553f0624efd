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
import inspect
import io
from dataclasses import MISSING, dataclass, fields, replace
from typing import Callable, NamedTuple

import numpy as np

from . import diagnostics as diag
from . import dynamics as dyn
from . import material as mat
from . import scenarios as sc
from .errors import ConfigError


class SweepAxis(NamedTuple):
    """What a sweep axis takes and sets: the type of its values, whether its
    points share the grid and dt (and so run as ensembles), and the scenario
    with the axis set to a value."""

    kind: type
    ensemble: bool
    apply: Callable


SWEEP_AXES = {
    "delta": SweepAxis(float, True, lambda s, v: replace(s, laws=replace(s.laws, delta=v))),
    "alpha": SweepAxis(float, True, lambda s, v: replace(s, laws=replace(s.laws, alpha=v))),
    "kappa": SweepAxis(float, True,
                       lambda s, v: replace(s, monitors=replace(s.monitors, kappa=v))),
    "grid_n": SweepAxis(int, False, lambda s, v: replace(s, n=v)),
    "dt": SweepAxis(float, False,
                    lambda s, v: replace(s, scheme=replace(s.scheme, dt_initial=v, dt_max=v))),
}


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved experiment: scenario plus run-level controls.

    ``dump_fields`` additionally writes one x,u,v,theta snapshot file per
    diagnostic sample into ``<out_dir>/fields/``.  ``seed`` is echoed in the
    summary and drives nothing.
    """

    scenario: sc.Scenario
    out_dir: str = "runs/out"
    seed: int = 0
    dump_fields: bool = False

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class SweepConfig:
    base: RunConfig
    axis: str
    values: tuple[float, ...]
    workers: int = 1

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ConfigError(f"sweep axis must be one of {tuple(SWEEP_AXES)}, got {self.axis!r}")
        if not self.values:
            raise ConfigError("sweep needs a nonempty value list")
        if SWEEP_AXES[self.axis].kind is int and any(v != int(v) for v in self.values):
            raise ConfigError(f"sweep axis {self.axis} takes whole numbers, got {self.values}")
        # a value that its dataclass rejects is a config mistake; the laws'
        # hypotheses are checked per point, when it runs
        for value in self.values:
            try:
                apply_axis(self.base, self.axis, value)
            except ConfigError as exc:
                raise ConfigError(f"[sweep] values: {self.axis} = {value:g}: {exc}") from exc


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
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    kind, _, apply = SWEEP_AXES[axis]
    return replace(config, scenario=apply(config.scenario, kind(value)))


# --------------------------------------------------------------------------
# the file format, described once here for parse_config, the known-key check
# in _load and serialize_config: a dataclass-backed section's keys are its
# dataclass's fields, in field order
# --------------------------------------------------------------------------


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


def _load_table(path: str) -> np.ndarray:
    try:
        tab = np.loadtxt(path, dtype=float)
    except OSError as exc:
        raise ConfigError(f"cannot read table file {path!r}: {exc}") from exc
    return np.atleast_2d(tab)


# the converter of a key by the annotation of the field (or the generator
# parameter) it sets
_CONVERTERS = {"float": _float, "int": int, "str": str, "str | None": str, "bool": _bool,
               "tuple[float, ...]": _tuple(_float), "tuple[int, ...]": _tuple(int)}

# The exceptions.  [run] scenario names the base scenario; it sets no field
# (RunConfig.scenario is the resolved scenario).  The [material] tables are
# read from the files their values name.  [initial] takes the generator and
# its parameters, which Scenario checks against the generator's signature.
_BASE_KEY = "scenario"
_TABLE_KEYS = ("gamma_table", "f_table")

# (section, key, Scenario field) of the keys that each set one field of the scenario
_SCENARIO_KEYS = (("run", "name", "name"), ("run", "mms_case", "mms_id"),
                  ("domain", "L", "length"), ("domain", "n", "n"), ("domain", "a", "a"),
                  ("time", "T_end", "t_end"))

# the sections that set a part of the scenario, each the Scenario field of its part
_PARTS = {"material": "laws", "time": "scheme", "monitors": "monitors"}


def _converter(f) -> Callable | None:
    """The converter of the key of dataclass field ``f``; None if it is no key."""
    return _load_table if f.name in _TABLE_KEYS else _CONVERTERS.get(f.type)


def _field_keys(cls) -> tuple:
    """The fields of the dataclass ``cls`` that are keys, in field order."""
    return tuple(f.name for f in fields(cls) if _converter(f))


def _keys(section: str, cls=None) -> tuple:
    """The keys of ``section``: those that set a field of the scenario, then
    the fields of ``cls`` that are keys."""
    return (*(key for s, key, _ in _SCENARIO_KEYS if s == section),
            *(_field_keys(cls) if cls else ()))


# every key of each section, in file order
_SECTIONS = {
    "run": (_BASE_KEY, *_keys("run", RunConfig)),
    "material": _keys("material", mat.MaterialLaws),
    "domain": _keys("domain"),
    "initial": (),
    "time": _keys("time", dyn.SchemeConfig),
    "monitors": _keys("monitors", diag.MonitorConfig),
    "sweep": _keys("sweep", SweepConfig),
    "converge": _keys("converge", ConvergeConfig),
}


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


def _values(parser, section: str, obj) -> dict:
    """The fields of the dataclass ``obj`` that ``[section]`` sets, each read
    by its key's converter; a key whose field has no default is required."""
    return {f.name: _get(parser, section, f.name, conv, required=True)
            for f in fields(obj) if (conv := _converter(f))
            and (f.default is MISSING or parser.has_option(section, f.name))}


def _gen_params(parser, generator: str) -> dict:
    """The ``[initial]`` parameters, each converted by its annotation in the
    generator's signature; a parameter the generator does not take is read
    as a float, for Scenario to reject."""
    if not parser.has_section("initial"):
        return {}
    gen = sc.INITIAL_GENERATORS.get(generator)
    takes = inspect.signature(gen).parameters if gen else {}
    return {key: _get(parser, "initial", key,
                      _CONVERTERS[takes[key].annotation] if key in takes else _float)
            for key in parser.options("initial") if key != "generator"}


def _run_config(parser) -> RunConfig:
    """The file's base scenario with each key of the file in the field it
    names.  The base is the battery entry named by ``scenario``, or for
    ``custom`` the defaults with the file's (required) generator.  The
    ``[initial]`` parameters go over the base's own, or replace them when
    ``generator`` names another generator."""
    name = _get(parser, "run", _BASE_KEY, str, "custom")
    generator = _get(parser, "initial", "generator", str, required=name == "custom")
    base = (sc.battery_scenario(name) if name != "custom" else
            sc.Scenario(name=name, laws=mat.MaterialLaws(), a=1.0, length=1.0, n=129,
                        generator=generator))
    gen_params = _gen_params(parser, generator or base.generator)
    if generator in (None, base.generator):
        gen_params = {**base.gen_params, **gen_params}

    types = {f.name: f.type for f in fields(base)}
    scenario = replace(
        base, generator=generator or base.generator, gen_params=gen_params,
        **{part: replace(getattr(base, part), **_values(parser, section, getattr(base, part)))
           for section, part in _PARTS.items()},
        **{field: _get(parser, section, key, _CONVERTERS[types[field]], getattr(base, field))
           for section, key, field in _SCENARIO_KEYS})
    return RunConfig(scenario, **_values(parser, "run", RunConfig))


def parse_config(source) -> RunConfig:
    """Parse a run config from a path or a file-like object."""
    return _run_config(_load(source))


def _parse_study(source, section: str, cls):
    """The ``cls`` of a config file: its run config as the base, and the keys
    of its (required) ``[section]``."""
    parser = _load(source)
    base = _run_config(parser)
    if not parser.has_section(section):
        raise ConfigError(f"a {section} config needs a [{section}] section")
    return cls(base, **_values(parser, section, cls))


def parse_sweep_config(source) -> SweepConfig:
    return _parse_study(source, "sweep", SweepConfig)


def parse_converge_config(source) -> ConvergeConfig:
    return _parse_study(source, "converge", ConvergeConfig)


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
    sections = {section: {} for section in _SECTIONS}
    sections["run"][_BASE_KEY] = "custom"
    sections["initial"] = {"generator": scen.generator, **scen.gen_params}
    for section, key, field in _SCENARIO_KEYS:
        sections[section][key] = getattr(scen, field)
    objects = {"run": config, **{section: getattr(scen, part) for section, part in _PARTS.items()}}
    for section, obj in objects.items():
        sections[section].update((key, getattr(obj, key)) for key in _field_keys(obj))
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict({section: {key: v if isinstance(v, str) else repr(v)
                                for key, v in values.items() if v is not None}
                      for section, values in sections.items() if values})
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()
