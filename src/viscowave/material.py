"""Material laws, structural hypotheses, and initial-data bounds.

The viscosity gamma and thermal coupling f are described by small parametric
families.  Every admissible pair is expected to satisfy the box bound
``gamma0 <= gamma(xi) <= gamma0 + delta``, the pinning ``f(0) = 0``, and the
growth bound ``|f(xi)| <= K_f (xi+1)^alpha`` with ``0 < alpha < 3/2``;
:func:`validate_hypotheses` checks all of them by sampling and reports rather
than raises, so a run configuration can surface exactly which hypothesis a
candidate law violates.
"""

from __future__ import annotations

import functools
import types
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError
from . import grid as g

GAMMA_FAMILIES = ("constant", "saturating", "tabulated")
F_FAMILIES = ("zero", "linear", "power", "tabulated")

ALPHA_MAX = 1.5


@dataclass(frozen=True)
class MaterialLaws:
    """Parametric viscosity/coupling pair plus its hypothesis parameters.

    Parameters
    ----------
    gamma_family : {"constant", "saturating", "tabulated"}
        ``constant``: gamma = gamma0.
        ``saturating``: gamma = gamma0 + delta * xi / (1 + xi), which stays in
        [gamma0, gamma0 + delta) by construction.
        ``tabulated``: piecewise-linear interpolation of ``gamma_table``,
        clamped beyond the last knot.
    f_family : {"zero", "linear", "power", "tabulated"}
        ``zero``: f = 0.  ``linear``: f = K_f * xi.  ``power``:
        f = K_f * ((xi+1)^alpha - 1).  ``tabulated``: interpolation of
        ``f_table`` clamped beyond the last knot.
    gamma0, delta, K_f, alpha
        Hypothesis parameters: gamma0 > 0, delta >= 0, K_f > 0,
        0 < alpha < 3/2.
    """

    gamma_family: str = "constant"
    f_family: str = "zero"
    gamma0: float = 1.0
    delta: float = 0.0
    K_f: float = 1.0
    alpha: float = 1.0
    gamma_table: np.ndarray | None = field(default=None, compare=False)
    f_table: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.gamma_family not in GAMMA_FAMILIES:
            raise ConfigError(f"unknown gamma_family {self.gamma_family!r}")
        if self.f_family not in F_FAMILIES:
            raise ConfigError(f"unknown f_family {self.f_family!r}")
        if self.gamma0 <= 0:
            raise ConfigError("gamma0 must be positive")
        if self.delta < 0:
            raise ConfigError("delta must be nonnegative")
        if self.K_f <= 0:
            raise ConfigError("K_f must be positive")
        for name in ("gamma_table", "f_table"):
            tab = getattr(self, name)
            if tab is not None:
                tab = np.asarray(tab, dtype=float)
                if tab.ndim != 2 or tab.shape[1] != 2 or tab.shape[0] < 2:
                    raise ConfigError(f"{name} must have shape (m, 2) with m >= 2")
                if np.any(np.diff(tab[:, 0]) <= 0):
                    raise ConfigError(f"{name} abscissae must be strictly increasing")
                object.__setattr__(self, name, tab)
        if self.gamma_family == "tabulated" and self.gamma_table is None:
            raise ConfigError("gamma_family 'tabulated' requires gamma_table")
        if self.f_family == "tabulated" and self.f_table is None:
            raise ConfigError("f_family 'tabulated' requires f_table")


def _check_xi(xi):
    xi = np.asarray(xi, dtype=float)
    if (xi < 0).any():
        raise DomainError("material laws are defined for xi >= 0 only")
    return xi


def power(base: np.ndarray, p, out: np.ndarray | None = None) -> np.ndarray:
    """``base ** p``, written into ``out`` if given (``out`` may be ``base``).

    A ``(B, 1)`` column ``p`` raises each row to its own scalar, as in a solo
    run: the rows that share an exponent are raised in one ``**`` by that
    float (an array exponent may take another numpy path, no fast ``square``
    for 2, say, and round differently)."""
    if out is None:
        if not isinstance(p, np.ndarray):
            return base ** p
        out = base.copy()
    elif out is not base:
        np.copyto(out, base)
    if not isinstance(p, np.ndarray):
        out **= p
        return out
    exps = p[:, 0]
    for e in dict.fromkeys(exps.tolist()):
        rows = exps == e if e == e else np.isnan(exps)  # a NaN equals no exponent
        if rows.all():
            out **= e
        else:
            out[rows] **= e
    return out


def eval_gamma(laws: MaterialLaws, xi):
    """Viscosity gamma(xi); accepts scalars or arrays, xi >= 0."""
    out = _gamma(laws, _check_xi(xi))
    return out if out.ndim else float(out)


def _gamma(laws, xi):
    """gamma(xi) by the formula of ``laws.gamma_family``; ``gamma0`` and
    ``delta`` may be ``(B, 1)`` columns over the rows of ``xi``."""
    if laws.gamma_family == "constant":
        return np.full_like(xi, laws.gamma0)
    if laws.gamma_family == "saturating":
        return laws.gamma0 + laws.delta * xi / (1.0 + xi)
    tab = laws.gamma_table
    return np.interp(xi, tab[:, 0], tab[:, 1])


def eval_gamma_prime(laws: MaterialLaws, xi):
    """Derivative gamma'(xi) of the viscosity law."""
    xi = _check_xi(xi)
    if laws.gamma_family == "constant":
        out = np.zeros_like(xi)
    elif laws.gamma_family == "saturating":
        out = laws.delta / (1.0 + xi) ** 2
    else:
        out = _table_slope(laws.gamma_table, xi)
    return out if out.ndim else float(out)


def eval_f(laws: MaterialLaws, xi):
    """Thermal coupling f(xi) with f(0) = 0; accepts scalars or arrays."""
    out = _f(laws, _check_xi(xi))
    return out if out.ndim else float(out)


def _f(laws, xi):
    """f(xi) by the formula of ``laws.f_family``; ``K_f`` and ``alpha`` may
    be ``(B, 1)`` columns over the rows of ``xi`` (see :func:`power`)."""
    if laws.f_family == "zero":
        return np.zeros_like(xi)
    if laws.f_family == "linear":
        return laws.K_f * xi
    if laws.f_family == "power":
        return laws.K_f * (power(xi + 1.0, laws.alpha) - 1.0)
    tab = laws.f_table
    return np.interp(xi, tab[:, 0], tab[:, 1])


def eval_f_prime(laws: MaterialLaws, xi):
    """Derivative f'(xi) of the coupling law."""
    xi = _check_xi(xi)
    if laws.f_family == "zero":
        out = np.zeros_like(xi)
    elif laws.f_family == "linear":
        out = np.full_like(xi, laws.K_f)
    elif laws.f_family == "power":
        out = laws.K_f * laws.alpha * (xi + 1.0) ** (laws.alpha - 1.0)
    else:
        out = _table_slope(laws.f_table, xi)
    return out if out.ndim else float(out)


class LawRows(tuple):
    """The laws of an ensemble, one per row of its ``(B, n)`` fields.

    It reads like one law whose parameters are ``(B, 1)`` columns: ``gamma0``
    and ``alpha`` meet each row with its own member's value as plain operands,
    and :meth:`evaluate` applies each family's formula once to the rows of
    that family.
    """

    @functools.cached_property
    def gamma0(self) -> np.ndarray:
        return np.array([[law.gamma0] for law in self])

    @functools.cached_property
    def alpha(self) -> np.ndarray:
        return np.array([[law.alpha] for law in self])

    @functools.cached_property
    def _groups(self) -> tuple[list, list]:
        """For gamma and for f, ``(rows, law)`` pairs that cover each row
        once: the rows of a family with one law of that family whose
        parameters are their columns, and each tabulated row (its table is
        its own) with its own law."""
        out = ([], [])
        for kind, groups in zip(("gamma_family", "f_family"), out):
            families = {}
            for i, law in enumerate(self):
                families.setdefault(getattr(law, kind), []).append(i)
            for family, rows in families.items():
                if family == "tabulated":
                    groups.extend((i, self[i]) for i in rows)
                    continue
                laws = [self[i] for i in rows]
                columns = {p: np.array([[getattr(law, p)] for law in laws])
                           for p in ("gamma0", "delta", "K_f", "alpha")}
                groups.append((slice(None) if len(rows) == len(self) else np.array(rows),
                               types.SimpleNamespace(**{kind: family}, **columns)))
        return out

    def evaluate(self, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(gamma, f) at ``xi``, each row by its own law: the bits of that
        member's own evaluation."""
        xi = _check_xi(xi)
        return tuple(_by_rows(formula, groups, xi)
                     for formula, groups in zip((_gamma, _f), self._groups))


def _by_rows(formula, groups, xi):
    """``formula`` over the rows of ``xi``, each group's rows by its law."""
    rows, law = groups[0]
    if isinstance(rows, slice):  # one family over every row
        return formula(law, xi)
    out = np.empty_like(xi)
    for rows, law in groups:
        out[rows] = formula(law, xi[rows])
    return out


def _table_slope(tab, xi):
    """Piecewise slope of a clamped linear interpolant (0 beyond the knots)."""
    xs, ys = tab[:, 0], tab[:, 1]
    slopes = np.diff(ys) / np.diff(xs)
    idx = np.clip(np.searchsorted(xs, xi, side="right") - 1, 0, len(slopes) - 1)
    out = np.where((xi <= xs[0]) | (xi >= xs[-1]), 0.0, slopes[idx])
    return out


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


def validate_hypotheses(laws: MaterialLaws, xi_max: float = 50.0, n_samples: int = 400) -> ValidationReport:
    """Sample-check the structural hypotheses on gamma and f over [0, xi_max].

    Failures are reported, never raised.  Tabulated families are checked at
    their knots in addition to the uniform samples.
    """
    if xi_max <= 0:
        raise DomainError("xi_max must be positive")
    if n_samples < 2:
        raise DomainError("n_samples must be at least 2")

    xi = np.linspace(0.0, xi_max, n_samples)
    for tab in (laws.gamma_table, laws.f_table):
        if tab is not None:
            xi = np.union1d(xi, tab[:, 0][tab[:, 0] >= 0])

    checks = []

    if 0.0 < laws.alpha < ALPHA_MAX:
        checks.append(CheckResult("alpha_range", True))
    else:
        checks.append(CheckResult("alpha_range", False, f"alpha outside (0, 3/2): alpha={laws.alpha}"))

    gam = np.asarray(eval_gamma(laws, xi))
    tol = 1e-12 * (laws.gamma0 + laws.delta)
    bad = (gam < laws.gamma0 - tol) | (gam > laws.gamma0 + laws.delta + tol)
    if np.any(bad):
        j = int(np.argmax(bad))
        checks.append(CheckResult(
            "gamma_box_bound", False,
            f"gamma({xi[j]:g}) = {gam[j]:g} outside [{laws.gamma0:g}, {laws.gamma0 + laws.delta:g}]"))
    else:
        checks.append(CheckResult("gamma_box_bound", True))

    f0 = float(eval_f(laws, 0.0))
    checks.append(CheckResult("f_vanishes_at_zero", f0 == 0.0, "" if f0 == 0.0 else f"f(0) = {f0:g}"))

    fv = np.abs(np.asarray(eval_f(laws, xi)))
    envelope = laws.K_f * (xi + 1.0) ** laws.alpha
    bad = fv > envelope * (1.0 + 1e-12)
    if np.any(bad):
        j = int(np.argmax(bad))
        checks.append(CheckResult(
            "f_growth_bound", False,
            f"|f({xi[j]:g})| = {fv[j]:g} exceeds K_f (xi+1)^alpha = {envelope[j]:g}"))
    else:
        checks.append(CheckResult("f_growth_bound", True))

    return ValidationReport(tuple(checks))


def require_hypotheses(laws: MaterialLaws) -> None:
    """Raise ConfigError naming every hypothesis ``laws`` fails."""
    report = validate_hypotheses(laws)
    if not report.ok:
        msgs = "; ".join(f"{c.name}: {c.detail}" for c in report.failures())
        raise ConfigError(f"material laws fail hypothesis validation: {msgs}")


@dataclass(frozen=True)
class InitialData:
    """Initial fields on a grid: displacement, velocity, temperature."""

    u0: np.ndarray
    v0: np.ndarray
    theta0: np.ndarray

    def __post_init__(self):
        for name in ("u0", "v0", "theta0"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not (self.u0.shape == self.v0.shape == self.theta0.shape):
            raise ConfigError("initial fields must share one shape")
        for name in ("u0", "v0"):
            w = getattr(self, name)
            if w[0] != 0.0 or w[-1] != 0.0:
                raise ConfigError(f"{name} must vanish at both boundary nodes")
        if np.any(self.theta0 < 0.0):
            raise ConfigError("theta0 must be nonnegative")


@dataclass(frozen=True)
class DataBoundM:
    """Aggregate initial-data bound: the sum of seven discrete norms."""

    M: float
    parts: dict

    def __post_init__(self):
        total = sum(self.parts.values())
        if not np.isclose(self.M, total, rtol=1e-12, atol=1e-300):
            raise ConfigError("M must equal the sum of its seven summands")


def data_bound_M(data: InitialData, grid_: g.Grid1D) -> DataBoundM:
    """Discrete evaluation of the seven-norm aggregate bound on the data.

    Sup norms are nodewise maxima, L^2/L^4 norms use trapezoid quadrature,
    derivatives use the grid operators.
    """
    if data.u0.shape != (grid_.n,):
        raise ConfigError("initial data not sized to grid")
    u0x = g.d1(data.u0, grid_)
    u0xx = g.d2(data.u0, grid_, g.BcKind.DIRICHLET_BOTH)
    v0x = g.d1(data.v0, grid_)
    th0x = g.d1(data.theta0, grid_)
    parts = {
        "sup_u0": float(np.max(np.abs(data.u0))),
        "sup_u0x": float(np.max(np.abs(u0x))),
        "l2_u0xx": float(np.sqrt(g.integrate(u0xx ** 2, grid_))),
        "sup_v0": float(np.max(np.abs(data.v0))),
        "l4_v0x": float(g.integrate(v0x ** 4, grid_) ** 0.25),
        "sup_theta0": float(np.max(np.abs(data.theta0))),
        "l2_theta0x": float(np.sqrt(g.integrate(th0x ** 2, grid_))),
    }
    return DataBoundM(M=sum(parts.values()), parts=parts)


@dataclass(frozen=True)
class Lambda1:
    """Conserved-budget bounds derived from the data bound M.

    ``B`` bounds the initial energy; the three trajectory functionals then
    satisfy  int v^2 <= 2B,  int u_x^2 <= 2B/a,  int Theta <= B.
    """

    B: float
    bound_v2: float
    bound_ux2: float
    bound_theta: float


def lambda1_bound(M, a: float, length: float) -> Lambda1:
    """Energy-budget bound B = M^2 L / 2 + a M^2 L / 2 + M L and its triple."""
    if a <= 0:
        raise DomainError("a must be positive")
    if length <= 0:
        raise DomainError("length must be positive")
    m = M.M if isinstance(M, DataBoundM) else float(M)
    if m < 0:
        raise DomainError("M must be nonnegative")
    B = 0.5 * m * m * length + 0.5 * a * m * m * length + m * length
    return Lambda1(B=B, bound_v2=2.0 * B, bound_ux2=2.0 * B / a, bound_theta=B)
