import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from viscowave import grid as g
from viscowave import material as mat
from viscowave.errors import ConfigError, DomainError


def saturating(gamma0=1.0, delta=0.1, **kw):
    return mat.MaterialLaws(gamma_family="saturating", gamma0=gamma0, delta=delta, **kw)


# --------------------------------------------------------------------------
# law evaluation
# --------------------------------------------------------------------------


def test_eval_gamma_constant():
    laws = mat.MaterialLaws(gamma_family="constant", gamma0=1.0)
    assert mat.eval_gamma(laws, 7.3) == 1.0


def test_eval_gamma_saturating():
    laws = saturating()
    assert mat.eval_gamma(laws, 1.0) == pytest.approx(1.05, rel=1e-15)
    assert mat.eval_gamma(laws, 0.0) == 1.0


def test_eval_gamma_rejects_negative():
    with pytest.raises(DomainError):
        mat.eval_gamma(saturating(), -0.5)


def test_eval_f_families():
    linear = mat.MaterialLaws(f_family="linear", K_f=1.0)
    assert mat.eval_f(linear, 3.0) == 3.0
    zero = mat.MaterialLaws(f_family="zero")
    assert mat.eval_f(zero, 5.0) == 0.0
    power = mat.MaterialLaws(f_family="power", K_f=1.0, alpha=1.2)
    assert mat.eval_f(power, 0.0) == 0.0


def test_eval_f_rejects_negative():
    with pytest.raises(DomainError):
        mat.eval_f(mat.MaterialLaws(f_family="linear"), -1.0)


def test_tabulated_laws_interpolate_and_clamp():
    tab = np.array([[0.0, 1.0], [1.0, 1.08], [2.0, 1.1]])
    laws = mat.MaterialLaws(gamma_family="tabulated", gamma0=1.0, delta=0.1, gamma_table=tab)
    assert mat.eval_gamma(laws, 0.5) == pytest.approx(1.04)
    assert mat.eval_gamma(laws, 10.0) == pytest.approx(1.1)  # clamped beyond last knot


def test_tabulated_requires_table():
    with pytest.raises(ConfigError):
        mat.MaterialLaws(gamma_family="tabulated")
    with pytest.raises(ConfigError):
        mat.MaterialLaws(f_family="tabulated", f_table=np.array([[0.0, 0.0], [0.0, 1.0]]))


def test_derivatives_match_finite_differences():
    laws = saturating(f_family="power", K_f=0.7, alpha=1.3)
    xi = np.linspace(0.1, 5.0, 23)
    h = 1e-6
    fd_gamma = (mat.eval_gamma(laws, xi + h) - mat.eval_gamma(laws, xi - h)) / (2 * h)
    assert mat.eval_gamma_prime(laws, xi) == pytest.approx(fd_gamma, rel=1e-6)
    fd_f = (mat.eval_f(laws, xi + h) - mat.eval_f(laws, xi - h)) / (2 * h)
    assert mat.eval_f_prime(laws, xi) == pytest.approx(fd_f, rel=1e-6)


# --------------------------------------------------------------------------
# hypothesis validation
# --------------------------------------------------------------------------


def test_validate_passes_for_admissible_pair():
    laws = saturating(f_family="linear", K_f=1.0, alpha=1.0)
    assert mat.validate_hypotheses(laws).ok


def test_validate_flags_alpha_out_of_range():
    laws = saturating(f_family="power", K_f=1.0, alpha=1.6)
    report = mat.validate_hypotheses(laws)
    assert not report.ok
    fails = report.failures()
    assert any("alpha outside (0, 3/2)" in c.detail for c in fails)


def test_validate_names_offending_table_sample():
    tab = np.array([[0.0, 1.0], [1.0, 0.9], [2.0, 1.05]])  # dips below gamma0
    laws = mat.MaterialLaws(gamma_family="tabulated", gamma0=1.0, delta=0.1, gamma_table=tab)
    report = mat.validate_hypotheses(laws)
    assert not report.ok
    detail = next(c.detail for c in report.failures() if c.name == "gamma_box_bound")
    assert "gamma(" in detail and "outside" in detail  # names the offending sample


def test_validate_flags_linear_f_with_small_alpha():
    # K_f * xi outgrows K_f (xi+1)^alpha for alpha < 1
    laws = mat.MaterialLaws(f_family="linear", K_f=1.0, alpha=0.8)
    assert not mat.validate_hypotheses(laws, xi_max=100.0).ok


def test_validate_argument_checks():
    with pytest.raises(DomainError):
        mat.validate_hypotheses(saturating(), xi_max=-1.0)
    with pytest.raises(DomainError):
        mat.validate_hypotheses(saturating(), n_samples=1)


GAMMA_TABLE = np.array([[0.0, 1.0], [0.5, 1.05], [2.0, 1.2]])
F_TABLE = np.array([[0.0, 0.0], [1.0, 0.7], [3.0, 1.1]])


def every_family():
    """One law of each (gamma, f) family pair, parameters differing by row."""
    laws = []
    for i, gfam in enumerate(mat.GAMMA_FAMILIES):
        for j, ffam in enumerate(mat.F_FAMILIES):
            laws.append(mat.MaterialLaws(
                gamma_family=gfam, f_family=ffam, gamma0=1.0 + 0.25 * i, delta=0.1 * (j + 1),
                K_f=0.5 + 0.5 * j, alpha=(0.8, 1.0, 1.45, 2.0 / 3.0)[(i + j) % 4],
                gamma_table=GAMMA_TABLE * (1 + i) if gfam == "tabulated" else None,
                f_table=F_TABLE * (1 + j) if ffam == "tabulated" else None))
    return laws


def assert_rows_are_their_own_laws(laws, xi):
    gam, f = mat.LawRows(laws).evaluate(xi)
    for i, law in enumerate(laws):
        assert gam[i].tobytes().hex() == mat.eval_gamma(law, xi[i]).tobytes().hex(), (i, law)
        assert f[i].tobytes().hex() == mat.eval_f(law, xi[i]).tobytes().hex(), (i, law)


@pytest.mark.parametrize("case", ["mixed", "power 1.45", "power rows", "one family",
                                  "tabulated", "shuffled"])
def test_law_rows_evaluate_each_row_by_its_own_law(case):
    # hex for hex: a family's rows evaluated at once with (k, 1) parameter
    # columns, a power law's exponent and a table row by row
    laws = every_family()
    if case == "power 1.45":
        laws = [mat.MaterialLaws(gamma_family="saturating", f_family="power", delta=0.1 * i,
                                 K_f=0.5 + i, alpha=1.45) for i in range(4)]
    elif case == "power rows":
        laws = [mat.MaterialLaws(f_family="power", K_f=1.0 + i, alpha=a)
                for i, a in enumerate((0.5, 1.0, 1.45, 2.0 / 3.0))]
    elif case == "one family":
        laws = [saturating(gamma0=1.0 + i, delta=0.05 * i, f_family="linear", K_f=0.3 * (i + 1))
                for i in range(5)]
    elif case == "tabulated":
        laws = [law for law in laws if "tabulated" in (law.gamma_family, law.f_family)]
    elif case == "shuffled":
        laws = laws[5::2] + laws[::-3] + laws[1:6]
    xi = np.random.default_rng(7).exponential(2.0, size=(len(laws), 65))
    xi[:, 0] = 0.0
    xi[:, 1] = 0.5  # a knot
    xi[:, 2] = 10.0  # beyond the last knot
    assert_rows_are_their_own_laws(laws, xi)


def test_law_rows_apply_a_family_formula_once(monkeypatch):
    # one formula call per family, not one per member; tables alone go row
    # by row, power exponents once per distinct exponent
    calls = []
    for name in ("_gamma", "_f", "_check_xi"):
        real = getattr(mat, name)
        monkeypatch.setattr(mat, name,
                            lambda *a, real=real, name=name: calls.append(name) or real(*a))
    laws = [saturating(delta=0.02 * i, f_family="linear", K_f=1.0 + i) for i in range(8)]
    laws += [mat.MaterialLaws(f_family="zero", gamma0=2.0)] * 3
    mat.LawRows(laws).evaluate(np.ones((11, 9)))
    assert sorted(calls) == ["_check_xi", "_f", "_f", "_gamma", "_gamma"]
    with pytest.raises(DomainError):
        mat.LawRows(laws).evaluate(-np.ones((11, 9)))


@settings(max_examples=60, deadline=None)
@given(
    gamma0=st.floats(0.1, 10.0),
    delta=st.floats(0.0, 2.0),
    K_f=st.floats(0.1, 5.0),
    alpha=st.floats(0.05, 1.45),
    xi=st.floats(0.0, 1e3),
    gfam=st.sampled_from(["constant", "saturating"]),
    ffam=st.sampled_from(["zero", "power"]),
)
def test_law_bounds_property(gamma0, delta, K_f, alpha, xi, gfam, ffam):
    laws = mat.MaterialLaws(gamma_family=gfam, f_family=ffam,
                            gamma0=gamma0, delta=delta, K_f=K_f, alpha=alpha)
    gam = mat.eval_gamma(laws, xi)
    assert gamma0 - 1e-12 <= gam <= gamma0 + delta + 1e-12
    assert mat.eval_f(laws, 0.0) == 0.0
    assert abs(mat.eval_f(laws, xi)) <= K_f * (xi + 1.0) ** alpha * (1 + 1e-12)


# --------------------------------------------------------------------------
# initial data and the aggregate bound
# --------------------------------------------------------------------------


def _grid(n=101):
    return g.Grid1D(1.0, n)


def test_initial_data_invariants():
    grid_ = _grid()
    bad_u = np.ones(grid_.n)
    with pytest.raises(ConfigError):
        mat.InitialData(u0=bad_u, v0=np.zeros(grid_.n), theta0=np.zeros(grid_.n))
    with pytest.raises(ConfigError):
        mat.InitialData(u0=np.zeros(grid_.n), v0=np.zeros(grid_.n),
                        theta0=-np.ones(grid_.n))
    with pytest.raises(ConfigError):
        mat.InitialData(u0=np.zeros(5), v0=np.zeros(6), theta0=np.zeros(5))


def test_data_bound_zero():
    grid_ = _grid()
    z = np.zeros(grid_.n)
    data = mat.InitialData(u0=z, v0=z.copy(), theta0=z.copy())
    assert mat.data_bound_M(data, grid_).M == 0.0


def test_data_bound_constant_theta():
    grid_ = _grid()
    z = np.zeros(grid_.n)
    data = mat.InitialData(u0=z, v0=z.copy(), theta0=np.ones(grid_.n))
    bound = mat.data_bound_M(data, grid_)
    assert bound.M == pytest.approx(1.0, rel=1e-12)
    assert bound.parts["sup_theta0"] == 1.0


def test_data_bound_quadratic_displacement():
    # u0 = x(1-x): sup 1/4, sup slope 1, L2 of u0'' = 2; all exact on quadratics
    grid_ = _grid(101)
    x = grid_.nodes
    z = np.zeros(grid_.n)
    data = mat.InitialData(u0=x * (1 - x), v0=z, theta0=z.copy())
    bound = mat.data_bound_M(data, grid_)
    assert bound.M == pytest.approx(3.25, rel=1e-9)


def test_data_bound_monotone_under_scaling():
    grid_ = _grid(65)
    x = grid_.nodes
    data = mat.InitialData(u0=np.sin(np.pi * x) * 0 + x * (1 - x),
                           v0=np.zeros(grid_.n),
                           theta0=0.5 + 0.5 * np.cos(np.pi * x))
    m1 = mat.data_bound_M(data, grid_).M
    for lam in (1.0, 1.5, 3.0, 10.0):
        scaled = mat.InitialData(u0=lam * data.u0, v0=lam * data.v0, theta0=lam * data.theta0)
        assert mat.data_bound_M(scaled, grid_).M >= m1 - 1e-12
        m1 = mat.data_bound_M(scaled, grid_).M


# --------------------------------------------------------------------------
# conserved-budget bounds
# --------------------------------------------------------------------------


def test_lambda1_zero():
    lam = mat.lambda1_bound(0.0, a=1.0, length=1.0)
    assert lam.B == 0.0
    assert (lam.bound_v2, lam.bound_ux2, lam.bound_theta) == (0.0, 0.0, 0.0)


def test_lambda1_unit_case():
    lam = mat.lambda1_bound(1.0, a=1.0, length=1.0)
    assert lam.B == pytest.approx(2.0)
    assert (lam.bound_v2, lam.bound_ux2, lam.bound_theta) == pytest.approx((4.0, 4.0, 2.0))


def test_lambda1_derived_case():
    lam = mat.lambda1_bound(2.0, a=2.0, length=1.0)
    assert lam.B == pytest.approx(8.0)
    assert (lam.bound_v2, lam.bound_ux2, lam.bound_theta) == pytest.approx((16.0, 8.0, 8.0))


@settings(max_examples=60, deadline=None)
@given(M=st.floats(0.0, 10.0), a=st.floats(0.1, 10.0), L=st.floats(0.1, 10.0),
       dM=st.floats(0.0, 5.0), dL=st.floats(0.0, 5.0), da=st.floats(0.0, 5.0))
def test_lambda1_monotonicity(M, a, L, dM, dL, da):
    base = mat.lambda1_bound(M, a, L)
    assert mat.lambda1_bound(M + dM, a, L).B >= base.B
    assert mat.lambda1_bound(M, a, L + dL).B >= base.B
    assert mat.lambda1_bound(M, a + da, L).bound_ux2 <= base.bound_ux2 + 1e-12


def test_lambda1_accepts_data_bound():
    grid_ = _grid(33)
    z = np.zeros(grid_.n)
    data = mat.InitialData(u0=z, v0=z.copy(), theta0=np.ones(grid_.n))
    bound = mat.data_bound_M(data, grid_)
    lam = mat.lambda1_bound(bound, a=1.0, length=1.0)
    assert lam.B == pytest.approx(2.0, rel=1e-12)


def test_lambda1_argument_checks():
    with pytest.raises(DomainError):
        mat.lambda1_bound(1.0, a=0.0, length=1.0)
    with pytest.raises(DomainError):
        mat.lambda1_bound(1.0, a=1.0, length=-2.0)


def test_power_raises_the_rows_of_each_exponent_as_a_solo_run_would():
    # a column of exponents: bit for bit the row-by-row powers, with and
    # without an output array (which may be the base)
    base = np.random.default_rng(3).uniform(0.5, 3.0, (3, 17))
    p = np.array([[2.0], [5.8], [2.0]])
    ref = np.array([base[i] ** e for i, e in enumerate((2.0, 5.8, 2.0))])
    assert mat.power(base, p).tobytes() == ref.tobytes()
    out = np.empty_like(base)
    assert mat.power(base, p, out=out) is out and out.tobytes() == ref.tobytes()
    inplace = base.copy()
    assert mat.power(inplace, p, out=inplace).tobytes() == ref.tobytes()
    assert mat.power(base, 5.8).tobytes() == (base ** 5.8).tobytes()
    assert mat.power(base, np.full((3, 1), 5.8)).tobytes() == (base ** 5.8).tobytes()
