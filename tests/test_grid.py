import numpy as np
import pytest

from viscowave import grid as g
from viscowave.errors import ConfigError, DomainError


@pytest.fixture
def grid101():
    return g.Grid1D(1.0, 101)


def test_grid_basic(grid101):
    assert grid101.dx == pytest.approx(0.01)
    assert grid101.nodes[0] == 0.0
    assert grid101.nodes[-1] == 1.0
    assert np.all(np.diff(grid101.nodes) > 0)


def test_grid_invalid():
    with pytest.raises(ConfigError):
        g.Grid1D(-1.0, 11)
    with pytest.raises(ConfigError):
        g.Grid1D(1.0, 2)
    with pytest.raises(ConfigError):  # the Dirichlet d2 closure reads 4 nodes
        g.Grid1D(1.0, 3)


def test_d1_constant_and_linear(grid101):
    assert np.all(g.d1(np.ones(101), grid101) == 0.0)
    ones = g.d1(grid101.nodes, grid101)
    assert ones == pytest.approx(np.ones(101), abs=1e-13)


def test_d1_exact_on_quadratics(grid101):
    x = grid101.nodes
    out = g.d1(x ** 2, grid101)
    assert out == pytest.approx(2.0 * x, abs=1e-12)


def test_d1_size_mismatch(grid101):
    with pytest.raises(ConfigError):
        g.d1(np.ones(50), grid101)


def test_d2_constant_neumann(grid101):
    assert g.d2(np.ones(101), grid101, g.BcKind.NEUMANN_BOTH) == pytest.approx(np.zeros(101), abs=1e-12)


def test_d2_dirichlet_exact_on_quadratic(grid101):
    x = grid101.nodes
    w = x * (1.0 - x)
    out = g.d2(w, grid101, g.BcKind.DIRICHLET_BOTH)
    assert out == pytest.approx(-2.0 * np.ones(101), abs=1e-9)


def test_d2_mixed_eigenfunction(grid101):
    # phi = sin(pi x / 2L) satisfies phi(0) = 0, phi'(L) = 0
    L = grid101.length
    lam = (np.pi / (2.0 * L)) ** 2
    w = np.sin(np.sqrt(lam) * grid101.nodes)
    out = g.d2(w, grid101, g.BcKind.MIXED_LEFT_DIRICHLET_RIGHT_NEUMANN)
    assert out == pytest.approx(-lam * w, abs=2e-3)


def test_div_flux_constant_coefficient_matches_d2(grid101):
    rng = np.random.default_rng(3)
    w = rng.standard_normal(101)
    c = 2.5 * np.ones(101)
    out = g.div_flux(c, w, grid101)
    ref = 2.5 * g.d2(w, grid101, g.BcKind.DIRICHLET_BOTH)
    assert out[1:-1] == pytest.approx(ref[1:-1], rel=1e-12)


def test_div_flux_quadratic(grid101):
    x = grid101.nodes
    out = g.div_flux(np.ones(101), x * (1.0 - x), grid101)
    assert out[1:-1] == pytest.approx(-2.0 * np.ones(99), abs=1e-10)


def test_div_flux_linear_field_smooth_coefficient(grid101):
    # (c w_x)_x = c_x w_x for linear w
    x = grid101.nodes
    c = 1.0 + 0.5 * np.sin(x)
    w = 3.0 * x
    out = g.div_flux(c, w, grid101)
    assert out[1:-1] == pytest.approx(3.0 * 0.5 * np.cos(x[1:-1]), abs=1e-4)


def test_div_flux_rejects_nonpositive_coefficient(grid101):
    c = np.ones(101)
    c[7] = 0.0
    with pytest.raises(DomainError):
        g.div_flux(c, grid101.nodes, grid101)


def test_integrate(grid101):
    assert g.integrate(np.ones(101), grid101) == pytest.approx(1.0, rel=1e-14)
    assert g.integrate(grid101.nodes, grid101) == pytest.approx(0.5, rel=1e-14)
    # trapezoid error bound (dx^2/12) max|f''| L = 100/12 * 1e-4 / ... ~ 1.7e-5
    assert g.integrate(grid101.nodes ** 2, grid101) == pytest.approx(1.0 / 3.0, abs=2e-5)


def test_cumulative_integral(grid101):
    out = g.cumulative_integral(np.ones(101), grid101)
    assert out[0] == 0.0
    assert out == pytest.approx(grid101.nodes, abs=1e-14)


def test_mid_to_node_mass_exact(grid101):
    rng = np.random.default_rng(11)
    psi = rng.standard_normal(100)
    node = g.mid_to_node(psi, grid101)
    assert g.integrate(node, grid101) == pytest.approx(float(np.sum(psi)) * grid101.dx, rel=1e-13)


def test_summation_by_parts_flux_form(grid101):
    # <w, div_flux(c, z)> == -sum(c_mid * Dw * Dz) dx exactly for w pinned at ends
    rng = np.random.default_rng(5)
    w = rng.standard_normal(101)
    w[0] = w[-1] = 0.0
    z = rng.standard_normal(101)
    c = 1.0 + rng.random(101)
    lhs = g.integrate(w * g.div_flux(c, z, grid101), grid101)
    c_mid = 0.5 * (c[1:] + c[:-1])
    rhs = -float(np.sum(c_mid * g.gradient_mid(w, grid101) * g.gradient_mid(z, grid101))) * grid101.dx
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_neumann_d2_annihilates_mass_exactly(grid101):
    rng = np.random.default_rng(7)
    theta = rng.standard_normal(101)
    total = g.integrate(g.d2(theta, grid101, g.BcKind.NEUMANN_BOTH), grid101)
    assert abs(total) < 1e-10


def test_neumann_d2_summation_by_parts(grid101):
    rng = np.random.default_rng(9)
    phi = rng.standard_normal(101)
    theta = rng.standard_normal(101)
    lhs = g.integrate(phi * g.d2(theta, grid101, g.BcKind.NEUMANN_BOTH), grid101)
    rhs = -float(np.sum(g.gradient_mid(phi, grid101) * g.gradient_mid(theta, grid101))) * grid101.dx
    assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-12)


def _observed_order(errors):
    return np.log2(errors[0] / errors[1])


@pytest.mark.parametrize("op_name", ["d1", "d2", "div_flux", "integrate"])
def test_convergence_order(op_name):
    # smooth manufactured function; refinement 65 -> 129 should show order >= 1.9
    errs = []
    for n in (65, 129):
        grid_ = g.Grid1D(1.0, n)
        x = grid_.nodes
        w = np.sin(2.3 * x) * np.exp(0.5 * x)
        wx = (2.3 * np.cos(2.3 * x) + 0.5 * np.sin(2.3 * x)) * np.exp(0.5 * x)
        wxx = (0.25 * np.sin(2.3 * x) + 2.3 * np.cos(2.3 * x)
               - 2.3 ** 2 * np.sin(2.3 * x)) * np.exp(0.5 * x)
        if op_name == "d1":
            err = np.max(np.abs(g.d1(w, grid_) - wx))
        elif op_name == "d2":
            err = np.max(np.abs(g.d2(w, grid_, g.BcKind.DIRICHLET_BOTH) - wxx)[1:-1])
        elif op_name == "div_flux":
            c = 1.0 + 0.3 * np.cos(x)
            cx = -0.3 * np.sin(x)
            exact = cx * wx + c * wxx
            err = np.max(np.abs(g.div_flux(c, w, grid_) - exact)[1:-1])
        else:
            exact = 0.9821819411388626  # int_0^1 sin(2.3x) e^{x/2} dx, adaptive-quadrature oracle
            err = abs(g.integrate(w, grid_) - exact)
        errs.append(err)
    assert _observed_order(errs) >= 1.9


@pytest.mark.parametrize("n", [4, 33, 129])
def test_operators_act_row_wise_on_batches(n):
    # each row of a (B, n) field gets the bits of the 1D field
    grid_ = g.Grid1D(2.0, n)
    rng = np.random.default_rng(n)
    w = rng.standard_normal((5, n))
    c = rng.uniform(0.5, 2.0, (5, n))
    ops = {
        "d1": lambda f: g.d1(f, grid_),
        "d1_lowend": lambda f: g.d1_lowend(f, grid_),
        "gradient_mid": lambda f: g.gradient_mid(f, grid_),
        "mid_to_node": lambda f: g.mid_to_node(f[..., 1:], grid_),
        "cumulative_integral": lambda f: g.cumulative_integral(f, grid_),
        "integrate": lambda f: g.integrate(f, grid_),
        **{f"d2_{bc.name}": (lambda f, bc=bc: g.d2(f, grid_, bc)) for bc in g.BcKind},
    }
    for name, op in ops.items():
        batch = op(w)
        assert np.asarray(batch).shape[0] == 5, name
        for row, wi in zip(batch, w):
            assert np.asarray(row).tobytes() == np.asarray(op(wi)).tobytes(), name
    assert isinstance(g.integrate(w[0], grid_), float)
    batch = g.div_flux(c, w, grid_)
    for row, ci, wi in zip(batch, c, w):
        assert row.tobytes() == g.div_flux(ci, wi, grid_).tobytes()
    with pytest.raises(ConfigError):
        g.d1(np.zeros((2, 3, n)), grid_)


@pytest.mark.parametrize("n", [4, 33, 129])
def test_operators_write_the_same_bits_into_given_arrays(n):
    grid_ = g.Grid1D(2.0, n)
    w = np.random.default_rng(n).standard_normal((5, n))
    ops = {
        "d1": lambda f, out: g.d1(f, grid_, out=out),
        "cumulative_integral": lambda f, out: g.cumulative_integral(f, grid_, out=out),
        **{f"d2_{bc.name}": (lambda f, out, bc=bc: g.d2(f, grid_, bc, out=out))
           for bc in g.BcKind},
    }
    for name, op in ops.items():
        for f in (w, w[0]):
            out = np.full_like(f, np.nan)
            assert op(f, out) is out, name
            assert out.tobytes() == op(f, None).tobytes(), name
    for f in (w, w[0]):
        mids = np.full_like(f[..., 1:], np.nan)
        assert g.gradient_mid(f, grid_, out=mids) is mids
        assert mids.tobytes() == g.gradient_mid(f, grid_).tobytes()
        total = g.integrate(f, grid_, work=np.full_like(f[..., 1:], np.nan))
        assert np.asarray(total).tobytes() == np.asarray(g.integrate(f, grid_)).tobytes()


def test_stencils_refuse_an_out_array_that_is_not_c_contiguous():
    # d1 and d2 write their interior through out.reshape(-1), which would
    # copy a strided array and leave it unwritten
    grid_ = g.Grid1D(1.0, 33)
    w = np.random.default_rng(3).standard_normal((4, 33))
    for strided in (np.empty((33, 4)).T, np.empty((4, 66))[:, ::2]):
        with pytest.raises(ValueError, match="C-contiguous"):
            g.d1(w, grid_, out=strided)
        for bc in g.BcKind:
            with pytest.raises(ValueError, match="C-contiguous"):
                g.d2(w, grid_, bc, out=strided)
    # a strided input is read as its values: the bits of its C-ordered copy
    for f in (np.asfortranarray(w), np.repeat(w, 2, axis=1)[:, ::2]):
        assert g.d1(f, grid_).tobytes() == g.d1(w, grid_).tobytes()
        for bc in g.BcKind:
            assert g.d2(f, grid_, bc).tobytes() == g.d2(w, grid_, bc).tobytes()
