import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from viscowave import dynamics as dyn
from viscowave import grid as g
from viscowave import material as mat
from viscowave import scenarios as sc
from viscowave import tridiag
from viscowave.errors import StepError

COUPLED_LAWS = mat.MaterialLaws(gamma_family="saturating", f_family="linear",
                                gamma0=1.0, delta=0.1, K_f=1.0, alpha=1.0)
CONST_LAWS = mat.MaterialLaws(gamma_family="constant", f_family="zero", gamma0=1.0)


def banded(op):
    ab = np.zeros((3, op.diag.size))
    ab[0, 1:] = op.upper
    ab[1] = op.diag
    ab[2, :-1] = op.lower
    return ab


def reference_solve(op, rhs_, *, label):
    """The solve as it was: scipy.linalg.solve_banded on the assembled band,
    one system at a time for a batch."""
    if rhs_.ndim == 2:
        diags = (op.lower, op.diag, op.upper)
        return np.stack([reference_solve(tridiag.Tridiag(*(w if w.ndim == 1 else w[i]
                                                          for w in diags)), b, label=label)
                         for i, b in enumerate(rhs_)])
    return scipy.linalg.solve_banded((1, 1), banded(op), rhs_, check_finite=False)


def random_op(n, rng):
    return tridiag.Tridiag(rng.uniform(-1, 1, n - 1), rng.uniform(2.5, 3.5, n),
                           rng.uniform(-1, 1, n - 1))


def cfg_for(dt, scheme="imex_be", **kw):
    return dyn.SchemeConfig(dt_initial=dt, dt_max=dt, scheme=scheme, **kw)


# --------------------------------------------------------------------------
# the operator against solve_banded
# --------------------------------------------------------------------------


@pytest.mark.parametrize("n,dt,weight", [(3, 1e-3, 1.0), (33, 1e-3, 0.5), (129, 1e-3, 1.0),
                                         (129, 7.3e-4, 0.5), (2049, 1e-2, 1.0)])
def test_constant_operators_bitwise_equal_solve_banded(n, dt, weight):
    rng = np.random.default_rng(n)
    r = weight * dt * (n - 1) ** 2
    b = rng.standard_normal(n)
    for op in (tridiag.neumann(n, r), tridiag.dirichlet(n, r)):
        assert np.array_equal(op.solve(b), reference_solve(op, b, label=""))


def test_random_operator_bitwise_equal_solve_banded():
    rng = np.random.default_rng(1)
    for n in (3, 17, 129, 1025):
        op = random_op(n, rng)
        b = rng.standard_normal(n)
        before = [a.copy() for a in (op.lower, op.diag, op.upper, b)]
        assert np.array_equal(op.solve(b), reference_solve(op, b, label=""))
        assert all(np.array_equal(a, c) for a, c in zip((op.lower, op.diag, op.upper, b), before))


def test_variable_dirichlet_rows():
    s = np.array([0.5, 1.0, 2.0])
    op = tridiag.dirichlet(5, s)
    dense = np.diag(op.diag) + np.diag(op.lower, -1) + np.diag(op.upper, 1)
    assert dense.tolist() == [[1, 0, 0, 0, 0], [-0.5, 2, -0.5, 0, 0], [0, -1, 3, -1, 0],
                              [0, 0, -2, 5, -2], [0, 0, 0, 0, 1]]


def test_residual_is_matvec_minus_rhs():
    rng = np.random.default_rng(2)
    op = random_op(9, rng)
    x, b = rng.standard_normal(9), rng.standard_normal(9)
    dense = np.diag(op.diag) + np.diag(op.lower, -1) + np.diag(op.upper, 1)
    assert op.residual(x, b) == pytest.approx(dense @ x - b, abs=1e-14)


# --------------------------------------------------------------------------
# failure surface of the checked solve
# --------------------------------------------------------------------------


def test_singular_matrix_raises_step_error():
    n = 9
    op = tridiag.Tridiag(np.zeros(n - 1), np.zeros(n), np.zeros(n - 1))
    with pytest.raises(StepError, match="heat solve failed: singular matrix"):
        dyn._solve_banded(op, np.ones(n), label="heat")


def test_non_finite_rhs_raises_step_error():
    rng = np.random.default_rng(3)
    op = random_op(9, rng)
    rhs_ = rng.standard_normal(9)
    rhs_[4] = np.nan
    with pytest.raises(StepError, match="velocity solve produced non-finite values"):
        dyn._solve_banded(op, rhs_, label="velocity")


def test_residual_above_tolerance_raises_step_error(monkeypatch):
    rng = np.random.default_rng(4)
    op = random_op(65, rng)
    rhs_ = rng.standard_normal(65)
    x = dyn._solve_banded(op, rhs_, label="eta displacement")
    assert np.max(np.abs(op.residual(x, rhs_))) > 0.0
    monkeypatch.setattr(dyn, "SOLVER_TOL", 1e-300)
    with pytest.raises(StepError, match="eta displacement solve residual exceeds tolerance"):
        dyn._solve_banded(op, rhs_, label="eta displacement")


def test_stepper_solves_report_their_label(monkeypatch):
    grid_ = g.Grid1D(1.0, 33)
    data = sc.gen_coupled_smooth(grid_)
    state = dyn.State(0.0, data.u0, data.v0, data.theta0)
    nan_heat = dyn.Forcing(fv=lambda x, t: np.zeros_like(x),
                           ftheta=lambda x, t: np.full_like(x, np.nan))
    with pytest.raises(StepError, match="heat solve produced non-finite values"):
        dyn.step_with_count(state, COUPLED_LAWS, 1.0, grid_, cfg_for(1e-3), 1e-3, nan_heat)
    monkeypatch.setattr(dyn, "SOLVER_TOL", 1e-300)
    with pytest.raises(StepError, match="velocity solve residual"):
        dyn.step_with_count(state, COUPLED_LAWS, 1.0, grid_, cfg_for(1e-3), 1e-3)
    # at rest the velocity solve is exact (x = 0), so the heat solve is the one to fail
    rest = dyn.State(0.0, np.zeros(33), np.zeros(33), data.theta0)
    with pytest.raises(StepError, match="heat solve residual"):
        dyn.step_with_count(rest, CONST_LAWS, 1.0, grid_, cfg_for(1e-3), 1e-3)
    eta = dyn.EtaState(0.0, np.sin(np.pi * grid_.nodes), np.zeros(33), eta=0.1)
    with pytest.raises(StepError, match="eta velocity solve residual"):
        dyn.step_eta(eta, np.ones(33), np.zeros(33), 1.0, grid_, 1e-3)


# --------------------------------------------------------------------------
# the operator inside runs whose dt changes
# --------------------------------------------------------------------------


def both_ways(monkeypatch, run):
    """run() with the LAPACK operator, then with every matrix solved by
    solve_banded."""
    fast = run()
    with monkeypatch.context() as m:
        m.setattr(dyn, "_solve_banded", reference_solve)
        ref = run()
    return fast, ref


def test_clipped_final_step_matches_reference(monkeypatch):
    grid_ = g.Grid1D(1.0, 33)
    data = sc.gen_coupled_smooth(grid_)
    fast, ref = both_ways(monkeypatch, lambda: dyn.simulate(
        COUPLED_LAWS, 1.0, grid_, data, 0.0213, cfg_for(1e-3)))
    assert fast.steps_taken == 22 and fast.times[-1] - fast.times[-2] < 1e-3
    assert fast.rows == ref.rows


def test_halved_dt_retry_matches_reference(monkeypatch):
    n = 65
    grid_ = g.Grid1D(1.0, n)
    theta0 = np.zeros(n)
    theta0[n // 2] = 1.0
    data = mat.InitialData(u0=np.zeros(n), v0=np.zeros(n), theta0=theta0)
    dt = 10.0 * grid_.dx ** 2  # trapezoidal heat overshoots on a spike at this step
    cfg = cfg_for(dt, "imex_cn", positivity_policy="reject_step")
    fast, ref = both_ways(monkeypatch, lambda: dyn.simulate(
        CONST_LAWS, 1.0, grid_, data, 20 * dt, cfg))
    assert fast.status == "completed" and fast.steps_taken > 20  # some steps were halved
    assert fast.rows == ref.rows


def test_backward_euler_then_trapezoidal_at_same_dt_match_reference(monkeypatch):
    grid_ = g.Grid1D(1.0, 33)
    data = sc.gen_coupled_smooth(grid_)
    runs = lambda: [dyn.simulate(COUPLED_LAWS, 1.0, grid_, data, 0.02, cfg_for(1e-3, scheme))
                    for scheme in ("imex_be", "imex_cn")]
    fast, ref = both_ways(monkeypatch, runs)
    assert fast[0].rows != fast[1].rows
    assert [t.rows for t in fast] == [t.rows for t in ref]


def test_eta_steps_match_reference(monkeypatch):
    grid_ = g.Grid1D(1.0, 33)
    x = grid_.nodes
    A, gsrc = 1.0 + 0.3 * np.sin(np.pi * x), 0.5 * np.sin(np.pi * x)
    start = dyn.EtaState(0.0, np.sin(np.pi * x), 0.2 * np.sin(2 * np.pi * x), eta=0.01)

    def run():
        st = start
        for dt in (1e-3, 1e-3, 5e-4, 1e-3):
            st = dyn.step_eta(st, A, gsrc, 1.0, grid_, dt)
        return st

    fast, ref = both_ways(monkeypatch, run)
    assert np.array_equal(fast.v_eta, ref.v_eta) and np.array_equal(fast.u_eta, ref.u_eta)



# --------------------------------------------------------------------------
# a batch of systems in one stacked call
# --------------------------------------------------------------------------


def stack(ops):
    return tridiag.Tridiag(*(np.stack([getattr(op, k) for op in ops])
                             for k in ("lower", "diag", "upper")))


def test_stacked_solve_bitwise_equals_solo_solves():
    # the stepper's systems: Dirichlet rows with +0 at both ends of the
    # right-hand side (the velocity stage), and Neumann rows
    rng = np.random.default_rng(5)
    for draw in range(200):
        members, n = int(rng.integers(2, 9)), int(rng.integers(4, 200))
        b = rng.standard_normal((members, n))
        if draw % 2:
            ops = [tridiag.dirichlet(n, rng.uniform(0.0, 50.0, n - 2)) for _ in range(members)]
            b[:, 0] = b[:, -1] = 0.0
        else:
            ops = [tridiag.neumann(n, rng.uniform(0.0, 50.0)) for _ in range(members)]
        x = stack(ops).solve(b)
        assert x.shape == b.shape
        for op, xi, bi in zip(ops, x, b):
            assert xi.tobytes() == op.solve(bi).tobytes()  # sign bits included
    # one shared operator for every row: the rows are solved as columns, and
    # an identity end row keeps the sign of a -0.0 right-hand side
    for draw in range(200):
        members, n = int(rng.choice([1, 2, 3, 8])), int(rng.integers(4, 2050))
        b = rng.standard_normal((members, n))
        if draw % 2:
            op = tridiag.dirichlet(n, rng.uniform(0.0, 50.0, n - 2))
            b[:, 0] = rng.choice([0.0, -0.0], members)
            b[:, -1] = rng.choice([0.0, -0.0], members)
        else:
            op = tridiag.neumann(n, rng.uniform(0.0, 50.0))
        kept = [a.tobytes() for a in (op.lower, op.diag, op.upper, b)]
        x = op.solve(b)
        assert x.shape == b.shape
        assert [a.tobytes() for a in (op.lower, op.diag, op.upper, b)] == kept
        for xi, bi in zip(x, b):
            assert xi.tobytes() == op.solve(bi).tobytes()  # sign bits included


def test_stacked_residual_checked_at_each_members_scale(monkeypatch):
    # members 0 and 2 are exact (identity systems) and large; member 1 is a
    # random system of order-one data, whose residual fails a tolerance below
    # its own relative residual, though it would pass against member 0's scale
    rng = np.random.default_rng(7)
    n = 65
    eye = tridiag.Tridiag(np.zeros(n - 1), np.ones(n), np.zeros(n - 1))
    ops = [eye, random_op(n, rng), eye]
    rhs_ = rng.standard_normal((3, n)) * np.array([[1e6], [1.0], [1e3]])
    x = stack(ops).solve(rhs_)
    res = np.max(np.abs(ops[1].residual(x[1], rhs_[1])))
    rel = res / max(1.0, np.max(np.abs(rhs_[1])))
    assert res > 0.0
    monkeypatch.setattr(dyn, "SOLVER_TOL", rel)
    assert np.array_equal(dyn._solve_banded(stack(ops), rhs_, label="heat"), x)
    monkeypatch.setattr(dyn, "SOLVER_TOL", 0.5 * rel)
    with pytest.raises(StepError, match="heat solve residual exceeds tolerance"):
        dyn._solve_banded(stack(ops), rhs_, label="heat")
    assert res <= 0.5 * rel * np.max(np.abs(rhs_))  # a shared scale would let it pass


# --------------------------------------------------------------------------
# the compiled scipy extensions, each loaded without its package
# --------------------------------------------------------------------------

POCKETFFT = "scipy.fft._pocketfft.pypocketfft"


def run_python(code):
    src = os.path.dirname(os.path.dirname(os.path.abspath(tridiag.__file__)))
    return subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)


@pytest.mark.parametrize("first,then", [("viscowave.tridiag", "scipy.linalg"),
                                        ("scipy.linalg", "viscowave.tridiag")])
def test_either_import_order_shares_one_dgtsv(first, then):
    # a fresh process each: this module has imported scipy.linalg already
    proc = run_python(f"""
import sys, {first}, {then}
from viscowave import tridiag
assert scipy.linalg.lapack.dgtsv is tridiag.lapack.dgtsv
assert sys.modules["scipy.linalg._flapack"] is tridiag.lapack
""")
    assert proc.returncode == 0, proc.stderr


MOLLIFY = """
from viscowave import grid as g, scenarios as sc
grid_ = g.Grid1D(1.0, 33)
sc.mollify(sc.gen_corner_theta(grid_), 0.25, grid_)
"""


@pytest.mark.parametrize("first,then", [(MOLLIFY, "import scipy.fft"),
                                        ("import scipy.fft", MOLLIFY)],
                         ids=["mollify-first", "scipy.fft-first"])
def test_either_import_order_shares_one_pocketfft(first, then):
    # the package attribute is not checked: when mollify loads the extension
    # first, scipy.fft._pocketfft has none
    proc = run_python(f"""
import sys
{first}
{then}
from scipy.fft._pocketfft import realtransforms
from viscowave import tridiag
module = sys.modules["{POCKETFFT}"]
assert tridiag.load_scipy_extension("{POCKETFFT}") is module
assert realtransforms.pfft is module
""")
    assert proc.returncode == 0, proc.stderr


def test_eps_cascade_does_not_import_scipy_fft():
    proc = run_python(f"""
import sys
from dataclasses import replace
from viscowave import scenarios as sc
sc.eps_cascade(replace(sc.battery_scenario("rough_theta"), n=33, t_end=0.01), [0.5, 0.25])
assert "{POCKETFFT}" in sys.modules
sys.exit(int("scipy.fft" in sys.modules))
""")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name,where", [("scipy.linalg._flapack", ("linalg",)),
                                        (POCKETFFT, ("fft", "_pocketfft"))],
                         ids=["scipy.linalg._flapack", POCKETFFT])
def test_missing_lapack_extension_names_the_directory(tmp_path, name, where):
    proc = run_python(f"""
import sys, scipy
from viscowave import tridiag
sys.modules.pop({name!r}, None)
scipy.__file__ = {str(tmp_path / "__init__.py")!r}
tridiag.load_scipy_extension({name!r})
""")
    assert proc.returncode != 0
    assert f"ImportError: scipy extension {name} not found in {tmp_path.joinpath(*where)}" \
        in proc.stderr
