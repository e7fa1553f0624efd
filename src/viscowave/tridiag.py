"""Tridiagonal systems, solved by LAPACK directly.

Every implicit stage of the stepper, and the Crank-Nicolson march of
:func:`diagnostics.estimate_K`, is one tridiagonal solve.  A :class:`Tridiag`
holds the three diagonals, and its :meth:`~Tridiag.solve` calls ``dgtsv``
(Gaussian elimination with partial pivoting).  That gives the same bits as
``scipy.linalg.solve_banded``, which validates its input and then calls
``dgtsv``.

A batch is a ``(B, n)`` right-hand side, one system per row, solved in one
``dgtsv`` call either way:

- One matrix shared by every row (1D diagonals): the rows are ``dgtsv``'s B
  right-hand-side columns.  LAPACK eliminates each column with the same
  arithmetic as a single right-hand side, so each row gets the bits of its
  own solve, sign bits included.
- One matrix per row (diagonals of shape (B, n)): the B systems become one
  block-diagonal system of size B n.  The couplings across the seams between
  consecutive systems are zero, so no row is ever eliminated against another
  system's, and each system gets the bits of its own ``dgtsv`` call, except
  that a right-hand side of exactly -0.0 in an identity end row can come back
  as +0.0.

``dgtsv`` comes from ``scipy.linalg._flapack``, the compiled LAPACK wrapper
whose functions ``scipy.linalg.lapack`` re-exports (``from
scipy.linalg._flapack import *``), so it is the very function
``scipy.linalg.lapack.dgtsv``.  :func:`load_scipy_extension` loads such a
compiled scipy extension alone, after ``import scipy`` (which runs scipy's own
start-up), not through its package: the ``scipy.linalg`` import costs about
0.3 s and 18 MiB per process, most of it in numpy submodules
(``numpy.f2py``, ``numpy.testing``, ``numpy.ma``) that scipy's array-API layer
touches and viscowave never uses.  ``scenarios.mollify`` loads
``scipy.fft._pocketfft.pypocketfft``, the pocketfft wrapper behind
``scipy.fft``'s DST and DCT, the same way, for the same reason.  The module is
registered in ``sys.modules`` under its own name, so whichever of viscowave
and scipy's package is imported first, both use the one module object.  When
viscowave loads it first, the package (``scipy.linalg``,
``scipy.fft._pocketfft``) has no attribute of that name: scipy's own imports
of it find it in ``sys.modules``.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np
import scipy


def load_scipy_extension(name: str):
    """The compiled scipy extension ``name`` (dotted, e.g.
    ``scipy.linalg._flapack``), loaded from its directory under scipy's
    without importing the packages on the way."""
    if name in sys.modules:
        return sys.modules[name]
    where = os.path.join(os.path.dirname(scipy.__file__), *name.split(".")[1:-1])
    spec = importlib.machinery.PathFinder.find_spec(name, [where])
    if spec is None:
        raise ImportError(f"scipy extension {name} not found in {where}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


lapack = load_scipy_extension("scipy.linalg._flapack")


def _check_info(info: int) -> None:
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of the tridiagonal solver")


def _flat(w: np.ndarray, shape: tuple) -> np.ndarray:
    """A diagonal of the B systems of ``shape`` as one flat array of B n
    entries; an off-diagonal (n - 1 per system) gets a zero at each seam."""
    out = np.zeros(shape)
    out[..., :w.shape[-1]] = w
    return out.ravel()


class Tridiag:
    """Tridiagonal matrix given by ``lower`` (n-1), ``diag`` (n), ``upper`` (n-1).

    Row i reads ``lower[i-1] x[i-1] + diag[i] x[i] + upper[i] x[i+1]``.  The
    diagonals may carry a leading batch axis (one system per row, solved as
    one block-diagonal system); 1D diagonals are shared by every row of a
    batched right-hand side, whose rows are solved as the columns of one
    multi-right-hand-side system.
    """

    __slots__ = ("lower", "diag", "upper")

    def __init__(self, lower: np.ndarray, diag: np.ndarray, upper: np.ndarray):
        self.lower, self.diag, self.upper = lower, diag, upper

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with A x = b; the matrix and ``b`` are left unchanged.

        ``b`` of shape (B, n) solves the B systems in one call: as B
        right-hand-side columns when the diagonals are 1D, as one
        block-diagonal system of size B n when each row has its own.
        Raises ``numpy.linalg.LinAlgError`` on an exactly singular matrix and
        ``ValueError`` if LAPACK rejects an argument, as ``solve_banded`` does.
        """
        if self.diag.ndim == 1:
            # b.T, (n, B) in Fortran order, holds the rows of b as dgtsv's columns
            *_, x, info = lapack.dgtsv(self.lower, self.diag, self.upper, b.T)
            _check_info(info)
            return x.T
        *_, x, info = lapack.dgtsv(_flat(self.lower, b.shape)[:-1], _flat(self.diag, b.shape),
                                   _flat(self.upper, b.shape)[:-1], b.ravel(),
                                   overwrite_dl=1, overwrite_d=1, overwrite_du=1)
        _check_info(info)
        return x.reshape(b.shape)

    def residual(self, x: np.ndarray, b: np.ndarray) -> np.ndarray:
        """A x - b."""
        res = self.diag * x - b
        res[..., 1:] += self.lower * x[..., :-1]
        res[..., :-1] += self.upper * x[..., 1:]
        return res


def dirichlet(n: int, s) -> Tridiag:
    """Identity end rows and interior rows ``(-s, 1 + 2 s, -s)``.

    ``s`` is a scalar or the n-2 interior values.  This is I - s dx^2 D2 with
    homogeneous Dirichlet rows.  A (B, 1) column ``s`` gives B systems, one
    per row, each with its own scalar.
    """
    lead = np.shape(s)[:-1]
    diag = np.ones(lead + (n,))
    lower = np.zeros(lead + (n - 1,))
    upper = np.zeros(lead + (n - 1,))
    diag[..., 1:-1] = 1.0 + 2.0 * s
    lower[..., :-1] = -s
    upper[..., 1:] = -s
    return Tridiag(lower, diag, upper)


def neumann(n: int, r: float) -> Tridiag:
    """I - r dx^2 D2_N with mirror-ghost Neumann rows.

    The end rows carry the doubled neighbour ``-2 r``, so the trapezoid mass of
    the operator is identically zero.
    """
    diag = np.full(n, 1.0 + 2.0 * r)
    lower = np.full(n - 1, -r)
    upper = np.full(n - 1, -r)
    upper[0] = -2.0 * r
    lower[-1] = -2.0 * r
    return Tridiag(lower, diag, upper)
