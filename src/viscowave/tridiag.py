"""Tridiagonal systems, solved by LAPACK directly.

Every implicit stage of the stepper, and the Crank-Nicolson march of
:func:`diagnostics.estimate_K`, is one tridiagonal solve.  A :class:`Tridiag`
holds the three diagonals, and its :meth:`~Tridiag.solve` calls ``dgtsv``
(Gaussian elimination with partial pivoting).  That gives the same bits as
``scipy.linalg.solve_banded``, which validates its input and then calls
``dgtsv``.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack


class Tridiag:
    """Tridiagonal matrix given by ``lower`` (n-1), ``diag`` (n), ``upper`` (n-1).

    Row i reads ``lower[i-1] x[i-1] + diag[i] x[i] + upper[i] x[i+1]``.
    """

    __slots__ = ("lower", "diag", "upper")

    def __init__(self, lower: np.ndarray, diag: np.ndarray, upper: np.ndarray):
        self.lower, self.diag, self.upper = lower, diag, upper

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with A x = b; the matrix and ``b`` are left unchanged.

        Raises ``numpy.linalg.LinAlgError`` on an exactly singular matrix and
        ``ValueError`` if LAPACK rejects an argument, as ``solve_banded`` does.
        """
        *_, x, info = lapack.dgtsv(self.lower, self.diag, self.upper, b)
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of the tridiagonal solver")
        return x

    def residual(self, x: np.ndarray, b: np.ndarray) -> np.ndarray:
        """A x - b."""
        res = self.diag * x - b
        res[1:] += self.lower * x[:-1]
        res[:-1] += self.upper * x[1:]
        return res


def dirichlet(n: int, s) -> Tridiag:
    """Identity end rows and interior rows ``(-s, 1 + 2 s, -s)``.

    ``s`` is a scalar or the n-2 interior values.  This is I - s dx^2 D2 with
    homogeneous Dirichlet rows.
    """
    diag = np.ones(n)
    lower = np.zeros(n - 1)
    upper = np.zeros(n - 1)
    diag[1:-1] = 1.0 + 2.0 * s
    lower[:-1] = -s
    upper[1:] = -s
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
