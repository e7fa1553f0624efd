"""Machine-speed probe: a fixed program whose run time says how fast this
machine runs code like viscowave's at this moment.

    python3 bench/probe.py

It starts an interpreter and imports numpy and scipy.linalg, as an op's
set-up does, and then steps a 1-D heat equation with the same kind of work as
viscowave's step loop: small numpy calls, a tridiagonal ``solve_banded`` with
a residual check, and Python call overhead.  It shares no code with
viscowave, so no change to the program can move it.  ``run.py`` times one
probe before every op and after the last, and scales each op's timings by
the probes on either side of it (``scaled``).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

N = 129
STEPS = 1500


def _solve(diag_, lower, upper, rhs_):
    ab = np.zeros((3, diag_.size))
    ab[0, 1:] = upper
    ab[1, :] = diag_
    ab[2, :-1] = lower
    x = scipy.linalg.solve_banded((1, 1), ab, rhs_, check_finite=False)
    res = diag_ * x - rhs_
    res[1:] += lower * x[:-1]
    res[:-1] += upper * x[1:]
    if float(np.max(np.abs(res))) > 1e-8 * max(1.0, float(np.max(np.abs(rhs_)))):
        raise ArithmeticError("probe solve residual exceeds tolerance")
    return x


def _step(theta, r):
    n = theta.size
    diag_ = np.full(n, 1.0 + 2.0 * r)
    lower = np.full(n - 1, -r)
    upper = np.full(n - 1, -r)
    upper[0] = lower[-1] = -2.0 * r
    flux = np.diff(theta)
    energy = 0.5 * float(np.sum(flux * flux)) + 0.5 * float(np.sum(theta[:-1] + theta[1:]))
    return _solve(diag_, lower, upper, theta + 0.01 * np.sin(theta)), energy


def main() -> None:
    theta = 1.0 + 0.5 * np.cos(np.pi * np.linspace(0.0, 1.0, N))
    rows = []
    for k in range(STEPS):
        theta, energy = _step(theta, 0.5)
        rows.append((k, energy, float(theta.max()), float(theta.min())))
    if not np.all(np.isfinite(theta)):
        raise ArithmeticError("probe diverged")


if __name__ == "__main__":
    main()
