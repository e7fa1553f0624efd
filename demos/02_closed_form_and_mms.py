"""Verification against a closed form and a manufactured solution.

Two independent accuracy oracles:

* the decoupled heat eigenmode Theta = 1 + e^{-(pi/L)^2 t} cos(pi x / L),
  which the solver must reproduce to O(dx^2 + dt^p), and
* a manufactured solution of the full coupled system, where prescribed exact
  fields induce forcing terms and the solver is measured against the fields
  it was forced to follow.
"""

from dataclasses import replace

import numpy as np

from viscowave import battery_scenario, mms_case, run, simulate
from viscowave.dynamics import SchemeConfig
from viscowave.grid import Grid1D

# --- closed-form heat eigenmode ------------------------------------------
scenario = battery_scenario("heat_eigenmode")
exact = scenario.exact_fields()["theta"]

print("decoupled heat eigenmode, trapezoidal stepping, dt = 1e-4, T = 0.5")
print("  n     L-inf error   order")
prev = None
for n in (33, 65, 129):
    s = replace(scenario, n=n, t_end=0.5,
                scheme=replace(scenario.scheme, dt_initial=1e-4, dt_max=1e-4))
    traj = run(s)
    err = float(np.max(np.abs(traj.final_state.theta
                              - exact(traj.grid.nodes, traj.times[-1]))))
    order = "" if prev is None else f"{np.log2(prev / err):.3f}"
    print(f"  {n:3d}   {err:.3e}    {order}")
    prev = err

# --- manufactured solution of the coupled system --------------------------
case = mms_case("exponential")
print("\nmanufactured solution: u = e^-t sin(pi x), Theta = 1 + e^-t cos(pi x)")
print("forcing induced by the exact fields is added to both equations")
print("  n     err(u)      err(v)      err(theta)")
errors = {f: [] for f in ("u", "v", "theta")}
for n in (33, 65, 129):
    grid = Grid1D(case.length, n)
    cfg = SchemeConfig(dt_initial=1e-4, dt_max=1e-4, scheme="imex_cn")
    traj = simulate(case.laws, case.a, grid, case.initial_data(grid), 0.25,
                    cfg, forcing=case.forcing)
    st = traj.final_state
    row = []
    for fname, fn in (("u", case.u), ("v", case.v), ("theta", case.theta)):
        err = float(np.max(np.abs(getattr(st, fname) - fn(grid.nodes, st.t))))
        errors[fname].append(err)
        row.append(f"{err:.3e}")
    print(f"  {n:3d}   " + "   ".join(row))

print("  observed spatial orders:")
for fname, errs in errors.items():
    order = np.polyfit(np.log([1 / 32, 1 / 64, 1 / 128]), np.log(errs), 1)[0]
    print(f"    {fname:5s} {order:.3f}")
