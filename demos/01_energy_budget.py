"""Energy bookkeeping on the fully coupled scenario.

The run integrates the viscous wave / heat system with saturating viscosity
and linear thermal coupling.  The sum

    E = (1/2) int v^2 + (a/2) int u_x^2 + int Theta

is conserved by the continuous dynamics: whatever the viscosity drains from
the mechanical part reappears as heat.  The backward-Euler stepper loses a
signed O(dt) amount per unit time, while the trapezoidal variant closes the
budget to roundoff; both behaviors are visible below.
"""

from dataclasses import replace

from viscowave import battery_scenario, data_bound_M, lambda1_bound, run
from viscowave.material import InitialData

scenario = battery_scenario("coupled")

print(f"scenario: {scenario.name}  (n={scenario.n}, T_end={scenario.t_end}, "
      f"scheme={scenario.scheme.scheme}, dt={scenario.scheme.dt_initial:g})")
traj = run(scenario)

print("\n  t       E_total        E_kin      E_el       E_th       drift")
for row in traj.rows[:: max(1, len(traj.rows) // 10)]:
    print(f"  {row.t:5.2f}  {row.E_total:.10f}  {row.E_kin:.3e}  "
          f"{row.E_el:.3e}  {row.E_th:.6f}  {row.drift:+.3e}")

print(f"\nrelative drift over [0, {scenario.t_end}]: "
      f"{abs(traj.rows[-1].drift) / traj.e0:.3e}  (backward Euler, O(dt))")

# halving dt halves the drift: the defect per step is the exact quantity
# (1/2)|dv|^2 + (a dt^2/2)|grad v|^2, quadratic per step, linear per horizon
half = replace(scenario, scheme=replace(scenario.scheme,
                                        dt_initial=scenario.scheme.dt_initial / 2,
                                        dt_max=scenario.scheme.dt_initial / 2))
traj_half = run(half)
print(f"drift at dt/2: {abs(traj_half.rows[-1].drift) / traj_half.e0:.3e}  "
      f"(factor {abs(traj.rows[-1].drift / traj_half.rows[-1].drift):.3f})")

cn = replace(scenario, scheme=replace(scenario.scheme, scheme="imex_cn"))
traj_cn = run(cn)
print(f"trapezoidal scheme drift: {traj_cn.max_drift:.3e}  (machine precision)")

# the conserved budget also pins the trajectory under the a-priori bounds
# derived from the aggregate data norm M
state0 = traj.initial_state
data = InitialData(u0=state0.u, v0=state0.v, theta0=state0.theta)
M = data_bound_M(data, traj.grid)
lam = lambda1_bound(M, scenario.a, scenario.length)
print(f"\naggregate data bound M = {M.M:.4f}  ->  budget bound B = {lam.B:.4f}")
print("  functional      observed max   bound")
print(f"  int v^2         {max(2 * r.E_kin for r in traj.rows):12.6f}   {lam.bound_v2:.4f}")
print(f"  int u_x^2       {max(2 * r.E_el / scenario.a for r in traj.rows):12.6f}   {lam.bound_ux2:.4f}")
print(f"  int Theta       {max(r.mass_theta for r in traj.rows):12.6f}   {lam.bound_theta:.4f}")
