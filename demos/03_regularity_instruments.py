"""The regularity instruments: monitors, the transformed parabolic residual,
and the numerically probed maximal-regularity constant.

Three layers of diagnostics ride along every run:

1. trajectory monitors - the space-time functionals (int int v_x^4,
   int int (Theta+1)^{4 alpha}, Sobolev norms of Theta, v, u) whose
   finiteness is what global regularity amounts to;
2. the damped antiderivative z = e^{-kappa t} int_0^x v, which satisfies a
   scalar heat equation with a mixed boundary pair and a computable source -
   its discrete residual must vanish under refinement;
3. the closed-form lower bound D^-p for the maximal-regularity constant
   K(p, D) of that scalar problem, the supremum of the single-mode ratios
   that trial solves of its mixed boundary problem approach, from which the
   admissible viscosity oscillation delta and the damping rate kappa are
   derived.
"""

from dataclasses import replace

import numpy as np

from viscowave import (Snapshots, battery_scenario, estimate_K, lq_balance, run,
                       theory_constants)
from viscowave.grid import Grid1D

scenario = battery_scenario("coupled")
snaps = Snapshots()  # keep the sampled states as well as the rows
traj = run(scenario, recorders=[snaps])

print(f"coupled run, n={scenario.n}, T_end={scenario.t_end}")
print("\nfinal trajectory monitors (all must stay finite):")
m = traj.monitors
for name in ("cum_vx4", "cum_theta_pow", "cum_thetaxx2", "cum_vxx2",
             "l2_thetax", "l2_vx", "l2_uxx", "lq_value", "w12_theta"):
    print(f"  {name:15s} {getattr(m, name):.6f}")

# --- the Lq balance: rate identity for int (Theta+1)^q --------------------
mid = snaps.states[len(snaps.states) // 2]
bal = lq_balance(mid, scenario.laws, q=2.0, grid_=traj.grid)
print(f"\nLq balance at t = {mid.t:.2f} (q = 2):")
print(f"  dissipation    {bal.dissipation:+.6f}")
print(f"  viscous gain   {bal.viscous_gain:+.6f}")
print(f"  coupling loss  {bal.coupling_loss:+.6f}")
print(f"  net rate       {bal.lhs_rate:+.6f}")

# --- transformed-problem residual under refinement -------------------------
print("\nresidual of the transformed scalar problem (joint dx, dt halving):")
print("  n    dt       max residual")
for n, dt in ((33, 2e-3), (65, 1e-3), (129, 5e-4)):
    s = replace(scenario, n=n, t_end=0.25,
                scheme=replace(scenario.scheme, dt_initial=dt, dt_max=dt))
    t = run(s)
    print(f"  {n:3d}  {dt:.0e}   {max(r.z_residual for r in t.rows[1:]):.4e}")

# --- maximal-regularity constant and the derived smallness parameters ------
grid = Grid1D(1.0, 129)
D = scenario.laws.gamma0
est = estimate_K(p=4.0, D=D, trials=5, grid_=grid, T=1.0)
lam = (np.pi / 2.0) ** 2
closed = (1.0 - np.exp(-4.0 * lam)) / (4.0 * lam)
K = D ** -4.0  # the K_est of every run's summary
print(f"\nmaximal-regularity probe (p=4, D={D:g}, T=1):")
print(f"  pure-mode trial ratio {est.ratios[0]:.6f}  (closed form {closed:.6f})")
print("  steady single-mode ratios, k = 0..3: "
      + ", ".join(f"{r:.6f}" for r in est.ratios[1:]))
print(f"  largest over {len(est.ratios)} marched trials: {est.K:.6f};  "
      f"their supremum over all modes, D^-4 = {K:.6f}  (a lower bound of K)")

consts = theory_constants(K, a=1.0, T0=1.0, alpha=scenario.laws.alpha)
print(f"  delta_est = {consts.delta_est:.4f}   (256 K delta^4 = "
      f"{256 * K * consts.delta_est ** 4:.3f})")
print(f"  kappa_est = {consts.kappa_est:.4f}   (27*32 K a^4 T0 / kappa^3 = "
      f"{27 * 32 * K / consts.kappa_est ** 3:.3f})")
print(f"  q = 4 alpha - 2 = {consts.q:g}  (admissible: {consts.q_admissible})")
print(f"\nscenario delta = {scenario.laws.delta} vs delta_est = {consts.delta_est:.4f}: "
      f"{'inside' if scenario.laws.delta <= consts.delta_est else 'outside'} "
      "the estimated smallness region")
