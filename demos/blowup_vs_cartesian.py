"""
One orbit, two charts: the blow-up change of variables at work
==============================================================

Away from total collision the blown-up flow is just the Newtonian flow in
disguise, time-reparametrized by r^(1 - beta/2).  This demo runs the same
initial condition through both integrators and overlays them, checks the
conserved quantities each chart carries, and exhibits the extra first
integral that makes degree -2 special (and excluded from the certificate).
"""
import math

import numpy as np

from mcgehee import (
    check_beta_minus2_integral,
    compile_potential,
    from_mcgehee,
    integrate,
    integrate_cartesian,
    sample_at_physical_times,
    spec_from_dict,
    to_mcgehee,
)

iso = compile_potential(spec_from_dict({"builtin": "isosceles", "params": {"alpha": 1.0}}))

# ---------------------------------------------------------------------------
# 1. The same orbit in both charts.
#
# The launch has outward radial momentum so the orbit stays clear of both
# total collision (r = 0) and the binary collisions at the domain ends for
# the whole comparison window.

q = np.array([1.2, 0.3])
p = 3.0 * q / np.hypot(*q) + np.array([-0.1, 0.2])
state = to_mcgehee(p, q, iso.beta)
p_back, q_back = from_mcgehee(state, iso.beta)
assert np.allclose(q_back, q) and np.allclose(p_back, p)

cart = integrate_cartesian(p, q, iso, (0.0, 5.0), rtol=1e-11, atol=1e-13)
blow = integrate(state, iso, (0.0, 1e4), rtol=1e-12, atol=1e-15, t_stop=5.0)

t_grid = np.linspace(0.0, 5.0, 11)
rows = sample_at_physical_times(blow, t_grid)          # (r, theta, v, w, t, z)
cart_q = cart.sample(t_grid)[:, :2]                    # (qx, qy) per row

print("t      |q| cartesian   r blown-up     gap")
worst = 0.0
for t, row, qxy in zip(t_grid, rows, cart_q):
    r_blow, th = row[0], row[1]
    gap = math.hypot(qxy[0] - r_blow * math.cos(th), qxy[1] - r_blow * math.sin(th))
    worst = max(worst, gap)
    print(f"{t:4.1f}   {math.hypot(*qxy):.10f}   {r_blow:.10f}   {gap:.2e}")
print(f"worst position gap over [0, 5]: {worst:.2e}")
# `mcgehee validate` allows the two charts 1e-6 on its flow-equivalence check
assert worst <= 1e-6, f"the charts disagree by {worst:.2e}"

# ---------------------------------------------------------------------------
# 2. Each chart carries its own conserved energy.
#
# Cartesian conserves H = |p|^2/2 + U(q); the blown-up chart carries
# h = r^beta z in factored log-radial form, so its drift measures only
# arithmetic error, not coordinate error.

hs = cart.hamiltonian()
print()
print(f"cartesian H drift: {float(np.max(np.abs(hs - hs[0]))):.2e}")
print(f"blown-up  h drift: {float(np.max(np.abs(blow.hs - blow.hs[0]))):.2e}")

# ---------------------------------------------------------------------------
# 3. Why the certificate excludes degree -2.
#
# For beta = -2 the quantity G = (q.p)^2 - 2|q|^2 H is a global first
# integral no matter what V is, so no family member can be certified
# non-integrable.  Numerically G is flat along beta = -2 orbits and drifts
# wildly otherwise.

flat = compile_potential(spec_from_dict({"expr": "cos(2*theta) - 2", "beta": -2.0}))
p2 = np.array([0.3, 1.1])
q2 = np.array([1.2, -0.1])
traj2 = integrate_cartesian(p2, q2, flat, (0.0, 10.0), rtol=1e-10)
traj1 = integrate_cartesian(p2, q2, iso, (0.0, 10.0), rtol=1e-10)
print()
print(f"max |G - G0| with beta = -2:  {check_beta_minus2_integral(traj2):.2e}")
print(f"max |G - G0| with beta = -1:  {check_beta_minus2_integral(traj1):.2e}")
