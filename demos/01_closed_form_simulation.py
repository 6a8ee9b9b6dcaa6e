"""Simulate the loss-gain circuit in closed form and watch the gain side win.

The circuit is two RLC loops coupled by a mutual inductance, one with negative
effective resistance (gain) and one with positive (loss).  In normalized units
the whole configuration is fixed by the coupling ratio mu and the damping
ratio gamma.  This script builds the reference point (mu=0.5, gamma=3), solves
the dynamics exactly on the eigenbasis, cross-checks against a Runge-Kutta
integration, and classifies the asymptotics.
"""

import numpy as np

from pfcircuit import Model, classify_asymptotics, energy, evolve_rk4, normalized, power, validate

model = Model(normalized(mu=0.5, gamma=3.0, i1=1.0))
params, derived = model.params, model.derived
print("dimensionless parameters:", derived)

report = validate(derived)
print(f"regime accepted: {report.accepted}   rho = {report.rho:.6f}")

spec = model.spec
print(f"eigenvalues: l3={spec.l3:+.6f} < l1={spec.l1:+.6f} < 0 "
      f"< l2={spec.l2:+.6f} < l4={spec.l4:+.6f}")

# closed-form solution: expand the initial kick over the eigenbasis
coeffs = model.coeffs
print("mode weights c_kn:", np.array2string(coeffs.vector, precision=6))

tau = np.linspace(0.0, 5.0, 1001)
traj = model.evolve(tau)

# independent oracle: classical RK4 on the same grid
oracle = evolve_rk4(model.generator, model.psi0, tau, params=params, derived=derived)
gap = np.max(np.linalg.norm(traj.states - oracle.states, axis=1)
             / np.maximum(1.0, np.linalg.norm(traj.states, axis=1)))
print(f"closed form vs RK4, max relative gap: {gap:.3e}")

# the dominant mode e^{l4 tau} carries everything for large tau
tail = tau >= 4.0
slope = np.polyfit(tau[tail], np.log(np.linalg.norm(traj.states[tail], axis=1)), 1)[0]
print(f"measured growth rate {slope:.6f} vs l4 = {spec.l4:.6f}")

pw = power(traj, params, derived)
en = energy(traj, params)
gl = classify_asymptotics(spec, derived, params, power_series=pw, coeffs=coeffs)
print(f"power of sub-circuit 1 diverges to {gl.p1_diverges_to}inf "
      f"(measured tail sign {gl.measured_p1_sign})")
print(f"power of sub-circuit 2 diverges to {gl.p2_diverges_to}inf "
      f"(measured tail sign {gl.measured_p2_sign})")
print(f"energies stay nonnegative: E1 min {np.min(en.e1):.3e}, "
      f"E2 min {np.min(en.e2):.3e}")
print(f"l4 sits inside the damping window (-gamma, gamma): {gl.power_window_ok}")
