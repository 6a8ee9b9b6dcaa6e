"""Two more circuits hide inside the first one: the adjoint and the diagonal system.

The metric operator S_phi intertwines the generator with its adjoint, so
eta = S_phi^-1 Psi solves the adjoint equation whenever Psi solves the original
one.  Component-wise the adjoint system IS a circuit again: with L = C = 1 the
identification (x1, x2, x3, x4) -> (I1, I2, -V1, -V2) turns its equations back
into the original circuit relations.  The diagonal reference system evolves
each component by a bare exponential.
"""

import numpy as np

from pfcircuit import Model, evolve_h0, normalized
from pfcircuit.dynamics import adjoint_circuit_map, adjoint_metric_route

model = Model(normalized(mu=0.5, gamma=3.0, i1=1.0))
spec = model.spec

tau = np.linspace(0.0, 5.0, 501)
forward = model.evolve(tau)

# metric route into the adjoint system
adjoint_traj, gap = adjoint_metric_route(model.psi0, forward, model.pair, spec)
print(f"adjoint solution vs S_phi^-1 * forward solution, max gap: {gap:.3e}")

# the adjoint system re-read as a circuit
residual, _ = adjoint_circuit_map(adjoint_traj, model.params, model.derived)
print(f"circuit-relation residuals of the relabeled adjoint trajectory: {residual:.3e}")
print("identification: x1 -> I1, x2 -> I2, x3 -> -V1, x4 -> -V2 (L = C = 1)")

# the diagonal system is trivial: each component rides one exponential
y0 = np.ones(4)
h0_traj = evolve_h0(spec, y0, np.array([0.0, 1.0]))
print("\ndiagonal system at tau=1:", np.array2string(h0_traj.states[1], precision=6))
print("bare exponentials:       ",
      np.array2string(np.exp(spec.shifted_eigenvalues), precision=6))
