"""Evolve observables instead of states, with a non-self-adjoint generator.

The representation-independent recipe is X(tau) = e^{L^+ tau} X(0) e^{L tau}.
Because the shifted generator is a sum of two commuting idempotents, its
exponential is a finite product, and the number operators have closed-form
evolutions.  The growth of ||N_j(tau)|| is bounded by a constant times
e^{-2 l3 tau}; the constant is reported rather than assumed to be one, since
||N_j(0)|| > 1 for non-orthogonal idempotents.
"""

import numpy as np

from pfcircuit import Model, normalized, number_evolution
from pfcircuit.heisenberg import (
    expectation_consistency_residual, growth_bound_report, product_formula_residual,
)

model = Model(normalized(mu=0.5, gamma=3.0))
pf = model.pf

# expectation values agree between the two pictures
rng = np.random.default_rng(3)
worst = max(
    expectation_consistency_residual(rng.standard_normal((4, 4)),
                                     rng.standard_normal(4), pf,
                                     float(rng.uniform(0.0, 3.0)))
    for _ in range(20))
print(f"state picture vs observable picture, worst relative gap: {worst:.3e}")

# the two-factor product formula for the shifted propagator
print(f"product-formula residual at tau=1.3: "
      f"{product_formula_residual(pf, 1.3):.3e}")

# N1 and N2 evolve together: one propagator stack, one stacked norm call
evo = number_evolution(pf, np.linspace(0.0, 3.0, 31))
(dev1, dev2), (printed1, printed2) = (evo.max_relative_deviation,
                                      evo.printed_order_max_relative_deviation)
print(f"\nN1: generic path vs ordered expansion product: {dev1:.3e}")
print(f"N1: the printed reordering (sliding the opposite adjoint factor through"
      f" N1) is off by {printed1:.3f}")
print(f"N2: generic vs ordered {dev2:.3e}, printed reordering off by {printed2:.3f}")

# the growth report holds each quantity as an (N1, N2) pair
bound = growth_bound_report(evo, model.spec)
(norm1, norm2), (const1, const2) = bound.norm_initial, bound.bound_constant
print(f"\n||N1(0)|| = {norm1:.6f}, ||N2(0)|| = {norm2:.6f} (the norm-one premise "
      f"holds: {bound.premise_norm_one[0]}, {bound.premise_norm_one[1]})")
print(f"growth ratios ||N_j(tau)|| e^(2 l3 tau) stay below "
      f"{const1:.4f} * ||N1(0)|| and {const2:.4f} * ||N2(0)|| on tau in [0, 3]")
