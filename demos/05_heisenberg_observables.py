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
spec, pf = model.spec, model.pf

# expectation values agree between the two pictures
rng = np.random.default_rng(3)
worst = max(
    expectation_consistency_residual(rng.standard_normal((4, 4)),
                                     rng.standard_normal(4), pf, spec,
                                     float(rng.uniform(0.0, 3.0)))
    for _ in range(20))
print(f"state picture vs observable picture, worst relative gap: {worst:.3e}")

# the two-factor product formula for the shifted propagator
print(f"product-formula residual at tau=1.3: "
      f"{product_formula_residual(pf, spec, 1.3):.3e}")

tau = np.linspace(0.0, 3.0, 31)
evo1 = number_evolution(1, pf, spec, tau)
evo2 = number_evolution(2, pf, spec, tau)
print(f"\nN1: generic path vs ordered expansion product: "
      f"{evo1.max_relative_deviation:.3e}")
print(f"N1: the printed reordering (sliding the opposite adjoint factor through"
      f" N1) is off by {evo1.printed_order_max_relative_deviation:.3f}")
print(f"N2: generic vs ordered {evo2.max_relative_deviation:.3e}, "
      f"printed reordering off by {evo2.printed_order_max_relative_deviation:.3f}")

bound = growth_bound_report((evo1.generic, evo2.generic), spec)
print(f"\n||N1(0)|| = {bound.norm_n1_initial:.6f}, "
      f"||N2(0)|| = {bound.norm_n2_initial:.6f} (the norm-one premise "
      f"holds: {bound.premise_norm_one_1}, {bound.premise_norm_one_2})")
print(f"growth ratios ||N_j(tau)|| e^(2 l3 tau) stay below "
      f"{bound.bound_constant_1:.4f} * ||N1(0)|| and "
      f"{bound.bound_constant_2:.4f} * ||N2(0)|| on tau in [0, 3]")
