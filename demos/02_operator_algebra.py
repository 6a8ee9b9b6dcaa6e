"""Build the deformed operator pairs and verify every algebraic identity.

Two constant matrices A1, A2 satisfy ordinary fermionic anticommutation rules.
An invertible intertwiner T maps the circuit generator onto the diagonal
reference generator, and conjugating A_j by T produces pairs (a_j, b_j) with
b_j != a_j^+ that keep the deformed rules {a_j, b_j} = 1, a_j^2 = b_j^2 = 0.
The verifier runs one named check per identity and serializes to JSON.
"""

import numpy as np

from pfcircuit import (
    Gauge, build_bases, build_T, build_liouvillian, build_pf, derive, normalized,
    pf_verify, spectrum, validate,
)
from pfcircuit.pfalgebra import fermion_generators, verify_two_level_pair

derived = derive(normalized(mu=0.5, gamma=3.0))
spec = spectrum(derived, validate(derived))
generator = build_liouvillian(derived)

a1, a2 = fermion_generators()
print("reference pair is nilpotent:", np.all(a1 @ a1 == 0), np.all(a2 @ a2 == 0))

T, deltas = build_T(spec, derived, Gauge())
print("intertwiner column parameters delta_2j:", np.array2string(deltas, precision=6))
# T's second row holds its unit-norm column scales t, so det(T) = prod(t) * det
# of the unscaled columns (delta, 1, l*delta, l)
print(f"det(T) / prod(T[1]) = {np.linalg.det(T) / np.prod(T[1]):.6f} "
      f"(closed form -4*rho*l4*l2/(alpha*mu)^2 = "
      f"{-4 * spec.rho * spec.l4 * spec.l2 / (derived.alpha * derived.mu) ** 2:.6f})")

# the basis pair builds psi = T^-T in closed form from T's columns, without an
# inverse; the operator system reads both families from it
pf = build_pf(build_bases(T, spec, derived), spec)
report = pf_verify(pf, liouvillian=generator)

print(f"\nall asserted identities hold: {report.all_passed}")
width = max(len(name) for name in report.checks)
for name, check in report.checks.items():
    verdict = "reported" if check["pass"] is None else ("ok" if check["pass"] else "FAIL")
    print(f"  {name:<{width}}  residual {check['residual']:9.3e}  [{verdict}]")

print("\nnote the reported channels: the mixed-dagger cross anticommutators are")
print("O(1) because T is not orthogonal; only the similarity-invariant")
print("combinations vanish, exactly as constructed.")

# the single-pair (two-level) structure, checked for a random similarity
rng = np.random.default_rng(5)
d = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
lower = np.array([[0.0, 1.0], [0.0, 0.0]])
pair_report = verify_two_level_pair(d @ lower @ np.linalg.inv(d),
                                    d @ lower.T @ np.linalg.inv(d))
print(f"\ntwo-level verifier on a random similarity: all passed = "
      f"{pair_report.all_passed}")
