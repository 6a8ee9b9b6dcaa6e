"""The two eigenfamilies: biorthogonality, eigen-relations, metric maps, frames.

Columns of the intertwiner T are eigenvectors of the circuit generator; columns
of (T^-1)^+ are eigenvectors of its adjoint with the same eigenvalues.  The
generator is J-pseudo-Hermitian, L^+ J = J L with J = [[-G, I], [I, 0]] and
G = diag(gamma, -gamma), so the adjoint family is built in closed form as
psi_k = J phi_k / (phi_k^+ J phi_k), with no inverse of T.  The two families
are biorthonormal, each resolves the identity, and the positive metric
S_phi = T T^+ maps one family onto the other.
"""

import numpy as np

from pfcircuit import (
    Gauge, build_T, build_bases, build_liouvillian, derive, linalg, normalized, spectrum, validate,
)
from pfcircuit.basis import (
    KN_ORDER, eigen_check, expand, frame_bounds, gram_residual, metric_map_check,
    reconstruct, resolution_residuals,
)

derived = derive(normalized(mu=0.5, gamma=3.0))
spec = spectrum(derived, validate(derived))
generator = build_liouvillian(derived)
T, _ = build_T(spec, derived, Gauge())
pair = build_bases(T, spec, derived)

g = derived.gamma
J = np.block([[-np.diag([g, -g]), np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
print(f"||L^+ J - J L||_F = {np.linalg.norm(generator.T @ J - J @ generator):.3e}")
direct = J @ pair.phi / np.sum(pair.phi * (J @ pair.phi), axis=0)
print(f"largest gap between psi and J phi / (phi^+ J phi): "
      f"{np.max(np.abs(pair.psi - direct)):.3e}\n")

print("occupation labels and eigenvalues:")
for j, (k, n) in enumerate(KN_ORDER):
    print(f"  (k,n)=({k},{n})  eigenvalue {pair.labels[j]:+.6f}")

print(f"\nbiorthonormality residual:      {gram_residual(pair):.3e}")
r1, r2 = resolution_residuals(pair)
print(f"resolutions of the identity:    {r1:.3e}, {r2:.3e}")
print(f"eigen-relation residuals (max): {np.max(eigen_check(pair, generator)):.3e}")

s_phi = pair.phi @ pair.phi.T
s_psi = pair.psi @ pair.psi.T  # the inverse metric, from the psi family
print(f"metric map residuals (max):     {np.max(metric_map_check(pair, s_phi, s_psi)):.3e}")

# expanding an arbitrary vector over the phi family and rebuilding it
rng = np.random.default_rng(0)
v = rng.standard_normal(4)
weights = expand(pair, v)
print(f"\nexpansion weights of a random vector: {np.array2string(weights, precision=4)}")
print(f"reconstruction error: {np.linalg.norm(reconstruct(pair, weights) - v):.3e}")

# numerical frame-bound evidence (the families are images of an orthonormal
# basis under a bounded invertible map), within the metrics' extreme eigenvalues
frame = frame_bounds(pair, linalg.jacobi_eigh(np.stack([s_phi, s_psi]))[0], seed=1)
print(f"\nframe bounds [{frame['lower_bound']:.4f}, {frame['upper_bound']:.4f}]")
print(f"observed range [{frame['min_observed']:.4f}, {frame['max_observed']:.4f}]"
      f"  within bounds: {frame['within_bounds']}")
