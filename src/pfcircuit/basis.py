"""Biorthogonal eigenbases of the generator and its adjoint.

The phi family consists of the columns of the intertwiner T (eigenvectors of
the generator); the psi family, the columns of (T^-1)^+, are eigenvectors of
the adjoint.  Columns are labeled by the two-mode occupation numbers (k, n)
in the fixed order (0,0), (1,0), (0,1), (1,1), which pairs them with the
eigenvalues l3, l1, l2, l4.  T is never inverted: J = [[-G, I], [I, 0]],
G = diag(gamma, -gamma), makes J L symmetric, so L^+ J = J L (Mostafazadeh,
J. Math. Phys. 43, 205, 2002) and psi_k = J phi_k / (phi_k^+ J phi_k).
kappa = kappa_2(T) is taken once; at u*kappa^2 >= 1 (u = 2^-53), where
S_phi = T T^+ is singular in double, the pair is refused (:class:`IllConditioned`).
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import IllConditioned
from .liouvillian import Spectrum
from .params import DerivedParams

__all__ = [
    "KN_ORDER",
    "BasisPair",
    "build_bases",
    "gram_residual",
    "resolution_residuals",
    "eigen_check",
    "metric_map_check",
    "expand",
    "reconstruct",
    "frame_bounds",
]

#: column order of the occupation labels
KN_ORDER: tuple[tuple[int, int], ...] = ((0, 0), (1, 0), (0, 1), (1, 1))
#: u, the unit roundoff of a double
UNIT_ROUNDOFF = 2.0**-53
#: relative slack of the frame bounds: the values carry a few u of relative
#: error, and Jacobi's extreme eigenvalues 1e-14*||S||_F, at most 2e-14 of
#: ||S||_2; relative, so that it scales with the gauge as values and bounds do
FRAME_RTOL = 1e-9
#: probe vectors of :func:`frame_bounds`
FRAME_PROBES = 200


class BasisPair:
    """The two families as 4x4 arrays whose column j carries label KN_ORDER[j]."""

    def __init__(self, phi: np.ndarray, psi: np.ndarray, labels: np.ndarray, kappa: float):
        self.phi = phi
        self.psi = psi
        #: eigenvalue k*lambda1 + n*lambda2 + l3 per column
        self.labels = labels
        self.kappa = kappa  # kappa_2(T), the phi family's 2-norm condition number


def build_bases(T: np.ndarray, spec: Spectrum, derived: DerivedParams) -> BasisPair:
    """Both families from the intertwiner's columns, each tagged with its eigenvalue.

    With x = (T[0, k], T[1, k]) and l = (l3, l1, l2, l4)[k], J phi_k = ((l - G) x, x),
    (l - G) x = -A x / l, and phi_k^+ J phi_k = p'(l) x1 x2 / (alpha mu) with p'(l) =
    2 sqrt(rho) (-l4, l2, -l2, l4)[k] for the quartic p: no form subtracts or cancels.
    """
    kappa = float(np.linalg.cond(T))  # inf for a singular T
    if not kappa < UNIT_ROUNDOFF**-0.5:
        raise IllConditioned(f"S_phi = T T^+ is singular in double: u*kappa(T)^2 >= 1 "
                             f"(kappa(T)={kappa:.6e})")
    a, mu, ls, (x1, x2) = derived.alpha, derived.mu, spec.eigenvalues, T[:2]
    j_phi = np.stack([a * (mu * x2 - x1) / ls, a * (mu * x1 - x2) / ls, x1, x2])
    slope = 2.0 * np.sqrt(spec.rho) * np.array([-spec.l4, spec.l2, -spec.l2, spec.l4])
    labels = np.array([k * spec.lambda1 + n * spec.lambda2 + spec.l3 for k, n in KN_ORDER])
    return BasisPair(T.copy(), j_phi / (slope * x1 * x2 / (a * mu)), labels, kappa)


def gram_residual(pair: BasisPair) -> float:
    """||<psi_kn, phi_lm> - delta|| over all index pairs."""
    gram = pair.psi.T @ pair.phi
    return float(np.linalg.norm(gram - np.eye(4), "fro"))


def resolution_residuals(pair: BasisPair) -> tuple[float, float]:
    """Deviations of both resolutions of the identity."""
    eye = np.eye(4)
    r1 = np.linalg.norm(pair.phi @ pair.psi.T - eye, "fro")
    r2 = np.linalg.norm(pair.psi @ pair.phi.T - eye, "fro")
    return float(r1), float(r2)


def _column_residuals(op: np.ndarray, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> list:
    """||op x_j - y_j|| / ||z_j|| for each column j of the 4x4 arrays x, y and z."""
    return [np.linalg.norm(op @ x[:, j] - y[:, j]) / np.linalg.norm(z[:, j]) for j in range(4)]


def eigen_check(pair: BasisPair, liouvillian: np.ndarray) -> np.ndarray:
    """Relative eigen-residuals, phi family against L then psi family against L^+.

    Returns eight values in KN order: ||L phi - mu phi||/||phi|| followed by
    ||L^+ psi - mu psi||/||psi||.
    """
    return np.array([*_column_residuals(liouvillian, pair.phi, pair.labels * pair.phi, pair.phi),
                     *_column_residuals(liouvillian.T, pair.psi, pair.labels * pair.psi, pair.psi)])


def metric_map_check(pair: BasisPair, S_phi: np.ndarray, S_psi: np.ndarray) -> np.ndarray:
    """Relative residuals of the metric maps between the families.

    Returns eight values: ||S_phi psi_kn - phi_kn||/||phi_kn|| in KN order,
    then the inverse direction ||S_psi phi_kn - psi_kn||/||psi_kn||, where
    S_psi = S_phi^-1 is taken as given (it is built from the psi family, and
    inverting S_phi = T T^+ would square the condition number of T).
    """
    return np.array([*_column_residuals(S_phi, pair.psi, pair.phi, pair.phi),
                     *_column_residuals(S_psi, pair.phi, pair.psi, pair.psi)])


def expand(pair: BasisPair, v: np.ndarray) -> np.ndarray:
    """Expansion weights of v over the phi family, by biorthogonal projection.

    An (m, 4) stack of vectors, one per row, gives their weights as rows.
    """
    return (pair.psi.T @ v.T).T


def reconstruct(pair: BasisPair, weights: np.ndarray) -> np.ndarray:
    """Sum of weighted phi vectors; an (m, 4) stack of weights gives one vector per row."""
    return (pair.phi @ np.asarray(weights, dtype=float).T).T


def frame_bounds(pair: BasisPair, eigenvalues: tuple[np.ndarray, np.ndarray], seed: int) -> dict:
    """Numerical frame-bound evidence for the phi family.

    For FRAME_PROBES normalised probe vectors f (rows of :func:`linalg.probes`
    scaled to unit length), sum_kn |<phi_kn, f>|^2 equals <f, S_phi f> and must
    lie within the extreme eigenvalues of S_phi, i.e. [1/||S_psi||, ||S_phi||],
    with S_psi = S_phi^-1.  ``eigenvalues`` holds the Jacobi eigenvalues of
    S_phi and of S_psi, and for these symmetric matrices ||S|| = max
    |eigenvalue|.  Returns the measured extremes together with the bounds.
    """
    upper, inverse_lower = (float(np.max(np.abs(w))) for w in eigenvalues)
    lower = 1.0 / inverse_lower
    f = linalg.probes(seed, (FRAME_PROBES, 4))
    f /= np.linalg.norm(f, axis=1, keepdims=True)
    values = np.sum((f @ pair.phi) ** 2, axis=1)
    lowest, highest = float(np.min(values)), float(np.max(values))
    return {
        "lower_bound": lower,
        "upper_bound": upper,
        "min_observed": lowest,
        "max_observed": highest,
        "within_bounds": bool(lowest >= lower * (1.0 - FRAME_RTOL)
                              and highest <= upper * (1.0 + FRAME_RTOL)),
    }
