"""Biorthogonal eigenbases of the generator and its adjoint.

The phi family consists of the columns of the intertwiner T (eigenvectors of
the generator); the psi family are the columns of (T^-1)^+ (eigenvectors of
the adjoint).  Columns are labeled by the two-mode occupation numbers (k, n)
in the fixed order (0,0), (1,0), (0,1), (1,1), which pairs them with the
eigenvalues l3, l1, l2, l4.  The two families are biorthonormal and each
resolves the identity; no extra normalization layer is applied because the
construction already gives <psi_kn, phi_lm> = delta exactly.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .liouvillian import Spectrum

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


class BasisPair:
    """The two families as 4x4 arrays whose column j carries label KN_ORDER[j]."""

    def __init__(self, phi: np.ndarray, psi: np.ndarray, labels: np.ndarray):
        self.phi = phi
        self.psi = psi
        #: eigenvalue k*lambda1 + n*lambda2 + l3 per column
        self.labels = labels

    def phi_vec(self, k: int, n: int) -> np.ndarray:
        return self.phi[:, KN_ORDER.index((k, n))]

    def psi_vec(self, k: int, n: int) -> np.ndarray:
        return self.psi[:, KN_ORDER.index((k, n))]

    def to_dict(self) -> dict:
        out = {"phi": [], "psi": []}
        for j, (k, n) in enumerate(KN_ORDER):
            label = float(self.labels[j])
            out["phi"].append({"k": k, "n": n, "eigenvalue": label,
                               "vector": [float(x) for x in self.phi[:, j]]})
            out["psi"].append({"k": k, "n": n, "eigenvalue": label,
                               "vector": [float(x) for x in self.psi[:, j]]})
        return out


def build_bases(T: np.ndarray, spec: Spectrum) -> BasisPair:
    """Extract both families from the intertwiner.

    phi columns are the columns of T; psi columns are the columns of
    (T^-1)^+.  Each column is tagged with its eigenvalue
    k*lambda1 + n*lambda2 + l3.
    """
    T = linalg.as_square(T, 4)
    t_inv = linalg.inverse(T)
    labels = np.array([k * spec.lambda1 + n * spec.lambda2 + spec.l3 for k, n in KN_ORDER])
    return BasisPair(phi=T.copy(), psi=t_inv.T.copy(), labels=labels)


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


def eigen_check(pair: BasisPair, liouvillian: np.ndarray) -> np.ndarray:
    """Relative eigen-residuals, phi family against L then psi family against L^+.

    Returns eight values in KN order: ||L phi - mu phi||/||phi|| followed by
    ||L^+ psi - mu psi||/||psi||.
    """
    liouvillian = linalg.as_square(liouvillian, 4)
    out = []
    for j in range(4):
        mu_j = pair.labels[j]
        phi = pair.phi[:, j]
        out.append(np.linalg.norm(liouvillian @ phi - mu_j * phi) / np.linalg.norm(phi))
    for j in range(4):
        mu_j = pair.labels[j]
        psi = pair.psi[:, j]
        out.append(np.linalg.norm(liouvillian.T @ psi - mu_j * psi) / np.linalg.norm(psi))
    return np.array(out)


def metric_map_check(pair: BasisPair, S_phi: np.ndarray, S_psi: np.ndarray) -> np.ndarray:
    """Relative residuals of the metric maps between the families.

    Returns eight values: ||S_phi psi_kn - phi_kn||/||phi_kn|| in KN order,
    then the inverse direction ||S_psi phi_kn - psi_kn||/||psi_kn||, where
    S_psi = S_phi^-1 is taken as given (it comes from T^-1, and inverting
    S_phi = T T^+ would square the condition number of T).
    """
    S_phi = linalg.as_square(S_phi, 4)
    S_psi = linalg.as_square(S_psi, 4)
    out = []
    for j in range(4):
        phi, psi = pair.phi[:, j], pair.psi[:, j]
        out.append(np.linalg.norm(S_phi @ psi - phi) / np.linalg.norm(phi))
    for j in range(4):
        phi, psi = pair.phi[:, j], pair.psi[:, j]
        out.append(np.linalg.norm(S_psi @ phi - psi) / np.linalg.norm(psi))
    return np.array(out)


def expand(pair: BasisPair, v: np.ndarray) -> np.ndarray:
    """Expansion weights of v over the phi family, by biorthogonal projection."""
    v = linalg.as_vector(v)
    return pair.psi.T @ v


def reconstruct(pair: BasisPair, weights: np.ndarray) -> np.ndarray:
    """Sum of weighted phi vectors."""
    return pair.phi @ np.asarray(weights, dtype=float)


def frame_bounds(
    pair: BasisPair, S_phi: np.ndarray, S_psi: np.ndarray, n_samples: int = 200, seed: int = 0
) -> dict:
    """Numerical frame-bound evidence for the phi family.

    For normalised probe vectors f (rows of :func:`linalg.probes` scaled to
    unit length), sum_kn |<phi_kn, f>|^2 equals <f, S_phi f> and must lie
    within the extreme eigenvalues of S_phi, i.e. [1/||S_psi||, ||S_phi||],
    with S_psi = S_phi^-1 given as in :func:`metric_map_check`.  Returns the
    measured extremes together with the bounds.
    """
    S_phi = linalg.as_square(S_phi, 4)
    S_psi = linalg.as_square(S_psi, 4)
    upper = linalg.spectral_norm(S_phi)
    lower = 1.0 / linalg.spectral_norm(S_psi)
    f = linalg.probes(seed, (n_samples, 4))
    f /= np.linalg.norm(f, axis=1, keepdims=True)
    values = np.sum((f @ pair.phi) ** 2, axis=1)
    lowest, highest = float(np.min(values)), float(np.max(values))
    return {
        "lower_bound": float(lower),
        "upper_bound": float(upper),
        "min_observed": lowest,
        "max_observed": highest,
        "within_bounds": bool(lowest >= lower - 1e-9 and highest <= upper + 1e-9),
    }
