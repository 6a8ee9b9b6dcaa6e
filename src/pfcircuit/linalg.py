"""Dense linear-algebra kernel for the 4x4 (and 2x2) matrices used everywhere else.

Everything operates on plain numpy arrays in double precision.  Two independent
matrix-exponential routes are provided on purpose: an eigendecomposition route
(used when the caller can supply a diagonalizing pair) and a scaling-and-squaring
truncated Taylor route that serves as a cross-check oracle.  The symmetric
eigensolver is a cyclic Jacobi sweep so that square roots and spectral norms do
not depend on the same LAPACK path the tests compare against.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotSPD, SingularMatrix

__all__ = [
    "as_square",
    "as_vector",
    "inverse",
    "expm",
    "jacobi_eigh",
    "sqrtm_spd",
    "spectral_norm",
]

#: relative determinant threshold for the regularity test in :func:`inverse`
SINGULARITY_RTOL = 1e-12

#: Taylor terms retained by the scaling-and-squaring fallback of :func:`expm`
TAYLOR_TERMS = 18

#: scaled off-diagonal Frobenius target for the cyclic Jacobi sweeps
JACOBI_TOL = 1e-14
JACOBI_MAX_SWEEPS = 50


def as_square(a, dim: int | None = None) -> np.ndarray:
    """Validate and return a square matrix with finite entries."""
    m = np.asarray(a, dtype=complex if np.iscomplexobj(a) else float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if dim is not None and m.shape[0] != dim:
        raise ValueError(f"expected a {dim}x{dim} matrix, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def as_vector(v, dim: int = 4) -> np.ndarray:
    """Validate and return a length-`dim` vector with finite entries."""
    w = np.asarray(v, dtype=complex if np.iscomplexobj(v) else float)
    if w.shape != (dim,):
        raise ValueError(f"expected a length-{dim} vector, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("vector entries must be finite")
    return w


def inverse(a) -> np.ndarray:
    """Inverse, guarded by a scaled regularity test on the determinant.

    Raises :class:`SingularMatrix` when |det A| <= SINGULARITY_RTOL * ||A||_F^n.
    """
    m = as_square(a)
    n = m.shape[0]
    det = np.linalg.det(m)
    scale = np.linalg.norm(m, "fro") ** n
    if abs(det) <= SINGULARITY_RTOL * max(scale, 1e-300):
        raise SingularMatrix("matrix is numerically singular", float(abs(det)))
    return np.linalg.inv(m)


def expm(a, tau: float = 1.0, eig: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """e^{A tau}.

    With ``eig=(V, d)`` the exponential is taken through the supplied
    diagonalization A = V diag(d) V^{-1}; otherwise scaling-and-squaring with
    TAYLOR_TERMS Taylor terms is used (scaled until ||A tau / 2^s||_1 < 0.5).
    """
    m = as_square(a)
    if eig is not None:
        v, d = eig
        v = as_square(v, m.shape[0])
        d = np.asarray(d, dtype=float)
        return v @ np.diag(np.exp(d * tau)) @ inverse(v)
    return _expm_taylor(m * tau)


def _expm_taylor(b: np.ndarray) -> np.ndarray:
    norm1 = np.linalg.norm(b, 1)
    squarings = 0
    if norm1 >= 0.5:
        squarings = int(math.ceil(math.log2(norm1 / 0.5)))
        b = b / (2.0 ** squarings)
    n = b.shape[0]
    result = np.eye(n, dtype=b.dtype)
    term = np.eye(n, dtype=b.dtype)
    for k in range(1, TAYLOR_TERMS + 1):
        term = term @ b / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


def jacobi_eigh(a, tol: float = JACOBI_TOL, max_sweeps: int = JACOBI_MAX_SWEEPS):
    """Eigen-decomposition of a real symmetric matrix by cyclic Jacobi rotations.

    Returns ``(w, V)`` with ascending eigenvalues and orthonormal columns.
    Sweeps stop once the off-diagonal Frobenius norm falls below
    ``tol * max(1, ||A||_F)`` or after ``max_sweeps`` sweeps.  Each rotation
    R in the (p, q) plane updates only rows p and q of A (R^T A), then
    columns p and q (A R), and columns p and q of V (V R).
    """
    m = as_square(a)
    if np.iscomplexobj(m):
        raise ValueError("jacobi_eigh expects a real symmetric matrix")
    n = m.shape[0]
    sym_err = np.max(np.abs(m - m.T))
    if sym_err > 1e-10 * max(1.0, np.max(np.abs(m))):
        raise ValueError(f"matrix is not symmetric (max asymmetry {sym_err:.3e})")
    w = (m + m.T) / 2.0
    threshold = tol * max(1.0, np.linalg.norm(w, "fro"))
    w, v = w.tolist(), np.eye(n).tolist()  # float lists: cheaper than numpy at n <= 4
    off_diagonal = [(i, j) for i in range(n) for j in range(n) if i != j]
    for _ in range(max_sweeps):
        # off-diagonal norm taken entrywise; the sum-of-squares difference
        # cancels catastrophically for ill-conditioned input
        off = math.sqrt(sum(w[i][j] * w[i][j] for i, j in off_diagonal))
        if off < threshold:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = w[p][q]
                if apq == 0.0:
                    continue
                theta = (w[q][q] - w[p][p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                w[p], w[q] = ([c * x - s * y for x, y in zip(w[p], w[q])],
                              [s * x + c * y for x, y in zip(w[p], w[q])])
                for row in (*w, *v):
                    x, y = row[p], row[q]
                    row[p], row[q] = c * x - s * y, s * x + c * y
    eigenvalues = np.array([w[i][i] for i in range(n)])
    order = np.argsort(eigenvalues)
    return eigenvalues[order], np.array(v)[:, order]


def sqrtm_spd(a) -> np.ndarray:
    """Symmetric square root of a symmetric positive-definite matrix.

    Raises :class:`NotSPD` when the smallest Jacobi eigenvalue is not positive.
    """
    m = as_square(a)
    w, v = jacobi_eigh(m)
    if w[0] <= 0.0:
        raise NotSPD("matrix is not positive definite", float(w[0]))
    root = v @ np.diag(np.sqrt(w)) @ v.T
    return (root + root.T) / 2.0


def spectral_norm(a) -> float:
    """Largest singular value, via Jacobi eigenvalues of A^T A."""
    m = as_square(a)
    if np.iscomplexobj(m):
        raise ValueError("spectral_norm expects a real matrix")
    w, _ = jacobi_eigh(m.T @ m)
    return float(math.sqrt(max(w[-1], 0.0)))
