"""Dense linear-algebra kernel for the 4x4 (and 2x2) matrices used everywhere else.

Everything operates on plain numpy arrays in double precision.  The matrix
exponential is a scaling-and-squaring truncated Taylor series that serves as a
cross-check oracle; the propagator itself is taken through the intertwiner as
T diag(e^{lambda tau}) T^{-1} in :mod:`pfcircuit.heisenberg`.  The symmetric
eigensolver is a cyclic Jacobi sweep so that square roots and spectral norms do
not depend on the same LAPACK path the tests compare against.  The Jacobi
eigensolver and the spectral norm also take an (m, n, n) stack, which they
solve in one pass with the stack on the last axis; each member gets bit for bit
what the single-matrix route gives it.  Probe vectors for the numerical checks
come from :func:`probes`, which reads the stdlib generator, so no command
loads ``numpy.random``.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .errors import NotSPD, SeriesOverflow, SingularMatrix

__all__ = [
    "as_square",
    "as_vector",
    "inverse",
    "expm",
    "jacobi_eigh",
    "sqrtm_spd",
    "spectral_norm",
    "probes",
]

#: relative determinant threshold for the regularity test in :func:`inverse`
SINGULARITY_RTOL = 1e-12

#: Taylor terms retained by the scaling-and-squaring series of :func:`expm`
TAYLOR_TERMS = 18

#: scaled off-diagonal Frobenius target for the cyclic Jacobi sweeps
JACOBI_TOL = 1e-14
JACOBI_MAX_SWEEPS = 50


def as_square(a, dim: int | None = None, stack: bool = False) -> np.ndarray:
    """Validate and return a square matrix with finite entries.

    With ``stack``, an (m, n, n) stack of square matrices is accepted as well.
    """
    m = np.asarray(a, dtype=complex if np.iscomplexobj(a) else float)
    if m.ndim not in ((2, 3) if stack else (2,)) or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if dim is not None and m.shape[-1] != dim:
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


def expm(a, tau: float = 1.0) -> np.ndarray:
    """e^{A tau} by scaling and squaring with TAYLOR_TERMS Taylor terms.

    A tau is scaled by 2^-s until ||A tau / 2^s||_1 < 0.5, then squared s times.
    """
    b = as_square(a) * tau
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

    Returns ``(w, V)`` with ascending eigenvalues and orthonormal columns; an
    (m, n, n) stack gives (m, n) eigenvalues and (m, n, n) vectors.
    Sweeps stop once the off-diagonal Frobenius norm falls below
    ``tol * max(1, ||A||_F)`` or after ``max_sweeps`` sweeps; ||A||_F is taken
    scaled by the largest entry when its square overflows.  Each rotation
    R in the (p, q) plane updates only rows p and q of A (R^T A), then
    columns p and q (A R), and columns p and q of V (V R).
    """
    m = as_square(a, stack=True)
    if np.iscomplexobj(m):
        raise ValueError("jacobi_eigh expects a real symmetric matrix")
    m_t = np.swapaxes(m, -1, -2)
    sym_err = np.max(np.abs(m - m_t), axis=(-2, -1))
    if np.any(sym_err > 1e-10 * np.maximum(1.0, np.max(np.abs(m), axis=(-2, -1)))):
        raise ValueError(f"matrix is not symmetric (max asymmetry {np.max(sym_err):.3e})")
    w = (m + m_t) / 2.0
    if w.ndim == 3:
        return _jacobi_eigh_stack(w, tol, max_sweeps)
    n = w.shape[0]
    with np.errstate(over="ignore"):
        frobenius = np.linalg.norm(w, "fro")
    if not math.isfinite(frobenius):
        frobenius = _scaled_frobenius(w.reshape(1, n * n))[0]
    threshold = tol * max(1.0, frobenius)
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


@np.errstate(over="ignore", invalid="ignore")  # as silent as float arithmetic on lists
def _jacobi_eigh_stack(w: np.ndarray, tol: float, max_sweeps: int):
    """The Jacobi sweeps of :func:`jacobi_eigh` on every member of a symmetric (m, n, n) stack.

    The members run together with the stack on the last axis, through the same
    pivot order, formulas and stopping rule as the list route, so each gets the
    same bits.  A member leaves the live set once its off-diagonal norm passes
    the test, and a rotation touches only the live members with a nonzero
    pivot: rotating the others by c = 1, s = 0 could flip the sign of a zero.
    """
    m, n, _ = w.shape
    flat = w.reshape(m, n * n)
    # the dot product np.linalg.norm(w_k, "fro") takes, one per member
    frobenius = np.sqrt(flat[:, None, :] @ flat[:, :, None])[:, 0, 0]
    overflowed = ~np.isfinite(frobenius)
    if overflowed.any():
        frobenius[overflowed] = _scaled_frobenius(flat[overflowed])
    threshold = tol * np.maximum(1.0, frobenius)
    # A stacked over V, member index last: a rotation's row update touches the
    # first n rows, and its column update both A and V at once
    av = np.concatenate([w, np.broadcast_to(np.eye(n), w.shape)], axis=1).transpose(1, 2, 0).copy()
    rows, cols = np.nonzero(~np.eye(n, dtype=bool))  # row-major, as the list route sums
    eigenvalues, vectors = np.empty((m, n)), np.empty((m, n, n))
    live = np.arange(m)

    def retire(members):
        eigenvalues[live[members]] = np.diagonal(av[:n, :, members])
        vectors[live[members]] = av[n:, :, members].transpose(2, 0, 1)

    for _ in range(max_sweeps):
        off = av[rows, cols]
        squares = off * off
        # builtin sum, as the list route adds its squares
        done = np.sqrt(list(map(sum, squares.T.tolist()))) < threshold[live]
        if done.any():
            retire(done)
            av, live = av[:, :, ~done], live[~done]
        if live.size == 0:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                pivot = av[p, q] != 0.0
                if pivot.all():
                    _rotate(av, p, q)
                elif pivot.any():
                    sub = av[:, :, pivot]
                    _rotate(sub, p, q)
                    av[:, :, pivot] = sub
    retire(slice(None))  # members still live after max_sweeps
    order = np.argsort(eigenvalues, axis=-1)
    return (np.take_along_axis(eigenvalues, order, axis=-1),
            np.take_along_axis(vectors, order[:, None, :], axis=-1))


def _scaled_frobenius(flat: np.ndarray) -> np.ndarray:
    """s ||A/s||_F with s = max |a_ij|, for each row A of ``flat``.

    Jacobi's stopping threshold takes this when ||A||_F^2 overflows: an
    infinite threshold would pass the off-diagonal test before any rotation.
    """
    s = np.max(np.abs(flat), axis=1)
    scaled = flat / s[:, None]
    return s * np.sqrt(scaled[:, None, :] @ scaled[:, :, None])[:, 0, 0]


def _rotate(av: np.ndarray, p: int, q: int) -> None:
    """One Jacobi rotation in the (p, q) plane of each member of ``av`` (A over V, members last)."""
    apq = av[p, q]
    theta = (av[q, q] - av[p, p]) / (2.0 * apq)
    t = np.copysign(1.0, theta) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
    c = 1.0 / np.sqrt(t * t + 1.0)
    s = t * c
    for x, y in ((av[p], av[q]), (av[:, p], av[:, q])):  # rows of A, then columns of A and V
        cx, sy, sx, cy = c * x, s * y, s * x, c * y
        np.subtract(cx, sy, out=x)
        np.add(sx, cy, out=y)


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


def spectral_norm(a):
    """Largest singular value, via Jacobi eigenvalues of A^T A.

    An (m, n, n) stack gives an array of m norms from one stacked Jacobi run;
    a stack that is not finite, or whose A^T A leaves the double range, is
    refused with :class:`SeriesOverflow`.
    """
    if np.iscomplexobj(a):
        raise ValueError("spectral_norm expects a real matrix")
    m = np.asarray(a, dtype=float)
    if m.ndim == 3:
        with np.errstate(over="ignore", invalid="ignore"):
            ata = np.swapaxes(m, 1, 2) @ m
        if not (np.isfinite(m).all() and np.isfinite(ata).all()):
            raise SeriesOverflow(
                "spectral-norm overflow: a stack member or its A^T A is not finite")
        w, _ = jacobi_eigh(ata)
        return np.sqrt(np.maximum(w[:, -1], 0.0))
    m = as_square(m)
    w, _ = jacobi_eigh(m.T @ m)
    return float(math.sqrt(max(w[-1], 0.0)))


def probes(seed: int, shape: tuple[int, ...]) -> np.ndarray:
    """Deterministic probe values, uniform on [-1, 1), in an array of ``shape``.

    Each value takes the top 53 bits of one little-endian 64-bit word of
    ``random.Random(seed).randbytes``.  The integer-to-float arithmetic is
    exact, so the bits follow the seed alone and not numpy's SIMD paths.
    """
    n = math.prod(shape)
    words = np.frombuffer(random.Random(seed).randbytes(8 * n), "<u8")
    return ((words >> 11) * 2.0 ** -52 - 1.0).reshape(shape)
