"""Dense linear-algebra kernel for the 4x4 (and 2x2) matrices used everywhere else.

Everything operates on plain numpy arrays in double precision, taken as
given: the parameters they are built from are checked where they enter the
package, and numpy raises on a wrong shape.  The matrix exponential is a
scaling-and-squaring truncated Taylor series that serves as a cross-check
oracle; the propagator itself is taken through the intertwiner as
T diag(e^{lambda tau}) T^{-1} in :mod:`pfcircuit.heisenberg`.  The symmetric
eigensolver is Jacobi's method, so that square roots and spectral norms do not
depend on the same LAPACK path the tests compare against.  Each sweep runs
round-robin rounds of rotations in disjoint planes (three rounds of two for a
4x4), each round one batched update of the rows and one of the columns over
the whole stack, and the sweeps stop once the off-diagonal norm is at most
JACOBI_TOL times ||A||_F, a threshold relative to the matrix.  The Jacobi
eigensolver, the spectral norm and the exponential each run one matrix and an
(m, n, n) stack through one body; the exponential also takes a stack of
times.  The square root takes a Jacobi decomposition that its caller holds,
so no metric is decomposed twice.  Probe vectors for the numerical checks
come from :func:`probes`, which reads the stdlib generator, so no command
loads ``numpy.random``.
"""

from __future__ import annotations

import functools
import math
import random

import numpy as np

from .errors import NotSPD, SeriesOverflow

__all__ = [
    "expm",
    "jacobi_eigh",
    "sqrtm_spd",
    "gram",
    "spectral_norm",
    "norms_from_gram",
    "relative_gap",
    "probes",
]

#: Taylor terms retained by the scaling-and-squaring series of :func:`expm`
TAYLOR_TERMS = 18

#: off-diagonal Frobenius target of the Jacobi sweeps, relative to ||A||_F
JACOBI_TOL = 1e-14
JACOBI_MAX_SWEEPS = 50
#: turns a round's (k, m) sines s into the (s, -s) of each rotation's two output rows
_SIGNS = np.array([[[1.0]], [[-1.0]]])


def expm(a, tau) -> np.ndarray:
    """e^{A tau} by scaling and squaring with TAYLOR_TERMS Taylor terms.

    Each member A tau is scaled by 2^-s until ||A tau / 2^s||_1 < 0.5, then
    squared s times, with its own s.  ``a`` may be an (m, n, n) stack and
    ``tau`` an array; they broadcast like A[..., :, :] * tau[..., None, None],
    so a length-k tau gives a (k, n, n) stack of exponentials in one series.
    A scalar tau and one matrix give one matrix through the same code.
    """
    b = a * np.asarray(tau, dtype=float)[..., None, None]
    norm1 = np.max(np.sum(np.abs(b), axis=-2), axis=-1)
    with np.errstate(divide="ignore"):  # log2(0) = -inf, and 0 squarings
        squarings = np.maximum(np.ceil(np.log2(norm1 / 0.5)), 0.0)
    b = b / (2.0 ** squarings)[..., None, None]
    result = term = np.broadcast_to(np.eye(b.shape[-1], dtype=b.dtype), b.shape)
    for k in range(1, TAYLOR_TERMS + 1):
        term = term @ b / k
        result = result + term
    for s in range(1, int(np.max(squarings, initial=0.0)) + 1):
        # only the members with s or more squarings: the others could overflow
        more = squarings >= s
        result[more] = result[more] @ result[more]
    return result


def jacobi_eigh(a):
    """Eigen-decomposition of a real symmetric matrix by Jacobi rotations in round-robin rounds.

    Returns ``(w, V)`` with ascending eigenvalues and orthonormal columns; an
    (m, n, n) stack gives (m, n) eigenvalues and (m, n, n) vectors.
    Sweeps stop once the off-diagonal Frobenius norm is at most
    JACOBI_TOL * ||A||_F or after JACOBI_MAX_SWEEPS sweeps; ||A||_F is taken
    scaled by the largest entry when its square overflows.  Each sweep runs
    the rounds of :func:`_rounds`, which rotate disjoint (p, q) planes: a
    round takes every angle from the matrix as the round found it, then
    updates the rows p and q of A (R^T A), then the columns p and q of A and
    V (A R, V R).  A complex matrix, or a member whose asymmetry exceeds
    1e-10 times its largest entry, is refused with ``ValueError``.
    """
    m = np.asarray(a)
    if np.iscomplexobj(m):
        raise ValueError(f"jacobi_eigh expects a real matrix, got {m.dtype}")
    m_t = np.swapaxes(m, -1, -2)
    sym_err = np.max(np.abs(m - m_t), axis=(-2, -1))
    if np.any(sym_err > 1e-10 * np.max(np.abs(m), axis=(-2, -1))):
        raise ValueError(f"matrix is not symmetric (max asymmetry {np.max(sym_err):.3e})")
    w, v = _jacobi_eigh_stack(((m + m_t) / 2.0).reshape(-1, *m.shape[-2:]))
    return (w, v) if m.ndim == 3 else (w[0], v[0])


@functools.cache
def _rounds(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """One Jacobi sweep over n indices as round-robin rounds of disjoint (p, q) pairs, p < q.

    The circle method (Brent and Luk, SIAM J. Sci. Stat. Comput. 6, 1985):
    index 0 stays put and meets the head of a ring of the other indices,
    which turns one place per round, while the rest of the ring pairs from
    its ends inwards; an odd n adds a bye index, whose pairs are dropped.
    For n = 4 the rounds are {(0,1), (2,3)}, {(0,2), (1,3)} and
    {(0,3), (1,2)}.  Each round is given as the (2, k) index array [p; q] of
    its k pairs, and as the (3, k) flat indices i * n + j of its
    (a_pq, a_pp, a_qq).
    """
    size = n + n % 2
    rounds = []
    for r in range(1, size):
        ring = [*range(r, size), *range(1, r)]
        pairs = [(0, ring[0]), *((ring[i], ring[-i]) for i in range(1, size // 2))]
        p, q = np.array(sorted(sorted(pair) for pair in pairs if max(pair) < n), dtype=np.intp).T
        rounds.append((np.stack([p, q]), np.stack([p * n + q, p * n + p, q * n + q])))
    return tuple(rounds)


# inf and nan propagate, as in float arithmetic; a zero pivot's angle divides
# by zero, and its rotation is discarded
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _jacobi_eigh_stack(w: np.ndarray):
    """The Jacobi sweeps of :func:`jacobi_eigh` on every member of a symmetric (m, n, n) stack.

    The members run together with the stack on the last axis, each through the
    same rounds and stopping rule, so a member's bits do not depend on the
    rest of the stack.  JACOBI_TOL and JACOBI_MAX_SWEEPS are read at each
    call.  A member leaves the live set once its off-diagonal norm passes the
    test.  A member whose pivot a_pq is exactly zero keeps its rows and
    columns p and q unchanged in that round: rotating it by c = 1, s = 0
    could flip the sign of a zero, or make inf * 0 a nan.
    """
    m, n, _ = w.shape
    flat = w.reshape(m, n * n)
    # the dot product np.linalg.norm(w_k, "fro") takes, one per member
    frobenius = np.sqrt(flat[:, None, :] @ flat[:, :, None])[:, 0, 0]
    overflowed = ~np.isfinite(frobenius)
    if overflowed.any():
        frobenius[overflowed] = _scaled_frobenius(flat[overflowed])
    threshold = JACOBI_TOL * frobenius
    # A stacked over V, member index last: a round's row update touches the
    # first n rows, and its column update both A and V at once
    av = np.empty((2 * n, n, m))
    av[:n] = w.transpose(1, 2, 0)
    av[n:] = np.eye(n)[:, :, None]
    # the flat indices i * n + j of the off-diagonal entries, row-major: the
    # order their squares are summed in
    off_diagonal = np.flatnonzero(~np.eye(n, dtype=bool))
    eigenvalues, vectors = np.empty((m, n)), np.empty((m, n, n))
    live = np.arange(m)

    def retire(members):
        eigenvalues[live[members]] = np.diagonal(av[:n, :, members])
        vectors[live[members]] = av[n:, :, members].transpose(2, 0, 1)

    for _ in range(JACOBI_MAX_SWEEPS):
        # off-diagonal norm taken entrywise, as ||A||_F^2 - sum a_ii^2 cancels
        # catastrophically for ill-conditioned input; the squares are added one
        # by one in a fixed order, as this test decides the number of sweeps and
        # so every bit of the result.  cumsum adds strictly left to right, where
        # np.sum may split a single member's squares into pairwise partial sums
        off = av[:n].reshape(n * n, live.size).take(off_diagonal, axis=0)
        done = np.sqrt(np.cumsum(off * off, axis=0)[-1]) <= threshold[live]
        if done.any():
            retire(done)
            av, live = av[:, :, ~done], live[~done]
            if live.size == 0:
                break
        entries = av.reshape(2 * n * n, live.size)  # a view whose row i * n + j holds a_ij
        for pairs, pivots in _rounds(n):
            a_pq, a_pp, a_qq = entries.take(pivots, axis=0)
            theta = (a_qq - a_pp) / (2.0 * a_pq)
            # the root of t^2 + 2 theta t - 1 of smaller magnitude, tan of the angle
            t = 1.0 / (theta + np.copysign(np.sqrt(theta * theta + 1.0), theta))
            c = 1.0 / np.sqrt(t * t + 1.0)
            # (x, y) <- (c x - s y, c y - (-s) x), which has the bits of
            # (c x - s y, s x + c y), for rows p and q of A, then for columns
            # p and q of A and V
            signed_s = _SIGNS * (t * c)
            held = None if a_pq.all() else a_pq == 0.0
            x = av.take(pairs, axis=0)
            rotated = c[:, None] * x - signed_s[:, :, None] * x[::-1]
            if held is not None:
                np.copyto(rotated, x, where=held[:, None])
            av[pairs] = rotated
            x = av.take(pairs, axis=1)
            rotated = c * x - signed_s * x[:, ::-1]
            if held is not None:
                np.copyto(rotated, x, where=held)
            av[:, pairs] = rotated
    else:
        retire(slice(None))  # members still live after JACOBI_MAX_SWEEPS
    order = np.argsort(eigenvalues, axis=-1)
    members = np.arange(m)[:, None]  # column j of a member's V is its vector order[j]
    return (eigenvalues[members, order],
            vectors[members[:, None], np.arange(n)[:, None], order[:, None]])


def _scaled_frobenius(flat: np.ndarray) -> np.ndarray:
    """s ||A/s||_F with s = max |a_ij|, for each row A of ``flat``.

    Jacobi's stopping threshold takes this when ||A||_F^2 overflows: an
    infinite threshold would pass the off-diagonal test before any rotation.
    """
    s = np.max(np.abs(flat), axis=1)
    scaled = flat / s[:, None]
    return s * np.sqrt(scaled[:, None, :] @ scaled[:, :, None])[:, 0, 0]


def sqrtm_spd(eigh: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Symmetric square root of a symmetric positive-definite matrix, from its
    :func:`jacobi_eigh` decomposition ``(w, V)``.

    Raises :class:`NotSPD` when the smallest Jacobi eigenvalue is not positive.
    """
    w, v = eigh
    if w[0] <= 0.0:
        raise NotSPD("matrix is not positive definite", float(w[0]))
    root = v @ np.diag(np.sqrt(w)) @ v.T
    return (root + root.T) / 2.0


def gram(a):
    """A^T A for one matrix or an (m, n, n) stack, as :func:`spectral_norm` decomposes it.

    Input that is not finite, or whose A^T A leaves the double range, is
    refused with :class:`SeriesOverflow`.
    """
    m = np.asarray(a)
    with np.errstate(over="ignore", invalid="ignore"):
        ata = np.swapaxes(m, -1, -2) @ m
    if not (np.isfinite(m).all() and np.isfinite(ata).all()):
        raise SeriesOverflow(
            "spectral-norm overflow: a stack member or its A^T A is not finite")
    return ata


def spectral_norm(a):
    """Largest singular value, via Jacobi eigenvalues of A^T A.

    One matrix gives a float and an (m, n, n) stack an array of m norms, from
    one Jacobi run.  Input that :func:`gram` refuses raises
    :class:`SeriesOverflow`, and a complex one is refused by :func:`jacobi_eigh`.
    """
    norms = norms_from_gram(jacobi_eigh(gram(a))[0])
    return norms if norms.ndim else float(norms)


def norms_from_gram(w):
    """The spectral norms sqrt(max(w_max, 0)) from the ascending eigenvalues ``w`` of A^T A."""
    return np.sqrt(np.maximum(w[..., -1], 0.0))


def relative_gap(a, b, *scales):
    """|a - b| / max(|a|, |b|, *scales, 1e-300), elementwise; 0-d operands give
    a numpy scalar.  The denominator is built in place, so that few
    temporaries of large stacks are alive at once."""
    scale = np.abs(a, out=np.empty(np.shape(a)))
    for floor in (np.abs(b), *scales, 1e-300):
        np.maximum(scale, floor, out=scale)
    gap = np.abs(a - b)
    gap /= scale
    return gap


def probes(seed: int, shape: tuple[int, ...]) -> np.ndarray:
    """Deterministic probe values, uniform on [-1, 1), in an array of ``shape``.

    Each value takes the top 53 bits of one little-endian 64-bit word of
    ``random.Random(seed).randbytes``.  The integer-to-float arithmetic is
    exact, so the bits follow the seed alone and not numpy's SIMD paths.
    """
    n = math.prod(shape)
    words = np.frombuffer(random.Random(seed).randbytes(8 * n), "<u8")
    return ((words >> 11) * 2.0 ** -52 - 1.0).reshape(shape)
