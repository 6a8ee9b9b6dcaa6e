"""Heisenberg-like evolution of observables under the non-self-adjoint generator.

For a generator that is not self-adjoint the representation-independent choice
is X(tau) = e^{L^+ tau} X(0) e^{L tau}, which factors through the shifted
generator as e^{2 l3 tau} e^{Lt^+ tau} X(0) e^{Lt tau}.  Because the shifted
generator is lambda1 N1 + lambda2 N2 with commuting idempotent factors, its
exponential collapses to the finite product

    e^{Lt tau} = (I + (e^{lambda1 tau} - 1) N1)(I + (e^{lambda2 tau} - 1) N2),

and the number-operator evolutions have closed forms built from the same
expansion.  Note the adjoint factors do NOT commute with the opposite-pair
number operators ([N2^+, N1] != 0 for non-orthogonal intertwiners), so the
factors must be kept in sandwich order; the printed form that slides the
N2^+ factor through N1 is evaluated in a reported-only channel.  The
spectrum of L is read from the operator system (``pf.spectrum``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .liouvillian import Spectrum
from .pfalgebra import PFSystem

__all__ = [
    "ObservableTrajectory",
    "NumberEvolution",
    "GrowthBoundReport",
    "evolve_observable",
    "number_evolution",
    "growth_bound_report",
    "shifted_propagator",
    "product_formula_residual",
    "expectation_consistency_residual",
    "effective_hamiltonian_route_residual",
]

#: end of the tau grid on which verify and the heisenberg command evolve
#: observables (the command stops at tau_max when that is earlier)
TAU_END = 3.0


@dataclass(frozen=True)
class ObservableTrajectory:
    """Sampled operator evolution with its spectral-norm series."""

    tau: np.ndarray
    X: np.ndarray
    """Shape (n, 4, 4), or (k, n, 4, 4) for a stack of k observables."""
    norms: np.ndarray


def shifted_propagator(pf: PFSystem, tau) -> np.ndarray:
    """e^{(L - l3 I) tau} = T diag(e^{lambda tau}) T^{-1}; (n, 4, 4) for a length-n tau array."""
    return np.einsum("ij,...j,jk->...ik", pf.T,
                     np.exp(np.multiply.outer(tau, pf.spectrum.shifted_eigenvalues)), pf.T_inv)


def evolve_observable(X0: np.ndarray, pf: PFSystem, tau_grid) -> ObservableTrajectory:
    """X(tau) = e^{2 l3 tau} e^{Lt^+ tau} X(0) e^{Lt tau} on the sample grid; X(0) at tau = 0.

    A (k, 4, 4) stack of observables goes through one propagator stack and one
    stacked spectral-norm call, giving X of shape (k, n, 4, 4) and norms of
    shape (k, n); a single 4x4 observable gives (n, 4, 4) and (n,).
    Raises :class:`SeriesOverflow` when X(tau) or its norm leaves the double range.
    """
    X0 = X0[..., None, :, :]
    tau = np.asarray(tau_grid, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        e = shifted_propagator(pf, tau)
        out = np.exp(2.0 * pf.spectrum.l3 * tau)[:, None, None] * (e.transpose(0, 2, 1) @ X0 @ e)
    out[..., tau == 0.0, :, :] = X0
    norms = linalg.spectral_norm(out.reshape(-1, 4, 4)).reshape(out.shape[:-2])
    return ObservableTrajectory(tau=tau, X=out, norms=norms)


def _expansion_factors(pf: PFSystem, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E_j = I + (e^{lambda_j tau} - 1) N_j for both modes on a 1-d tau grid.

    Returns the growths e^{lambda_j tau} - 1, shape (2, n, 1, 1), and the
    factors, shape (2, n, 4, 4), in mode order.
    """
    rates = np.array([pf.spectrum.lambda1, pf.spectrum.lambda2])
    grow = (np.exp(np.multiply.outer(rates, tau)) - 1.0)[..., None, None]
    return grow, np.eye(4) + grow * pf.N[:, None]


@dataclass(frozen=True)
class NumberEvolution:
    """N1 and N2 evolved along both computation paths; a leading axis of 2 is (N1, N2)."""

    generic: ObservableTrajectory
    """X of shape (2, n, 4, 4) and norms of shape (2, n)."""
    closed: np.ndarray
    """Shape (2, n, 4, 4): the expansion closed form on the generic trajectory's grid."""
    max_relative_deviation: tuple[float, float]
    printed_order_max_relative_deviation: tuple[float, float]


def number_evolution(pf: PFSystem, tau_grid) -> NumberEvolution:
    """Evolve N1 and N2 by the generic sandwich and by the expansion closed form.

    The closed form applies e^{x N} = I + (e^x - 1) N factor by factor in
    sandwich order, which validates the expansion itself (it rests on the
    idempotence of N_j).  The printed variant that commutes the opposite
    adjoint factor through N_j is also evaluated; its deviation is reported,
    not asserted, since that reordering is invalid for non-orthogonal T.
    Each expansion factor E_j = I + (e^{lambda_j tau} - 1) N_j is built once;
    the adjoint factor is its transpose, and the opposite operator's factor is
    the same stack reversed.
    """
    spec = pf.spectrum
    generic = evolve_observable(pf.N, pf, tau_grid)
    tau = generic.tau
    rates = np.array([spec.lambda1, spec.lambda2])
    prefactor = np.exp(np.multiply.outer(2.0 * spec.l3 + rates, tau))[..., None, None]
    grow, factor = _expansion_factors(pf, tau)
    factor_adj = factor.swapaxes(-1, -2)
    n_own, n_other = pf.N[:, None], pf.N[::-1, None]
    n_other_adj = n_other.swapaxes(-1, -2)
    closed = prefactor * (factor_adj[::-1] @ factor_adj @ n_own @ factor[::-1])
    printed = prefactor * (factor_adj @ n_own @ (
        np.eye(4) + grow[::-1] * (n_other + n_other_adj)
        + grow[::-1]**2 * (n_other_adj @ n_other)))
    scale = np.maximum(np.linalg.norm(generic.X, axis=(-2, -1)), 1e-300)
    dev_closed, dev_printed = (
        tuple(np.max(np.linalg.norm(path - generic.X, axis=(-2, -1)) / scale, axis=-1).tolist())
        for path in (closed, printed))
    return NumberEvolution(generic, closed, dev_closed, dev_printed)


@dataclass(frozen=True)
class GrowthBoundReport:
    """Measured growth of the evolved number operators against e^{-2 l3 tau}.

    Each pair holds (N1, N2).  ``bound_constant`` is the grid supremum of
    ||N_j(tau)|| e^{2 l3 tau} normalized by ||N_j(0)||; finiteness is the
    substantive claim.  The premise flags record whether ||N_j(0)|| = 1,
    which holds for orthogonal projections but generally fails here, so it
    is reported rather than assumed.
    """

    norm_initial: tuple[float, float]
    bound_constant: tuple[float, float]
    premise_norm_one: tuple[bool, bool]
    ratios: np.ndarray
    """Shape (2, n): ||N_j(tau)|| e^{2 l3 tau} per sample."""

    def to_dict(self) -> dict:
        return {key.format(j): value
                for key, pair in (("norm_N{}_initial", self.norm_initial),
                                  ("bound_constant_{}", self.bound_constant),
                                  ("premise_norm_one_{}", self.premise_norm_one))
                for j, value in enumerate(pair, 1)}


def growth_bound_report(evo: NumberEvolution, spec: Spectrum) -> GrowthBoundReport:
    """Compute the scaled norm ratios r_j(tau) = ||N_j(tau)|| e^{2 l3 tau}."""
    norms = evo.generic.norms
    ratios = norms * np.exp(2.0 * spec.l3 * evo.generic.tau)
    initial = tuple(norms[:, 0].tolist())
    return GrowthBoundReport(
        norm_initial=initial,
        bound_constant=tuple((np.max(ratios, axis=1) / norms[:, 0]).tolist()),
        premise_norm_one=tuple(abs(n - 1.0) <= 1e-9 for n in initial),
        ratios=ratios,
    )


def product_formula_residual(pf: PFSystem, tau):
    """Relative deviation of e^{Lt tau} from its two-factor expansion product.

    A tau array gives one residual per value, through one propagator stack.
    """
    tau = np.asarray(tau, dtype=float)
    e = shifted_propagator(pf, tau)
    _, (first, second) = _expansion_factors(pf, tau.reshape(-1))
    prod = (first @ second).reshape(e.shape)
    residual = np.linalg.norm(e - prod, axis=(-2, -1)) / np.maximum(
        np.linalg.norm(e, axis=(-2, -1)), 1e-300)
    return residual if residual.ndim else float(residual)


def expectation_consistency_residual(X0: np.ndarray, state0: np.ndarray, pf: PFSystem, tau):
    """Relative gap between <state(tau), X0 state(tau)> and <state0, X(tau) state0>.

    state(tau) = e^{L tau} state0 with the generator reconstructed from the
    operator system; equality is the defining property of this Heisenberg
    picture.  A (k, 4, 4) stack of X0, a (k, 4) stack of states and k values
    of tau give the k residuals as an array, through one propagator stack;
    one observable, one state and a scalar tau give a float.
    """
    state0 = state0[..., :, None]
    tau = np.asarray(tau, dtype=float)
    l3 = pf.spectrum.l3
    e_shift = shifted_propagator(pf, tau)
    propagator = np.exp(l3 * tau)[..., None, None] * e_shift
    state_t = propagator @ state0
    lhs = (state_t.swapaxes(-1, -2) @ (X0 @ state_t))[..., 0, 0]
    x_t = np.exp(2.0 * l3 * tau)[..., None, None] * (e_shift.swapaxes(-1, -2) @ X0 @ e_shift)
    rhs = (state0.swapaxes(-1, -2) @ (x_t @ state0))[..., 0, 0]
    residual = linalg.relative_gap(lhs, rhs)
    return residual if residual.ndim else float(residual)


def effective_hamiltonian_route_residual(
    liouvillian: np.ndarray, pf: PFSystem, X0: np.ndarray, tau: float
) -> float:
    """Cross-check the H = i*L convention against the operator system's propagator.

    Computes e^{i H^+ tau} X0 e^{-i H tau} with the complex Taylor exponential of
    the generator and compares it with E^+ X0 E, where E = e^{l3 tau} e^{Lt tau}
    is the closed-form propagator T diag(e^{lambda tau}) T^-1, scaled factor by
    factor.  A wrong sign or a missing conjugate shows as an O(1) gap, and so
    does a fault in T, T^-1 or the spectrum.
    """
    h = 1j * liouvillian
    e_left, e_right = linalg.expm(np.stack([1j * h.conj().T, -1j * h]), tau)
    e = np.exp(pf.spectrum.l3 * tau) * shifted_propagator(pf, tau)
    left = e_left @ X0 @ e_right
    right = e.T @ X0 @ e
    return float(
        np.linalg.norm(left - right, "fro") / max(np.linalg.norm(right, "fro"), 1e-300)
    )
