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
N2^+ factor through N1 is evaluated in a reported-only channel.
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


@dataclass(frozen=True)
class ObservableTrajectory:
    """Sampled operator evolution with its spectral-norm series."""

    tau: np.ndarray
    X: np.ndarray
    """Shape (n, 4, 4)."""
    norms: np.ndarray


def shifted_propagator(pf: PFSystem, spec: Spectrum, tau) -> np.ndarray:
    """e^{(L - l3 I) tau} = T diag(e^{lambda tau}) T^{-1}; (n, 4, 4) for a length-n tau array."""
    return np.einsum("ij,...j,jk->...ik", pf.T,
                     np.exp(np.multiply.outer(tau, spec.shifted_eigenvalues)), pf.T_inv)


def evolve_observable(
    X0: np.ndarray, pf: PFSystem, spec: Spectrum, tau_grid
) -> ObservableTrajectory:
    """X(tau) = e^{2 l3 tau} e^{Lt^+ tau} X(0) e^{Lt tau} on the sample grid; X(0) at tau = 0.

    Raises :class:`SeriesOverflow` when X(tau) or its norm leaves the double range.
    """
    X0 = linalg.as_square(X0, 4)
    tau = np.asarray(tau_grid, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        e = shifted_propagator(pf, spec, tau)
        out = np.exp(2.0 * spec.l3 * tau)[:, None, None] * (e.transpose(0, 2, 1) @ X0 @ e)
    out[tau == 0.0] = X0
    return ObservableTrajectory(tau=tau, X=out, norms=linalg.spectral_norm(out))


def _expansion_factor(n_op: np.ndarray, rate: float, tau) -> np.ndarray:
    """I + (e^{rate tau} - 1) N, stacked along the leading axis for a tau array."""
    return np.eye(4) + np.multiply.outer(np.exp(rate * tau) - 1.0, n_op)


@dataclass(frozen=True)
class NumberEvolution:
    """Number-operator evolution along both computation paths."""

    generic: ObservableTrajectory
    closed: np.ndarray
    """Shape (n, 4, 4): the expansion closed form on the generic trajectory's grid."""
    max_relative_deviation: float
    printed_order_max_relative_deviation: float


def number_evolution(
    j: int, pf: PFSystem, spec: Spectrum, tau_grid
) -> NumberEvolution:
    """Evolve N_j by the generic sandwich and by the expansion closed form.

    The closed form applies e^{x N} = I + (e^x - 1) N factor by factor in
    sandwich order, which validates the expansion itself (it rests on the
    idempotence of N_j).  The printed variant that commutes the opposite
    adjoint factor through N_j is also evaluated; its deviation is reported,
    not asserted, since that reordering is invalid for non-orthogonal T.
    """
    if j not in (1, 2):
        raise ValueError(f"pair index must be 1 or 2, got {j}")
    n_own = pf.N1 if j == 1 else pf.N2
    n_other = pf.N2 if j == 1 else pf.N1
    lam_own = spec.lambda1 if j == 1 else spec.lambda2
    lam_other = spec.lambda2 if j == 1 else spec.lambda1
    generic = evolve_observable(n_own, pf, spec, tau_grid)
    tau = generic.tau
    prefactor = np.exp((2.0 * spec.l3 + lam_own) * tau)[:, None, None]
    own_adj = _expansion_factor(n_own.T, lam_own, tau)
    other_adj = _expansion_factor(n_other.T, lam_other, tau)
    other = _expansion_factor(n_other, lam_other, tau)
    closed = prefactor * (other_adj @ own_adj @ n_own @ other)
    grow = (np.exp(lam_other * tau) - 1.0)[:, None, None]
    printed = prefactor * (own_adj @ n_own @ (
        np.eye(4) + grow * (n_other + n_other.T) + grow**2 * (n_other.T @ n_other)))
    scale = np.maximum(np.linalg.norm(generic.X, axis=(1, 2)), 1e-300)
    dev_closed = np.max(np.linalg.norm(closed - generic.X, axis=(1, 2)) / scale)
    dev_printed = np.max(np.linalg.norm(printed - generic.X, axis=(1, 2)) / scale)
    return NumberEvolution(
        generic=generic,
        closed=closed,
        max_relative_deviation=float(dev_closed),
        printed_order_max_relative_deviation=float(dev_printed),
    )


@dataclass(frozen=True)
class GrowthBoundReport:
    """Measured growth of the evolved number operators against e^{-2 l3 tau}.

    ``bound_constant_j`` is the grid supremum of ||N_j(tau)|| e^{2 l3 tau}
    normalized by ||N_j(0)||; finiteness is the substantive claim.  The
    premise flags record whether ||N_j(0)|| = 1, which holds for orthogonal
    projections but generally fails here, so it is reported rather than
    assumed.
    """

    norm_n1_initial: float
    norm_n2_initial: float
    bound_constant_1: float
    bound_constant_2: float
    premise_norm_one_1: bool
    premise_norm_one_2: bool
    ratios: np.ndarray
    """Shape (n, 2): ||N_j(tau)|| e^{2 l3 tau} per sample."""

    def to_dict(self) -> dict:
        return {
            "norm_N1_initial": self.norm_n1_initial,
            "norm_N2_initial": self.norm_n2_initial,
            "bound_constant_1": self.bound_constant_1,
            "bound_constant_2": self.bound_constant_2,
            "premise_norm_one_1": self.premise_norm_one_1,
            "premise_norm_one_2": self.premise_norm_one_2,
        }


def growth_bound_report(
    trajs: tuple[ObservableTrajectory, ObservableTrajectory], spec: Spectrum
) -> GrowthBoundReport:
    """Compute the scaled norm ratios r_j(tau) = ||N_j(tau)|| e^{2 l3 tau}."""
    t1, t2 = trajs
    decay = np.exp(2.0 * spec.l3 * t1.tau)
    ratios = np.column_stack([t1.norms * decay, t2.norms * decay])
    n1_0, n2_0 = float(t1.norms[0]), float(t2.norms[0])
    return GrowthBoundReport(
        norm_n1_initial=n1_0,
        norm_n2_initial=n2_0,
        bound_constant_1=float(np.max(ratios[:, 0]) / n1_0),
        bound_constant_2=float(np.max(ratios[:, 1]) / n2_0),
        premise_norm_one_1=bool(abs(n1_0 - 1.0) <= 1e-9),
        premise_norm_one_2=bool(abs(n2_0 - 1.0) <= 1e-9),
        ratios=ratios,
    )


def product_formula_residual(pf: PFSystem, spec: Spectrum, tau: float) -> float:
    """Relative deviation of e^{Lt tau} from its two-factor expansion product."""
    e = shifted_propagator(pf, spec, tau)
    prod = _expansion_factor(pf.N1, spec.lambda1, tau) @ _expansion_factor(
        pf.N2, spec.lambda2, tau
    )
    return float(np.linalg.norm(e - prod, "fro") / max(np.linalg.norm(e, "fro"), 1e-300))


def expectation_consistency_residual(
    X0: np.ndarray,
    state0: np.ndarray,
    pf: PFSystem,
    spec: Spectrum,
    tau: float,
) -> float:
    """Relative gap between <state(tau), X0 state(tau)> and <state0, X(tau) state0>.

    state(tau) = e^{L tau} state0 with the generator reconstructed from the
    operator system; equality is the defining property of this Heisenberg
    picture.
    """
    X0 = linalg.as_square(X0, 4)
    state0 = linalg.as_vector(state0)
    e_shift = shifted_propagator(pf, spec, tau)
    propagator = np.exp(spec.l3 * tau) * e_shift
    state_t = propagator @ state0
    lhs = float(state_t @ (X0 @ state_t))
    x_t = np.exp(2.0 * spec.l3 * tau) * (e_shift.T @ X0 @ e_shift)
    rhs = float(state0 @ (x_t @ state0))
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


def effective_hamiltonian_route_residual(
    liouvillian: np.ndarray, X0: np.ndarray, tau: float
) -> float:
    """Cross-check the H = i*L convention against the real-generator route.

    Computes e^{i H^+ tau} X0 e^{-i H tau} with the complex Taylor exponential
    and compares against e^{L^+ tau} X0 e^{L tau}; agreement pins down the
    sign/convention once and for all.
    """
    m = linalg.as_square(liouvillian, 4)
    X0 = linalg.as_square(X0, 4)
    h = 1j * m
    left = linalg.expm(1j * h.conj().T, tau) @ X0.astype(complex) @ linalg.expm(-1j * h, tau)
    right = linalg.expm(m.T, tau) @ X0 @ linalg.expm(m, tau)
    return float(
        np.linalg.norm(left - right, "fro") / max(np.linalg.norm(right, "fro"), 1e-300)
    )
