"""The 4x4 generator of the first-order circuit dynamics and its closed-form spectrum.

The second-order equations for the two voltages are rewritten as a first-order
system Psi' = L Psi on the state vector Psi = (V1, V2, V1', V2')^T, with

        (   0       0      1    0 )
    L = (   0       0      0    1 )
        ( -alpha  alpha*mu gamma 0 )
        ( alpha*mu -alpha   0  -gamma )

In the accepted regime the four eigenvalues are real, distinct, and come in
sign pairs l2 = -l1, l4 = -l3 with l3 < l1 < 0 < l2 < l4.  The shifted
generator L - l3*I has eigenvalues 0 < lambda1 < lambda2 < lambda3 with
lambda3 = lambda1 + lambda2, which is the two-mode ladder structure the
operator construction rides on.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import NearDegenerate, RegimeRejected
from .params import DerivedParams, validate

__all__ = [
    "Spectrum",
    "build_liouvillian",
    "effective_hamiltonian",
    "shift",
    "spectrum",
    "characteristic_residual",
]

#: minimum eigenvalue pair gap, relative to l4, before NearDegenerate fires
DEGENERACY_RTOL = 1e-8


@dataclass(frozen=True)
class Spectrum:
    """Closed-form eigenvalues of the generator and of its shift."""

    l1: float
    l2: float
    l3: float
    l4: float
    lambda0: float
    lambda1: float
    lambda2: float
    lambda3: float
    rho: float

    @property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in intertwiner column order (l3, l1, l2, l4)."""
        return np.array([self.l3, self.l1, self.l2, self.l4])

    @property
    def shifted_eigenvalues(self) -> np.ndarray:
        """(0, lambda1, lambda2, lambda3), the diagonal of the reference generator."""
        return np.array([self.lambda0, self.lambda1, self.lambda2, self.lambda3])

    def to_dict(self) -> dict:
        return asdict(self)


def build_liouvillian(derived: DerivedParams, require_regime: bool = True) -> np.ndarray:
    """Assemble the generator matrix.

    mu = 0 is allowed (decoupled sub-circuits).  With ``require_regime`` the
    spectral conditions are checked and :class:`RegimeRejected` raised on
    failure; pass ``require_regime=False`` for exploratory use, in which case
    spectrum operations will refuse instead.
    """
    if require_regime:
        report = validate(derived)
        if not report.spectrally_valid:
            raise RegimeRejected(
                f"spectral regime rejected: rho={report.rho}, "
                f"gamma^2-2alpha>0 is {report.condition_gamma_sq_gt_2alpha}, "
                f"mu^2<1 is {report.condition_mu_sq_lt_1}"
            )
    a, m, g = derived.alpha, derived.mu, derived.gamma
    return np.array([
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [-a, a * m, g, 0.0],
        [a * m, -a, 0.0, -g],
    ])


def effective_hamiltonian(derived: DerivedParams) -> np.ndarray:
    """The complex matrix i*L, exposing the Schroedinger-like form i Psi' = H Psi.

    Provided for documentation parity only; all computation in this package
    uses the real generator.
    """
    return 1j * build_liouvillian(derived)


def shift(liouvillian: np.ndarray, spec: Spectrum) -> np.ndarray:
    """The shifted generator L - l3*I, whose spectrum starts at zero."""
    return np.asarray(liouvillian, dtype=float) - spec.l3 * np.eye(4)


def spectrum(derived: DerivedParams) -> Spectrum:
    """Closed-form spectrum in the accepted regime.

    Raises :class:`RegimeRejected` outside the strict regime and
    :class:`NearDegenerate` when eigenvalue pairs come closer than
    DEGENERACY_RTOL * l4 (the intertwiner would be ill-conditioned).
    """
    report = validate(derived)
    if not report.spectrally_valid:
        raise RegimeRejected(
            f"spectral regime rejected for mu={derived.mu}, gamma={derived.gamma}: "
            f"rho={report.rho}"
        )
    rho = report.rho
    sqrt_rho = math.sqrt(rho)
    base = derived.gamma**2 - 2.0 * derived.alpha
    inner = base - sqrt_rho
    if inner <= 0.0:
        # mathematically positive in-regime; a nonpositive float means the
        # subtraction cancelled catastrophically
        raise NearDegenerate(
            f"gamma^2 - 2*alpha - sqrt(rho) = {inner} lost all precision"
        )
    l1 = -math.sqrt(inner / 2.0)
    l2 = -l1
    l3 = -math.sqrt((base + sqrt_rho) / 2.0)
    l4 = -l3
    values = sorted([l1, l2, l3, l4])
    min_gap = min(b - a for a, b in zip(values, values[1:]))
    if min_gap < DEGENERACY_RTOL * l4:
        raise NearDegenerate(
            f"minimum eigenvalue gap {min_gap:.3e} below {DEGENERACY_RTOL:g}*l4"
        )
    return Spectrum(
        l1=l1, l2=l2, l3=l3, l4=l4,
        lambda0=0.0, lambda1=l1 - l3, lambda2=l2 - l3, lambda3=l4 - l3,
        rho=rho,
    )


def characteristic_residual(spec: Spectrum, derived: DerivedParams) -> np.ndarray:
    """|l^4 + (2 alpha - gamma^2) l^2 + alpha^2 (1 - mu^2)| for each eigenvalue.

    Ties the closed-form spectrum to the quartic characteristic polynomial of
    the generator (the same quartic each voltage satisfies as a scalar ODE).
    """
    a, g, m = derived.alpha, derived.gamma, derived.mu
    ls = np.array([spec.l1, spec.l2, spec.l3, spec.l4])
    return np.abs(ls**4 + (2.0 * a - g * g) * ls**2 + a * a * (1.0 - m * m))
