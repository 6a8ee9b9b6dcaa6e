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

from .errors import RegimeRejected
from .params import DerivedParams, RegimeReport

__all__ = [
    "Spectrum",
    "build_liouvillian",
    "spectrum",
]


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


def build_liouvillian(derived: DerivedParams) -> np.ndarray:
    """Assemble the generator matrix at any parameter point.

    mu = 0 is allowed (decoupled sub-circuits).  The regime is checked only by
    :func:`spectrum`, which raises :class:`RegimeRejected` outside it.
    """
    a, m, g = derived.alpha, derived.mu, derived.gamma
    return np.array([
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [-a, a * m, g, 0.0],
        [a * m, -a, 0.0, -g],
    ])


def spectrum(derived: DerivedParams, report: RegimeReport) -> Spectrum:
    """Closed-form spectrum in the accepted regime, with no cancelling subtraction.

    l4^2 = (gamma^2 - 2 alpha + sqrt(rho))/2 adds positive terms, and l2 comes
    from l2 * l4 = sqrt(alpha): l2^2 and l4^2 are the roots of the quartic in
    l^2, whose constant term is alpha^2 (1 - mu^2) = alpha.  ``report`` is
    :func:`params.validate`'s report of ``derived``, which supplies rho.
    Raises :class:`RegimeRejected` outside the strict regime; close pairs are
    judged by kappa(T) in :mod:`basis`.
    """
    if not report.spectrally_valid:
        raise RegimeRejected(
            f"spectral regime rejected for mu={derived.mu}, gamma={derived.gamma}: "
            f"rho={report.rho}"
        )
    l4 = math.sqrt((derived.gamma**2 - 2.0 * derived.alpha + math.sqrt(report.rho)) / 2.0)
    l2 = math.sqrt(derived.alpha) / l4
    l1, l3 = -l2, -l4
    return Spectrum(
        l1=l1, l2=l2, l3=l3, l4=l4,
        lambda0=0.0, lambda1=l1 - l3, lambda2=l2 - l3, lambda3=l4 - l3,
        rho=report.rho,
    )

