"""Circuit parameters, derived dimensionless quantities, and regime validation.

Physical conventions
--------------------
The circuit consists of two RLC sub-circuits coupled by a mutual inductance M,
one with positive and one with negative effective resistance.  Raw parameters
are (L, C, R, M) plus the initial current i1 in the first sub-circuit.  All
dynamics run in the dimensionless time tau = omega0 * t with

    omega0 = 1/sqrt(LC),  mu = M/L,  gamma = (1/R) sqrt(L/C),
    alpha = 1/(1 - mu^2), omega_p = 1/(RC) = gamma * omega0.

The default working configuration is the normalized one, L = C = 1, R = 1/gamma,
M = mu, where tau coincides with t.

Spectral regime
---------------
The four-dimensional first-order system has an all-real, non-degenerate
spectrum exactly when

    rho = gamma^4 + 4 alpha^2 mu^2 - 4 alpha gamma^2 > 0,
    gamma^2 - 2 alpha > 0,   mu^2 < 1,

all strict.  mu = 0 additionally decouples the two sub-circuits and makes the
intertwiner construction singular, so it is tracked as its own flag: spectra
may be computed at mu = 0, operator systems may not.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import CouplingOutOfRange, NonPositiveParameter

__all__ = [
    "CircuitParams",
    "DerivedParams",
    "RegimeReport",
    "derive",
    "normalized",
    "validate",
]

#: |rho| below this width raises the near-degeneracy warning flag
NEAR_DEGENERATE_BAND = 1e-9


@dataclass(frozen=True)
class CircuitParams:
    """Raw circuit parameters in SI units.

    Invariants (enforced at construction): L, C, R strictly positive and
    |M| < L so that the coupling ratio satisfies mu^2 < 1.
    """

    L: float
    """Self-inductance of each sub-circuit (henry, > 0)."""

    C: float
    """Capacitance of each sub-circuit (farad, > 0)."""

    R: float
    """Resistance magnitude; gain side is -R, loss side +R (ohm, > 0)."""

    M: float
    """Mutual inductance between the two sub-circuits (henry, |M| < L)."""

    i1: float = 0.0
    """Initial current in the first sub-circuit (ampere)."""

    def __post_init__(self) -> None:
        for name in ("L", "C", "R"):
            value = getattr(self, name)
            if not (value > 0.0) or not math.isfinite(value):
                raise NonPositiveParameter(f"{name} must be > 0, got {value}")
        if not math.isfinite(self.M) or abs(self.M) >= self.L:
            raise CouplingOutOfRange(
                f"|M| must be < L for mu^2 < 1, got M={self.M}, L={self.L}"
            )
        if not math.isfinite(self.i1):
            raise NonPositiveParameter(f"i1 must be finite, got {self.i1}")


@dataclass(frozen=True)
class DerivedParams:
    """Dimensionless parameters and rates derived from :class:`CircuitParams`."""

    mu: float
    """Coupling ratio M/L."""

    gamma: float
    """Damping ratio (1/R) sqrt(L/C)."""

    alpha: float
    """1/(1 - mu^2)."""

    omega0: float
    """Natural frequency 1/sqrt(LC) (rad/s)."""

    omega_p: float
    """Damping rate 1/(RC) (rad/s); equals gamma * omega0."""


def derive(params: CircuitParams) -> DerivedParams:
    """Compute the dimensionless parameter set from raw circuit values."""
    mu = params.M / params.L
    gamma = math.sqrt(params.L / params.C) / params.R
    alpha = 1.0 / (1.0 - mu * mu)
    omega0 = 1.0 / math.sqrt(params.L * params.C)
    omega_p = 1.0 / (params.R * params.C)
    return DerivedParams(mu=mu, gamma=gamma, alpha=alpha, omega0=omega0, omega_p=omega_p)


def normalized(mu: float, gamma: float, i1: float = 0.0) -> CircuitParams:
    """The normalized configuration L = C = 1, R = 1/gamma, M = mu.

    In these units omega0 = 1 and tau coincides with t, which is the
    convention every closed-form expression in this package is written in.
    """
    if gamma <= 0.0:
        raise NonPositiveParameter(f"gamma must be > 0, got {gamma}")
    return CircuitParams(L=1.0, C=1.0, R=1.0 / gamma, M=mu, i1=i1)


@dataclass(frozen=True)
class RegimeReport:
    """Outcome of the spectral-regime validation.

    ``accepted`` requires all four strict conditions, including nonzero
    coupling; ``spectrally_valid`` drops the coupling condition and is what
    spectrum computation needs (mu = 0 merely decouples the sub-circuits).
    """

    rho: float
    condition_rho_positive: bool
    condition_gamma_sq_gt_2alpha: bool
    condition_mu_sq_lt_1: bool
    coupling_nonzero: bool
    accepted: bool
    near_degenerate_warning: bool = False

    @property
    def spectrally_valid(self) -> bool:
        return (
            self.condition_rho_positive
            and self.condition_gamma_sq_gt_2alpha
            and self.condition_mu_sq_lt_1
        )

    def to_dict(self) -> dict:
        return asdict(self)


def validate(derived: DerivedParams) -> RegimeReport:
    """Evaluate the regime conditions with exact floating-point sign tests.

    Never raises: every outcome, including nonfinite intermediate values for
    pathological inputs, is reported as a set of booleans.
    """
    mu, gamma, alpha = derived.mu, derived.gamma, derived.alpha
    rho = gamma**4 + 4.0 * alpha**2 * mu**2 - 4.0 * alpha * gamma**2
    cond_rho = rho > 0.0
    cond_gamma = gamma * gamma - 2.0 * alpha > 0.0
    cond_mu = mu * mu < 1.0
    coupling = mu != 0.0
    accepted = cond_rho and cond_gamma and cond_mu and coupling
    # l1, l2 real and nonzero needs rho < (gamma^2 - 2 alpha)^2.  That is
    # algebraically equivalent to alpha^2 (1 - mu^2) > 0, always true when
    # mu^2 < 1, but at extreme parameters the two float values can collide;
    # the collision means l1 and l2 have cancelled to the working precision,
    # which is exactly the near-degenerate situation.
    separation_lost = accepted and not (rho < (gamma * gamma - 2.0 * alpha) ** 2)
    return RegimeReport(
        rho=rho,
        condition_rho_positive=cond_rho,
        condition_gamma_sq_gt_2alpha=cond_gamma,
        condition_mu_sq_lt_1=cond_mu,
        coupling_nonzero=coupling,
        accepted=accepted,
        near_degenerate_warning=bool(abs(rho) < NEAR_DEGENERATE_BAND or separation_lost),
    )
