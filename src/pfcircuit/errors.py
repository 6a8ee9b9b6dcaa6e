"""Exception types shared across the package.

Every exception here is a refusal in exactly one of three categories, and
the command line maps the category, not the concrete class, to an exit code.
Inputs are checked where they enter, in the configuration and parameter
types, so no type here stands for a malformed array or time grid.
"""

import numpy as np


class NotACircuit(ValueError):
    """Parameters that make no circuit point: exit 2, or a sweep row of False conditions."""


class RegimeRefusal(ValueError):
    """A point outside the regime the model handles: exit 3, or blank asymptotic sweep cells."""


class NumericalRefusal(ValueError):
    """An accepted point at which a computation is refused by name: exit 3."""


class NonPositiveParameter(NotACircuit):
    """A physical parameter that must be strictly positive is not."""


class CouplingOutOfRange(NotACircuit):
    """|M| >= L, so the coupling ratio mu has magnitude >= 1."""


class DampingOutOfRange(NotACircuit):
    """gamma = sqrt(L/C)/R is so large that gamma^4 leaves the double range."""


class RateOutOfRange(NotACircuit):
    """omega0 = 1/sqrt(LC) or omega_p = 1/(RC) is zero or not a finite double."""


class IllConditioned(NumericalRefusal):
    """kappa(T) in the run's gauge is too large for the metric or for a kappa^2 check."""


class NotSPD(NumericalRefusal):
    """Matrix is not symmetric positive definite."""

    def __init__(self, message: str, eigenvalue: float):
        super().__init__(f"{message} (offending eigenvalue {eigenvalue:.6e})")
        self.eigenvalue = eigenvalue


class SeriesOverflow(NumericalRefusal):
    """A computed series left the double range (inf/nan) on the requested time grid."""

    @classmethod
    def check(cls, tau_max: float, *series) -> None:
        """Raise unless every entry of every series is finite."""
        if not all(np.isfinite(s).all() for s in series):
            raise cls(f"series overflow to inf/nan on tau in [0, {tau_max}]")


class ReconstructionFailure(NumericalRefusal):
    """lambda1 N1 + lambda2 N2 + l3 I misses the generator beyond its kappa^2 bound: a defect."""


class SlopeFitFailure(NumericalRefusal):
    """No window below the overflow horizon keeps the log-slopes of verify's fits within 1e-3."""


class RegimeRejected(RegimeRefusal):
    """Parameters fall outside the real-spectrum regime."""


class ZeroCoupling(RegimeRefusal):
    """mu = 0, or so small that the intertwiner's deltas, divided by alpha*mu, overflow."""


class GaugeDegenerate(RegimeRefusal):
    """A free column scale of the intertwiner is zero, or so large that ||T||_F^4 overflows."""

