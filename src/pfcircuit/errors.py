"""Exception types shared across the package."""

import numpy as np


class NonPositiveParameter(ValueError):
    """A physical parameter that must be strictly positive is not."""


class CouplingOutOfRange(ValueError):
    """|M| >= L, so the coupling ratio mu has magnitude >= 1."""


class DampingOutOfRange(ValueError):
    """gamma = sqrt(L/C)/R is so large that gamma^4 leaves the double range."""


class RateOutOfRange(ValueError):
    """omega0 = 1/sqrt(LC) or omega_p = 1/(RC) is zero or not a finite double."""


class SingularMatrix(ValueError):
    """Matrix failed the scaled regularity test before inversion."""

    def __init__(self, message: str, determinant: float):
        super().__init__(f"{message} (det={determinant:.6e})")
        self.determinant = determinant


class NotSPD(ValueError):
    """Matrix is not symmetric positive definite."""

    def __init__(self, message: str, eigenvalue: float):
        super().__init__(f"{message} (offending eigenvalue {eigenvalue:.6e})")
        self.eigenvalue = eigenvalue


class SeriesOverflow(ValueError):
    """A computed series left the double range (inf/nan) on the requested time grid."""

    @classmethod
    def check(cls, tau_max: float, *series) -> None:
        """Raise unless every entry of every series is finite."""
        if not all(np.isfinite(s).all() for s in series):
            raise cls(f"series overflow to inf/nan on tau in [0, {tau_max}]")


class ReconstructionFailure(ValueError):
    """lambda1 N1 + lambda2 N2 + l3 I misses the assembled generator by more than 1e-9."""


class RegimeRejected(ValueError):
    """Parameters fall outside the real-spectrum regime."""


class NearDegenerate(ValueError):
    """Eigenvalues too close together; the intertwiner would be ill-conditioned."""


class ZeroCoupling(ValueError):
    """mu = 0: the intertwiner construction divides by 2*alpha*mu."""


class GaugeDegenerate(ValueError):
    """A free column scale of the intertwiner is zero."""


class ZeroSigma(ValueError):
    """The printed coefficient denominator sigma evaluates to zero."""


class GridEmpty(ValueError):
    """An evolution was requested on an empty time grid."""
