"""Exception types shared across the package."""


class NonPositiveParameter(ValueError):
    """A physical parameter that must be strictly positive is not."""


class CouplingOutOfRange(ValueError):
    """|M| >= L, so the coupling ratio mu has magnitude >= 1."""


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


class UnitMismatch(ValueError):
    """Strict mode requires normalized units L = C = 1."""
