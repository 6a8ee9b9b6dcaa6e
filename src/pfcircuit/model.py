"""One parameter point and everything its intertwiner T determines.

The bases, the deformed pairs, the metric and the printed coefficient
displays all derive from T; :class:`Model` is the one place that builds T and
its deltas, and builds each derived object once, on first use.  Calls go
through the defining modules so that wrappers installed there (tracing, test
doubles) see them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import basis, dynamics, liouvillian, pfalgebra
from . import params as params_mod


@dataclass(frozen=True)
class Model:
    """Cached derived objects of one parameter set and gauge.

    ``dataclasses.replace(model, gauge=...)`` gives the same point in another gauge.
    """

    params: params_mod.CircuitParams
    gauge: pfalgebra.Gauge = pfalgebra.Gauge()

    @cached_property
    def derived(self) -> params_mod.DerivedParams:
        return params_mod.derive(self.params)

    @cached_property
    def regime(self) -> params_mod.RegimeReport:
        """The point's one :func:`params.validate` report, which ``spec`` reads too."""
        return params_mod.validate(self.derived)

    @cached_property
    def spec(self) -> liouvillian.Spectrum:
        return liouvillian.spectrum(self.derived, self.regime)

    @cached_property
    def generator(self) -> np.ndarray:
        return liouvillian.build_liouvillian(self.derived)

    @cached_property
    def intertwiner(self) -> tuple[np.ndarray, np.ndarray]:
        """``(T, deltas)`` from the one :func:`pfalgebra.build_T` call of this point."""
        return pfalgebra.build_T(self.spec, self.derived, self.gauge)

    @property
    def T(self) -> np.ndarray:
        return self.intertwiner[0]

    @property
    def deltas(self) -> np.ndarray:
        """(delta21, delta22, delta23, delta24), the first-row factors of T's columns."""
        return self.intertwiner[1]

    @property
    def scales(self) -> np.ndarray:
        """Column scales of T, which form its second row."""
        return self.T[1]

    @cached_property
    def pair(self) -> basis.BasisPair:
        """Both eigenfamilies, in closed form from T's columns; T is never inverted."""
        return basis.build_bases(self.T, self.spec, self.derived)

    @cached_property
    def pf(self) -> pfalgebra.PFSystem:
        return pfalgebra.build_pf(self.pair, self.spec)

    @cached_property
    def psi0(self) -> np.ndarray:
        return dynamics.initial_state(self.params.i1, self.params.C, self.derived.omega0)

    @cached_property
    def coeffs(self) -> np.ndarray:
        """Weights of psi0 over the phi family, in column order (0,0), (1,0), (0,1), (1,1)."""
        return basis.expand(self.pair, self.psi0)

    def evolve(self, tau) -> dynamics.Trajectory:
        """Closed-form trajectory on ``tau``, anchored at the initial state."""
        return dynamics.evolve_closed(self.coeffs, self.pair, self.spec, tau,
                                      self.params, self.derived, psi0=self.psi0)
