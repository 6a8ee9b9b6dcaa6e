"""One parameter point and everything its intertwiner T determines.

The bases, the deformed pairs and the metric all derive from T; :class:`Model`
builds each once, on first use.  Calls go through the defining modules so
that wrappers installed there (tracing, test doubles) see them.
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
    def spec(self) -> liouvillian.Spectrum:
        return liouvillian.spectrum(self.derived)

    @cached_property
    def generator(self) -> np.ndarray:
        return liouvillian.build_liouvillian(self.derived)

    @cached_property
    def T(self) -> np.ndarray:
        return pfalgebra.build_T(self.spec, self.derived, self.gauge)[0]

    @cached_property
    def pair(self) -> basis.BasisPair:
        return basis.build_bases(self.T, self.spec)

    @cached_property
    def pf(self) -> pfalgebra.PFSystem:
        return pfalgebra.build_pf(self.T, self.spec, liouvillian=self.generator)

    @cached_property
    def psi0(self) -> np.ndarray:
        return dynamics.initial_state(self.params.i1, self.params.C, self.derived.omega0)

    @cached_property
    def coeffs(self) -> dynamics.Coefficients:
        return dynamics.coefficients(self.psi0, self.pair)

    def evolve(self, tau) -> dynamics.Trajectory:
        """Closed-form trajectory on ``tau``, anchored at the initial state."""
        return dynamics.evolve_closed(self.coeffs, self.pair, self.spec, tau,
                                      self.params, self.derived, psi0=self.psi0)
