"""Simulator and verification toolkit for a mutually-inducting loss-gain circuit.

The package builds the 4x4 generator of the circuit's first-order dynamics,
its closed-form spectrum, the intertwiner onto a diagonal reference generator,
the deformed (pseudo-fermionic) operator pairs and metric operators, and the
biorthogonal eigenbases; solves the dynamics in closed form with independent
oracles; and checks every algebraic identity and asymptotic claim numerically.
"""

from .basis import BasisPair, build_bases
from .dynamics import (
    Trajectory,
    coefficients_paper,
    evolve_adjoint,
    evolve_closed,
    evolve_h0,
    evolve_rk4,
    initial_state,
    quartic_residual,
)
from .heisenberg import growth_bound_report
from .liouvillian import Spectrum, build_liouvillian, spectrum
from .model import Model
from .observables import GainLossReport, classify_asymptotics, energy, power
from .params import (
    CircuitParams,
    DerivedParams,
    RegimeReport,
    derive,
    normalized,
    validate,
)
from .pfalgebra import (
    Gauge,
    PFSystem,
    VerificationReport,
    build_pf,
    build_T,
    fermion_generators,
    pf_verify,
)

__version__ = "0.1.0"

__all__ = [
    "BasisPair",
    "CircuitParams",
    "DerivedParams",
    "GainLossReport",
    "Gauge",
    "Model",
    "PFSystem",
    "RegimeReport",
    "Spectrum",
    "Trajectory",
    "VerificationReport",
    "build_T",
    "build_bases",
    "build_liouvillian",
    "build_pf",
    "classify_asymptotics",
    "coefficients_paper",
    "derive",
    "energy",
    "evolve_adjoint",
    "evolve_closed",
    "evolve_h0",
    "evolve_rk4",
    "fermion_generators",
    "growth_bound_report",
    "initial_state",
    "normalized",
    "pf_verify",
    "power",
    "quartic_residual",
    "spectrum",
    "validate",
]
