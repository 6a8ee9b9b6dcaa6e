"""Fault injection for verify: every asserted check must fail under some named fault.

Each fault is injected by monkeypatching the module that defines the faulty
piece, and verify then runs at the reference point (0.5, 3) in the unit gauge
and in 2,0.5,3,1.  ``TRIPS`` maps each asserted key to the faults that must
fail it, and ``CANNOT_FAIL`` names each key that no fault reaches, with the
reason.  The map covers verify's heisenberg/* keys.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pfcircuit import Gauge, Model, heisenberg, linalg, normalized
from pfcircuit.errors import SeriesOverflow
from pfcircuit.verify import run_verification_suite

TAU = np.linspace(0.0, 5.0, 1001)
GAUGES = {"unit": Gauge(1.0, 1.0, 1.0, 1.0), "2,0.5,3,1": Gauge(2.0, 0.5, 3.0, 1.0)}
#: verify's asserted keys, in report order
_ASSERTED = json.loads((Path(__file__).parents[1] / "bench" / "verify_keys.json").read_text())


def swap_number_operators(monkeypatch):
    """number_paths builds N1's closed forms from N2 and N2's from N1."""
    real = heisenberg.number_paths
    monkeypatch.setattr(heisenberg, "number_paths",
                        lambda pf, tau, x: real(replace(pf, N=pf.N[::-1]), tau, x))


def growth_without_minus_one(monkeypatch):
    """_expansion_factors takes the growth e^{lambda_j tau} for e^{lambda_j tau} - 1."""
    real = heisenberg._expansion_factors

    def faulty(pf, tau):
        grow = real(pf, tau)[0] + 1.0
        return grow, np.eye(4) + grow * pf.N[:, None]

    monkeypatch.setattr(heisenberg, "_expansion_factors", faulty)


def conjugate_hamiltonian(monkeypatch):
    """The effective Hamiltonian is taken as H = -iL, the conjugate of H = iL."""
    real = heisenberg.effective_hamiltonian_route_residual
    monkeypatch.setattr(heisenberg, "effective_hamiltonian_route_residual",
                        lambda generator, pf, x0, tau: real(-generator, pf, x0, tau))


def transposed_observable_picture(monkeypatch):
    """The observable picture sandwiches X0 as E X0 E^T, not E^T X0 E.

    Both pictures are formed inside expectation_consistency_residual from one
    propagator, so the fault is a slip in that function's observable side.
    """
    def faulty(X0, state0, pf, tau):
        e = np.exp(pf.spectrum.l3 * tau)[:, None, None] * heisenberg.shifted_propagator(pf, tau)
        state_t = e @ state0[..., None]
        lhs = (state_t.swapaxes(-1, -2) @ X0 @ state_t)[..., 0, 0]
        x_t = e @ X0 @ e.swapaxes(-1, -2)
        rhs = (state0[..., None, :] @ x_t @ state0[..., None])[..., 0, 0]
        return linalg.relative_gap(lhs, rhs)

    monkeypatch.setattr(heisenberg, "expectation_consistency_residual", faulty)


#: each asserted heisenberg key, with the faults that must fail it
TRIPS = {
    "heisenberg/number_two_path_N1": [swap_number_operators, growth_without_minus_one],
    "heisenberg/number_two_path_N2": [swap_number_operators, growth_without_minus_one],
    "heisenberg/product_formula": [growth_without_minus_one],
    "heisenberg/expectation_consistency_max": [transposed_observable_picture],
    "heisenberg/effective_hamiltonian_route": [conjugate_hamiltonian],
}
#: asserted heisenberg keys that no fault can fail, and why
CANNOT_FAIL = {
    "heisenberg/growth_ratio_finite":
        "linalg.gram refuses a non-finite X(tau) or A^T A with SeriesOverflow before any "
        "norm exists; the ratios scale finite norms by e^{2 l3 tau} <= 1 (l3 = -l4 < 0), "
        "and the constants divide by ||N_j(0)|| >= 1, the norm of an idempotent",
}
FAULTS = sorted({fault for faults in TRIPS.values() for fault in faults}, key=lambda f: f.__name__)


def _failed(gauge):
    report = run_verification_suite(Model(normalized(0.5, 3.0), gauge), TAU)
    return {name for name, check in report.checks.items() if check["pass"] is False}


def test_every_asserted_heisenberg_key_is_mapped():
    asserted = [name for name in _ASSERTED if name.startswith("heisenberg/")
                and not name.startswith("heisenberg/reported_")]
    assert sorted(asserted) == sorted([*TRIPS, *CANNOT_FAIL])


@pytest.mark.parametrize("gauge", list(GAUGES.values()), ids=list(GAUGES))
def test_the_unfaulted_run_passes_every_mapped_key(gauge):
    assert not _failed(gauge) & {*TRIPS, *CANNOT_FAIL}


@pytest.mark.parametrize("gauge", list(GAUGES.values()), ids=list(GAUGES))
@pytest.mark.parametrize("fault", FAULTS, ids=[f.__name__ for f in FAULTS])
def test_each_fault_fails_its_keys(monkeypatch, gauge, fault):
    fault(monkeypatch)
    failed = _failed(gauge)
    assert {name for name, faults in TRIPS.items() if fault in faults} <= failed


@pytest.mark.parametrize("gauge", list(GAUGES.values()), ids=list(GAUGES))
def test_a_non_finite_norm_is_refused_before_the_growth_ratio(monkeypatch, gauge):
    # the premise of growth_ratio_finite's entry: an overflowing X(tau) never reaches the ratios
    real = heisenberg.sandwich

    def overflowing(X0, pf, tau):
        out = real(X0, pf, tau)
        out[..., -1, 0, 0] = np.inf
        return out

    monkeypatch.setattr(heisenberg, "sandwich", overflowing)
    with pytest.raises(SeriesOverflow):
        run_verification_suite(Model(normalized(0.5, 3.0), gauge), TAU)
