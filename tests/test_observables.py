"""Powers, energies, and the asymptotic gain/loss classification."""

import numpy as np
import pytest

from conftest import sample_accepted
from pfcircuit import (
    Gauge,
    build_T,
    classify_asymptotics,
    derive,
    energy,
    evolve_closed,
    initial_state,
    normalized,
    power,
    spectrum,
    validate,
)
from pfcircuit.errors import ZeroCoupling
from pfcircuit.observables import energy_rewrite_deviation, power_two_path_deviation

TAU = np.linspace(0.0, 5.0, 1001)


@pytest.fixture(scope="module")
def traj(reference_coefficients, reference_pair, reference_spectrum,
         reference_params, reference_derived):
    return evolve_closed(reference_coefficients, reference_pair, reference_spectrum,
                         TAU, reference_params, reference_derived,
                         psi0=initial_state(1.0, 1.0, 1.0))


@pytest.fixture(scope="module")
def power_series(traj):
    return power(traj)


@pytest.fixture(scope="module")
def energy_series(traj, reference_params):
    return energy(traj, reference_params)


def test_power_at_start_is_zero(power_series):
    assert power_series[0][0] == 0.0
    assert power_series[1][0] == 0.0


def test_power_two_paths_agree(power_series, traj, reference_params, reference_derived):
    assert power_two_path_deviation(traj, power_series, reference_params,
                                    reference_derived) < 1e-10


def test_power_asymptotic_signs(power_series, traj):
    tail = traj.tau >= 4.0
    assert np.all(power_series[0][tail] > 0.0)
    assert np.all(power_series[1][tail] < 0.0)


def test_power_log_slope(power_series, traj, reference_spectrum):
    tail = traj.tau >= 4.0
    for series in power_series:
        slope = np.polyfit(traj.tau[tail], np.log(np.abs(series[tail])), 1)[0]
        assert abs(slope - 2.0 * reference_spectrum.l4) < 1e-2


def test_energy_initial_values(energy_series, reference_params):
    assert energy_series[0][0] == pytest.approx(
        0.5 * reference_params.L * reference_params.i1**2, rel=1e-12)
    assert energy_series[1][0] == 0.0


def test_energy_nonnegative(energy_series):
    assert np.min(energy_series[0]) >= -1e-12
    assert np.min(energy_series[1]) >= -1e-12


def test_energy_growth_slope(energy_series, traj, reference_spectrum):
    tail = traj.tau >= 4.0
    slope = np.polyfit(traj.tau[tail], np.log(energy_series[0][tail]), 1)[0]
    assert abs(slope - 2.0 * reference_spectrum.l4) < 1e-2


def test_energy_rewrite_deviation_reported(energy_series, traj, reference_params):
    # the rewritten closed forms drop the cross term; the deviation is real
    # and must be surfaced, not asserted away
    deviation = energy_rewrite_deviation(traj, energy_series, reference_params)
    assert deviation > 0.1
    assert np.isfinite(deviation)


def test_classification_reference(reference_spectrum, reference_derived, reference_params):
    report = classify_asymptotics(reference_spectrum, reference_derived, reference_params)
    assert report.power_window_ok  # l4 ~ 2.473 < gamma = 3
    assert report.energy_lower is None  # omega0^2 - omega_p^2 = 1 - 9 < 0
    assert report.energy_upper == pytest.approx(np.sqrt(10.0), rel=1e-12)
    assert report.energy_window_ok
    assert report.p1_diverges_to == "+"
    assert report.p2_diverges_to == "-"


def test_classification_zero_coupling_guard():
    derived = derive(normalized(0.0, 3.0))
    spec = spectrum(derived, validate(derived))
    with pytest.raises(ZeroCoupling):
        classify_asymptotics(spec, derived, normalized(0.0, 3.0))


def test_windows_hold_across_regime():
    # in-regime l4 < gamma always (the window inequality reduces to
    # 4 alpha^2 (1 - mu^2) > -8 alpha gamma^2); the sweep documents it
    rng = np.random.default_rng(71)
    for mu, gamma in sample_accepted(rng, 40):
        derived = derive(normalized(mu, gamma))
        spec = spectrum(derived, validate(derived))
        report = classify_asymptotics(spec, derived, normalized(mu, gamma))
        assert spec.l4 < derived.gamma
        assert report.power_window_ok
        assert report.energy_window_ok


def test_asymptotic_prefactors(power_series, traj, reference_spectrum,
                               reference_derived, reference_params,
                               reference_coefficients):
    # dominant-mode prefactors: P1 -> (c11 t24 d24)^2 (1/R - C w0 l4) e^{2 l4 tau},
    # P2 -> (c11 t24)^2 (-1/R - C w0 l4) e^{2 l4 tau}, with t24 = T[1, 3]
    T, deltas = build_T(reference_spectrum, reference_derived, Gauge())
    c11_t24 = reference_coefficients[3] * T[1, 3]
    cw = reference_params.C * reference_derived.omega0
    l4 = reference_spectrum.l4
    pref1 = (c11_t24 * deltas[3]) ** 2 * (1.0 / reference_params.R - cw * l4)
    pref2 = c11_t24**2 * (-1.0 / reference_params.R - cw * l4)
    idx = -1  # tau = 5, where the dominant mode ratio is ~e^{-8}
    scaled1 = power_series[0][idx] * np.exp(-2.0 * l4 * traj.tau[idx])
    scaled2 = power_series[1][idx] * np.exp(-2.0 * l4 * traj.tau[idx])
    assert scaled1 == pytest.approx(pref1, rel=2e-3)
    assert scaled2 == pytest.approx(pref2, rel=2e-3)


def test_report_serialization(reference_spectrum, reference_derived, reference_params):
    report = classify_asymptotics(reference_spectrum, reference_derived,
                                  reference_params)
    data = report.to_dict()
    assert data["energy_lower"] == "imaginary"
    assert data["p1_diverges_to"] == "+"
