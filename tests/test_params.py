"""Parameter derivation and regime validation."""

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import sample_accepted
from pfcircuit import CircuitParams, DerivedParams, derive, normalized, validate
from pfcircuit.errors import (CouplingOutOfRange, DampingOutOfRange, NonPositiveParameter,
                              RateOutOfRange)
from pfcircuit.params import GAMMA_MAX


def test_derive_reference_values():
    d = derive(CircuitParams(L=1.0, C=1.0, R=1.0 / 3.0, M=0.5))
    assert d.mu == pytest.approx(0.5, rel=1e-15)
    assert d.gamma == pytest.approx(3.0, rel=1e-15)
    assert d.alpha == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert d.omega0 == pytest.approx(1.0, rel=1e-15)
    assert d.omega_p == pytest.approx(3.0, rel=1e-15)


def test_derive_decoupled():
    d = derive(CircuitParams(L=1.0, C=1.0, R=0.5, M=0.0))
    assert d.mu == 0.0
    assert d.gamma == pytest.approx(2.0, rel=1e-15)
    assert d.alpha == 1.0
    assert d.omega0 == pytest.approx(1.0, rel=1e-15)
    assert d.omega_p == pytest.approx(2.0, rel=1e-15)


def test_derive_physical():
    d = derive(CircuitParams(L=2.0, C=0.5, R=1.0, M=1.0))
    assert d.mu == pytest.approx(0.5, rel=1e-15)
    assert d.gamma == pytest.approx(2.0, rel=1e-15)
    assert d.alpha == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert d.omega0 == pytest.approx(1.0, rel=1e-15)
    assert d.omega_p == pytest.approx(2.0, rel=1e-15)


@pytest.mark.parametrize("kwargs", [
    dict(L=0.0, C=1.0, R=1.0, M=0.0),
    dict(L=1.0, C=-1.0, R=1.0, M=0.0),
    dict(L=1.0, C=1.0, R=0.0, M=0.0),
])
def test_nonpositive_parameters_rejected(kwargs):
    with pytest.raises(NonPositiveParameter):
        CircuitParams(**kwargs)


@pytest.mark.parametrize("m", [1.0, -1.0, 2.5])
def test_coupling_out_of_range(m):
    with pytest.raises(CouplingOutOfRange):
        CircuitParams(L=1.0, C=1.0, R=1.0, M=m)


def test_gamma_whose_fourth_power_overflows_refused():
    # gamma = sqrt(L/C)/R = 1e80: gamma**4 in validate's rho raised OverflowError
    with pytest.raises(DampingOutOfRange):
        CircuitParams(L=1.0, C=1.0, R=1e-80, M=0.5)
    with pytest.raises(DampingOutOfRange):
        normalized(0.5, math.nextafter(GAMMA_MAX, math.inf))
    # the largest gamma left validates, with a finite rho
    assert math.isfinite(validate(derive(normalized(0.5, GAMMA_MAX))).rho)


@pytest.mark.parametrize("kwargs", [
    dict(L=1e-200, C=1e-200, R=1.0, M=0.5e-200),  # L*C underflows: omega0 divides by zero
    dict(L=1e200, C=1e200, R=1.0, M=0.5e200),  # L*C overflows: omega0 = 0
    dict(L=1e-100, C=1e200, R=1e200, M=0.0),  # R*C overflows: omega_p = 0
])
def test_rates_out_of_the_double_range_refused(kwargs):
    with pytest.raises(RateOutOfRange):
        CircuitParams(**kwargs)


def test_rates_near_the_range_ends_derive_finite():
    # a subnormal L*C and products near the largest double are still accepted
    for params in (CircuitParams(L=1e-160, C=1e-160, R=1.0, M=0.0),
                   CircuitParams(L=1e150, C=1e150, R=1e150, M=0.0)):
        d = derive(params)
        assert 0.0 < d.omega0 < math.inf and 0.0 < d.omega_p < math.inf


def test_validate_reference_rho():
    # independent oracle: exact rational arithmetic for rho at mu=1/2, gamma=3
    mu, gamma = Fraction(1, 2), Fraction(3)
    alpha = 1 / (1 - mu**2)
    rho_exact = gamma**4 + 4 * alpha**2 * mu**2 - 4 * alpha * gamma**2
    assert rho_exact == Fraction(313, 9)
    report = validate(derive(normalized(0.5, 3.0)))
    assert report.accepted
    assert report.rho == pytest.approx(float(rho_exact), rel=1e-12)


def test_validate_rejects_low_gamma():
    # rho = 16 + 16/9 - 64/3 = -32/9 < 0 at mu=1/2, gamma=2
    mu, gamma = Fraction(1, 2), Fraction(2)
    alpha = 1 / (1 - mu**2)
    rho_exact = gamma**4 + 4 * alpha**2 * mu**2 - 4 * alpha * gamma**2
    assert rho_exact == Fraction(-32, 9)
    report = validate(derive(normalized(0.5, 2.0)))
    assert not report.accepted
    assert not report.condition_rho_positive
    assert report.rho == pytest.approx(float(rho_exact), rel=1e-12)


def test_validate_rejects_unit_coupling():
    # mu = 1 cannot come out of derive; hand-build the derived record
    derived = DerivedParams(mu=1.0, gamma=3.0, alpha=float("inf"),
                            omega0=1.0, omega_p=3.0)
    report = validate(derived)
    assert not report.condition_mu_sq_lt_1
    assert not report.accepted


def test_validate_zero_coupling_is_spectrally_valid():
    report = validate(derive(normalized(0.0, 3.0)))
    assert report.spectrally_valid
    assert not report.coupling_nonzero
    assert not report.accepted


def test_normalized_roundtrip():
    rng = np.random.default_rng(7)
    for mu, gamma in sample_accepted(rng, 50):
        d = derive(normalized(mu, gamma))
        assert d.mu == pytest.approx(mu, rel=1e-12)
        assert d.gamma == pytest.approx(gamma, rel=1e-12)
        assert validate(d).accepted


def test_omega_p_consistency_identity():
    rng = np.random.default_rng(11)
    for _ in range(50):
        L, C, R = rng.uniform(0.1, 10.0, size=3)
        m = rng.uniform(-0.9, 0.9) * L
        d = derive(CircuitParams(L=L, C=C, R=R, M=m))
        assert d.omega_p == pytest.approx(d.gamma * d.omega0, rel=1e-12)


def test_accepted_regime_strict_separation():
    # rho < (gamma^2 - 2 alpha)^2 must hold whenever mu^2 < 1
    rng = np.random.default_rng(13)
    for mu, gamma in sample_accepted(rng, 50):
        d = derive(normalized(mu, gamma))
        report = validate(d)
        assert report.rho < (d.gamma**2 - 2.0 * d.alpha) ** 2


def test_report_serialization():
    report = validate(derive(normalized(0.5, 3.0)))
    data = report.to_dict()
    assert list(data) == [
        "rho", "condition_rho_positive", "condition_gamma_sq_gt_2alpha",
        "condition_mu_sq_lt_1", "coupling_nonzero", "accepted",
    ]
    assert data["accepted"] is True
