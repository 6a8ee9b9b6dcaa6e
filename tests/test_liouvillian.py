"""Generator assembly and the closed-form spectrum against independent oracles."""

import math

import numpy as np
import pytest

from conftest import sample_accepted
from pfcircuit import (Gauge, Model, build_liouvillian, build_T, derive, normalized, spectrum,
                       validate)
from pfcircuit.errors import RegimeRejected


def characteristic_residual(spec, derived):
    """|l^4 + (2 alpha - gamma^2) l^2 + alpha^2 (1 - mu^2)| for each eigenvalue.

    Ties the closed-form spectrum to the quartic characteristic polynomial of
    the generator (the same quartic each voltage satisfies as a scalar ODE).
    """
    a, g, m = derived.alpha, derived.gamma, derived.mu
    ls = np.array([spec.l1, spec.l2, spec.l3, spec.l4])
    return np.abs(ls**4 + (2.0 * a - g * g) * ls**2 + a * a * (1.0 - m * m))


def quartic_roots(derived):
    """Independent oracle: numeric roots of the characteristic quartic."""
    a, g, m = derived.alpha, derived.gamma, derived.mu
    roots = np.roots([1.0, 0.0, 2.0 * a - g * g, 0.0, a * a * (1.0 - m * m)])
    assert np.max(np.abs(roots.imag)) < 1e-10
    return np.sort(roots.real)


def test_matrix_layout(reference_derived, reference_generator):
    gen = reference_generator
    np.testing.assert_array_equal(gen[:2, :2], np.zeros((2, 2)))
    np.testing.assert_array_equal(gen[:2, 2:], np.eye(2))
    np.testing.assert_allclose(gen[2], [-4.0 / 3.0, 2.0 / 3.0, 3.0, 0.0], rtol=1e-15)
    np.testing.assert_allclose(gen[3], [2.0 / 3.0, -4.0 / 3.0, 0.0, -3.0], rtol=1e-15)


def test_matrix_decoupled_at_zero_coupling():
    gen = build_liouvillian(derive(normalized(0.0, 3.0)))
    assert gen[2, 1] == 0.0 and gen[3, 0] == 0.0


def test_build_rejects_regime():
    # the generator assembles anywhere; building the model's spectrum refuses
    model = Model(normalized(0.5, 2.0))
    assert model.generator.shape == (4, 4)
    with pytest.raises(RegimeRejected):
        model.spec
    with pytest.raises(RegimeRejected):
        model.pair


def test_shift(reference_generator, reference_spectrum):
    shifted = reference_generator - reference_spectrum.l3 * np.eye(4)
    # numeric eigenvalues of the shifted matrix are the shifted closed forms
    eigs = np.sort(np.linalg.eigvals(shifted).real)
    np.testing.assert_allclose(eigs, reference_spectrum.shifted_eigenvalues, atol=1e-9)
    assert abs(np.trace(shifted) - (np.trace(reference_generator)
               - 4.0 * reference_spectrum.l3)) < 1e-12


def test_spectrum_decoupled_closed_form():
    # each decoupled sub-circuit obeys s^2 - gamma s + 1 = 0, roots (3 +- sqrt5)/2
    oracle = np.sort(np.roots([1.0, -3.0, 1.0]).real)
    np.testing.assert_allclose(oracle, [(3.0 - math.sqrt(5.0)) / 2.0,
                                        (3.0 + math.sqrt(5.0)) / 2.0], atol=1e-12)
    derived = derive(normalized(0.0, 3.0))
    spec = spectrum(derived, validate(derived))
    assert spec.l4 == pytest.approx((3.0 + math.sqrt(5.0)) / 2.0, abs=1e-12)
    assert spec.l2 == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, abs=1e-12)
    assert spec.l4 == pytest.approx(oracle[1], abs=1e-12)
    assert spec.l2 == pytest.approx(oracle[0], abs=1e-12)


def test_spectrum_reference_against_quartic(reference_derived, reference_spectrum):
    roots = quartic_roots(reference_derived)
    closed = np.sort([reference_spectrum.l1, reference_spectrum.l2,
                      reference_spectrum.l3, reference_spectrum.l4])
    np.testing.assert_allclose(closed, roots, atol=1e-9)
    assert reference_spectrum.l4 == pytest.approx(2.47291, abs=1e-5)
    assert reference_spectrum.l2 == pytest.approx(0.46697, abs=5e-5)


def test_spectrum_structure_random():
    rng = np.random.default_rng(21)
    for mu, gamma in sample_accepted(rng, 100):
        derived = derive(normalized(mu, gamma))
        spec = spectrum(derived, validate(derived))
        assert spec.l3 < spec.l1 < 0.0 < spec.l2 < spec.l4
        assert spec.l2 == -spec.l1 and spec.l4 == -spec.l3
        assert spec.lambda0 == 0.0 < spec.lambda1 < spec.lambda2 < spec.lambda3
        assert abs(spec.lambda3 - (spec.lambda1 + spec.lambda2)) < 1e-12
        # general-purpose eigenvalue oracle on the assembled matrix
        numeric = np.sort(np.linalg.eigvals(build_liouvillian(derived)).real)
        closed = np.sort([spec.l1, spec.l2, spec.l3, spec.l4])
        np.testing.assert_allclose(closed, numeric,
                                   atol=1e-9 * max(1.0, spec.l4))


def test_characteristic_residuals(reference_spectrum, reference_derived):
    residuals = characteristic_residual(reference_spectrum, reference_derived)
    bounds = 1e-9 * np.maximum(
        1.0, np.array([reference_spectrum.l1, reference_spectrum.l2,
                       reference_spectrum.l3, reference_spectrum.l4]) ** 4)
    assert np.all(residuals < bounds)
    decoupled = derive(normalized(0.0, 3.0))
    assert np.all(characteristic_residual(spectrum(decoupled, validate(decoupled)), decoupled)
                  < 1e-12)


def test_quartic_constant_term_identity():
    rng = np.random.default_rng(22)
    for mu, gamma in sample_accepted(rng, 20):
        d = derive(normalized(mu, gamma))
        assert d.alpha**2 * (1.0 - d.mu**2) == pytest.approx(d.alpha, rel=1e-12)


def test_determinant_and_trace(reference_derived, reference_generator, reference_spectrum):
    assert np.linalg.det(reference_generator) == pytest.approx(
        reference_derived.alpha, rel=1e-10)
    assert np.trace(reference_generator) == 0.0
    total = (reference_spectrum.l1 + reference_spectrum.l2
             + reference_spectrum.l3 + reference_spectrum.l4)
    assert abs(total) < 1e-12
    product = (reference_spectrum.l2 ** 2) * (reference_spectrum.l4 ** 2)
    assert product == pytest.approx(reference_derived.alpha, rel=1e-10)


def test_spectrum_serialization(reference_spectrum):
    data = reference_spectrum.to_dict()
    assert list(data) == ["l1", "l2", "l3", "l4",
                          "lambda0", "lambda1", "lambda2", "lambda3", "rho"]
    assert data["rho"] == pytest.approx(313.0 / 9.0, rel=1e-12)


def _paper_closed_forms(mpmath, mu, gamma, alpha):
    """l1..l4 and delta21..delta24 by the paper's subtracting forms, in mpmath."""
    rho = gamma**4 + 4 * alpha**2 * mu**2 - 4 * alpha * gamma**2
    s = mpmath.sqrt(rho)
    l2 = mpmath.sqrt((gamma**2 - 2 * alpha - s) / 2)
    l4 = mpmath.sqrt((gamma**2 - 2 * alpha + s) / 2)
    den = 2 * alpha * mu
    return [-l2, l2, -l4, l4,
            (gamma**2 + s - 2 * gamma * l4) / den, (gamma**2 - s - 2 * gamma * l2) / den,
            (gamma**2 - s + 2 * gamma * l2) / den, (gamma**2 + s + 2 * gamma * l4) / den]


#: gamma in [1.2, 200] with |mu| in [0.05, 0.98], and the large gammas at which
#: closed forms that subtract lose l2 (by 48% at 1.4e4)
_ORACLE_POINTS = [(mu, float(gamma)) for mu in (-0.98, -0.3, -0.05, 0.05, 0.1633, 0.6, 0.98)
                  for gamma in np.geomspace(1.2, 200.0, 9)] + [
    (0.1, 180.0), (0.5, 3.0), (0.5, 1e3), (0.5, 3e3), (0.5, 1.4e4), (0.5, 1.6e4)]


def test_closed_forms_against_mpmath():
    # Higham (2002), sec. 1.7: the relative error of a backward-stable value is
    # about u times its condition number, here with respect to mu, gamma and
    # alpha (alpha is rounded before any closed form reads it); kappa is a
    # forward difference at 50 digits
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    u, h = 2.0**-53, mpmath.mpf("1e-20")
    checked = 0
    for mu, gamma in _ORACLE_POINTS:
        derived = derive(normalized(mu, gamma))
        report = validate(derived)
        if not report.accepted:
            continue
        spec = spectrum(derived, report)
        _, deltas = build_T(spec, derived, Gauge())
        inputs = [mpmath.mpf(derived.mu), mpmath.mpf(derived.gamma)]
        inputs.append(1 / (1 - inputs[0] ** 2))
        exact = _paper_closed_forms(mpmath, *inputs)
        kappa = [0] * 8
        for i in range(3):
            moved = list(inputs)
            moved[i] *= 1 + h
            kappa = [k + abs((b - a) / (h * a))
                     for k, a, b in zip(kappa, exact, _paper_closed_forms(mpmath, *moved))]
        got = [spec.l1, spec.l2, spec.l3, spec.l4, *deltas.tolist()]
        for name, x, e, k in zip(("l1", "l2", "l3", "l4", "d21", "d22", "d23", "d24"),
                                 got, exact, kappa):
            assert abs((x - e) / e) <= 8 * u * k, (mu, gamma, name)
        checked += 1
    assert checked == 57
