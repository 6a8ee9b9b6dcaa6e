"""Operator construction: reference structure, intertwiner, deformed pairs, verifier."""

import json

import numpy as np
import pytest
from scipy.linalg import sqrtm

from conftest import sample_accepted
from pfcircuit import (
    Gauge,
    Model,
    build_T,
    build_pf,
    derive,
    normalized,
    pf_verify,
    spectrum,
    validate,
)
from pfcircuit import cli, pfalgebra
from pfcircuit.basis import BasisPair
from pfcircuit.errors import GaugeDegenerate, ReconstructionFailure, ZeroCoupling
from pfcircuit.pfalgebra import (
    VerificationReport,
    build_h0,
    fermion_generators,
    reconstruction_residual,
    verify_two_level_pair,
)


def anti(x, y):
    return x @ y + y @ x


def test_generator_matrices_satisfy_car():
    a1, a2 = fermion_generators()
    assert np.all(a1 @ a1 == 0.0) and np.all(a2 @ a2 == 0.0)
    np.testing.assert_array_equal(anti(a1, a1.T), np.eye(4))
    np.testing.assert_array_equal(anti(a2, a2.T), np.eye(4))
    np.testing.assert_array_equal(anti(a1, a2.T), np.zeros((4, 4)))
    np.testing.assert_array_equal(anti(a2, a1.T), np.zeros((4, 4)))
    np.testing.assert_array_equal(anti(a1, a2), np.zeros((4, 4)))


def test_reference_generator_ladder():
    a1, a2 = fermion_generators()
    basis_vectors = np.eye(4)
    np.testing.assert_array_equal(a1.T @ basis_vectors[:, 0], basis_vectors[:, 1])
    np.testing.assert_array_equal(a2.T @ basis_vectors[:, 0], basis_vectors[:, 2])
    np.testing.assert_array_equal(a1.T @ a2.T @ basis_vectors[:, 0], basis_vectors[:, 3])


def test_h0_diagonal(reference_spectrum):
    h0 = build_h0(reference_spectrum)
    lam1, lam2 = reference_spectrum.lambda1, reference_spectrum.lambda2
    np.testing.assert_array_equal(h0, np.diag([0.0, lam1, lam2, lam1 + lam2]))
    # eigenvalue pattern k*lam1 + n*lam2 on the standard basis
    for col, (k, n) in enumerate(((0, 0), (1, 0), (0, 1), (1, 1))):
        e = np.zeros(4)
        e[col] = 1.0
        np.testing.assert_allclose(h0 @ e, (k * lam1 + n * lam2) * e, atol=1e-15)


def test_intertwiner_columns_are_eigenvectors(
        reference_T, reference_generator, reference_spectrum):
    T = reference_T
    for col, eig in enumerate(reference_spectrum.eigenvalues):
        v = T[:, col]
        residual = np.linalg.norm(reference_generator @ v - eig * v)
        assert residual < 1e-9 * np.linalg.norm(v) * max(1.0, abs(eig))


def test_intertwiner_determinant_closed_form(reference_spectrum, reference_derived):
    for gauge in (Gauge(), Gauge(2.0, 0.5, 3.0, 1.0)):
        T, _ = build_T(reference_spectrum, reference_derived, gauge)
        # the closed form of the columns (delta, 1, l*delta, l), times their scales T[1]
        expected = (-4.0 * reference_spectrum.rho * reference_spectrum.l4
                    * reference_spectrum.l2
                    / (reference_derived.alpha**2 * reference_derived.mu**2)
                    * np.prod(T[1]))
        assert np.linalg.det(T) == pytest.approx(expected, rel=1e-9)


def test_pt_pairing_maps_each_column_onto_its_partner():
    # Q = diag(P2, -P2) swaps the sub-circuits and reverses the velocities, so
    # Q L Q^-1 = -L (Q^-1 = Q), and Q carries the unit column of l, t (delta, 1,
    # l delta, l), onto sign(mu) times that of -l, whose delta is 1/delta
    p2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    q = np.block([[p2, np.zeros((2, 2))], [np.zeros((2, 2)), -p2]])
    large_gamma = [(sign * mu, gamma) for sign in (-1.0, 1.0)
                   for mu, gamma in ((0.0817, 161.6), (0.0817, 200.0), (0.1633, 200.0),
                                     (0.245, 200.0))]
    checked = 0
    for mu, gamma in [(float(mu), float(gamma)) for mu in np.linspace(-0.98, 0.98, 6)
                      for gamma in np.geomspace(1.2, 200.0, 5)] + large_gamma:
        model = Model(normalized(mu, gamma))
        if not validate(model.derived).accepted:
            continue
        np.testing.assert_array_equal(q @ model.generator @ q, -model.generator)
        np.testing.assert_allclose(q @ model.T, np.sign(mu) * model.T[:, ::-1],
                                   rtol=0.0, atol=4 * np.finfo(float).eps)
        checked += 1
    assert checked == 30


def test_intertwiner_gauge_column_scaling(reference_spectrum, reference_derived):
    base, _ = build_T(reference_spectrum, reference_derived, Gauge())
    scaled, _ = build_T(reference_spectrum, reference_derived, Gauge(2.0, 0.5, 3.0, 1.0))
    for col, factor in enumerate((2.0, 0.5, 3.0, 1.0)):
        np.testing.assert_allclose(scaled[:, col], factor * base[:, col], rtol=1e-15)


def test_intertwiner_relation(reference_T, reference_generator, reference_spectrum):
    T = reference_T
    shifted = reference_generator - reference_spectrum.l3 * np.eye(4)
    h0 = build_h0(reference_spectrum)
    residual = np.linalg.norm(shifted @ T - T @ h0)
    assert residual < 1e-9 * np.linalg.norm(T) * np.linalg.norm(shifted)


def test_zero_coupling_rejected():
    derived = derive(normalized(0.0, 3.0))
    spec = spectrum(derived, validate(derived))
    with pytest.raises(ZeroCoupling):
        build_T(spec, derived, Gauge())


def test_degenerate_gauge_rejected():
    with pytest.raises(GaugeDegenerate):
        Gauge(1.0, 0.0, 1.0, 1.0)


def test_build_pf_core_identities(reference_pf, reference_generator, reference_spectrum):
    pf = reference_pf
    n1, n2 = pf.N
    for nj in (n1, n2):
        assert np.linalg.norm(nj @ nj - nj) < 1e-10 * np.linalg.norm(nj)
    assert np.linalg.norm(n1 @ n2 - n2 @ n1) < 1e-10 * (
        np.linalg.norm(n1) * np.linalg.norm(n2))
    recon = (reference_spectrum.lambda1 * n1 + reference_spectrum.lambda2 * n2
             + reference_spectrum.l3 * np.eye(4))
    assert np.linalg.norm(recon - reference_generator) < 1e-9 * np.linalg.norm(
        reference_generator)


def test_metric_operators(reference_pf, reference_T):
    T = reference_T
    np.testing.assert_allclose(reference_pf.S_phi, T @ T.T, rtol=1e-14)
    product = reference_pf.S_phi @ reference_pf.S_psi
    assert np.linalg.norm(product - np.eye(4)) < 1e-10
    assert np.all(np.linalg.eigvalsh(reference_pf.S_phi) > 0.0)


def _n_hats(pf):
    """n_hat_j = S_psi^{1/2} N_j S_phi^{1/2}, with the roots taken by scipy, not by Jacobi."""
    root_psi, root_phi = sqrtm(pf.S_psi), sqrtm(pf.S_phi)
    return {"n_hat1": root_psi @ pf.N[0] @ root_phi, "n_hat2": root_psi @ pf.N[1] @ root_phi}


def test_n_hat_symmetric_with_binary_spectrum(reference_pf):
    for nh in _n_hats(reference_pf).values():
        assert np.linalg.norm(nh - nh.T) < 1e-9 * np.linalg.norm(nh)
        eigs = np.sort(np.linalg.eigvalsh((nh + nh.T) / 2.0))
        np.testing.assert_allclose(eigs, [0.0, 0.0, 1.0, 1.0], atol=1e-9)


def test_pf_verify_reference(reference_pf, reference_generator):
    report = pf_verify(reference_pf, liouvillian=reference_generator)
    assert report.all_passed, report.failed()
    # reported-only channels never influence the verdict
    assert report.checks["reported_mixed_dagger_a1_b2adj"]["pass"] is None


def test_pf_verify_random_parameters_and_gauges():
    rng = np.random.default_rng(31)
    for mu, gamma in sample_accepted(rng, 5):
        model = Model(normalized(mu, gamma), Gauge(*rng.uniform(0.2, 3.0, size=4)))
        report = pf_verify(model.pf, liouvillian=model.generator)
        assert report.all_passed, (mu, gamma, report.failed())


def test_pf_verify_localizes_injected_fault(
        reference_T, reference_spectrum, reference_generator):
    T = reference_T
    corrupted = T.copy()
    corrupted[0, 0] += 1e-3
    # a consistent pair around the corrupted T, with numpy's inverse as psi: an
    # invertible T that does not intertwine the generator
    pair = BasisPair(corrupted, np.linalg.inv(corrupted).T, np.zeros(4), 1.0)
    report = pf_verify(build_pf(pair, reference_spectrum), liouvillian=reference_generator)
    failed = report.failed()
    assert failed, "fault went unnoticed"
    assert any(report.checks[name]["residual"] > 1e-5 for name in failed)
    # the generator-dependent checks localize the fault
    assert set(failed) <= {
        "generator_reconstruction", "intertwining_generator_H0", "crypto_hermiticity",
    }
    # similarity-invariant relations survive (they ride the corrupted T itself)
    assert report.checks["a1_squared_zero"]["pass"]
    assert report.checks["anticommutator_a1_b1_is_identity"]["pass"]


def test_build_pf_refusal_reads_the_verifier_reconstruction_residual(
        monkeypatch, reference_model):
    # build_pf refuses nothing; heisenberg's ReconstructionFailure and
    # pf_verify's generator_reconstruction come from one computation, so a
    # corrupted T reads the same residual in both; the fault is large enough
    # that the message's four digits tell apart a residual scaled by ||recon||
    # instead of ||L||
    build = pfalgebra.build_T

    def faulty_build_T(*args, **kwargs):
        T, deltas = build(*args, **kwargs)
        corrupted = T.copy()
        corrupted[0, 0] += 0.5
        return corrupted, deltas

    monkeypatch.setattr(pfalgebra, "build_T", faulty_build_T)
    model = Model(reference_model.params)
    residual = pf_verify(model.pf, liouvillian=model.generator) \
        .checks["generator_reconstruction"]["residual"]
    assert residual > 1e-9 and residual == reconstruction_residual(model.pf, model.generator)
    with pytest.raises(ReconstructionFailure) as refusal:
        cli.cmd_heisenberg(cli.RunConfig(mu=0.5, gamma=3.0))
    tolerance = pfalgebra.RECONSTRUCTION_TOL
    assert f"residual {residual:.3e} exceeds {tolerance:.0e}" in str(refusal.value)


def test_operator_spectra_gauge_invariant(reference_model):
    systems = [Model(reference_model.params, gauge).pf
               for gauge in (Gauge(), Gauge(2.0, 0.5, 3.0, 1.0))]
    first, second = systems
    # the number operators are exactly gauge-invariant (column scales commute
    # with the occupation diagonals), so the matrices themselves must agree
    for a, b in zip(first.N, second.N):
        assert np.linalg.norm(a - b) < 1e-9 * np.linalg.norm(a)
    # the symmetrized number operators change but stay isospectral
    n_hats = [_n_hats(system) for system in systems]
    for attr in ("n_hat1", "n_hat2"):
        wa = np.sort(np.linalg.eigvalsh(n_hats[0][attr]))
        wb = np.sort(np.linalg.eigvalsh(n_hats[1][attr]))
        np.testing.assert_allclose(wa, wb, atol=1e-9)
    # ladder operators are nilpotent in every gauge (eigenvalues of a nilpotent
    # matrix are numerically ill-conditioned, hence the loose tolerance)
    for system in systems:
        for op in (*system.a, *system.b):
            eigs = np.linalg.eigvals(op)
            assert np.max(np.abs(eigs)) < 1e-4 * np.linalg.norm(op)


def test_mixed_dagger_channels_are_nonzero(reference_pf, reference_generator):
    # the abstract all-combinations independence fails for non-orthogonal T;
    # the verifier reports it rather than asserting it
    report = pf_verify(reference_pf, liouvillian=reference_generator)
    assert report.checks["reported_mixed_dagger_a1_b2adj"]["residual"] > 1e-3
    assert report.checks["cross_anticommutator_a1_b2"]["pass"]


def test_report_json_round_trip(reference_pf, reference_generator):
    report = pf_verify(reference_pf, liouvillian=reference_generator)
    payload = json.loads(json.dumps(report.checks))
    assert set(payload) == set(report.checks)
    sample = payload["anticommutator_a1_b1_is_identity"]
    assert set(sample) == {"residual", "tolerance", "pass"}
    assert sample["pass"] is True


def test_report_verdict_logic():
    report = VerificationReport()
    report.add("good", 1e-12, 1e-9)
    report.add("informational", 42.0, None)
    assert report.all_passed
    report.add("bad", 1.0, 1e-9)
    assert not report.all_passed
    assert report.failed() == ["bad"]


def two_level_pair(d):
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])
    d_inv = np.linalg.inv(d)
    return d @ lower @ d_inv, d @ lower.T @ d_inv


def test_two_level_verifier_orthonormal_limit():
    a, b = two_level_pair(np.eye(2))
    report = verify_two_level_pair(a, b)
    assert report.all_passed, report.failed()


def test_two_level_verifier_random_similarity():
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 10:
        d = rng.standard_normal((2, 2))
        if abs(np.linalg.det(d)) < 0.1:
            continue
        a, b = two_level_pair(d)
        report = verify_two_level_pair(a, b)
        assert report.all_passed, (d, report.failed())
        checked += 1


def test_two_level_verifier_flags_broken_pair():
    a, b = two_level_pair(np.diag([2.0, 1.0]))
    report = verify_two_level_pair(a, 0.5 * b)
    assert not report.all_passed
    assert "anticommutator_a_b_is_identity" in report.failed()
