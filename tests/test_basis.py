"""Biorthogonal families: construction, eigen-relations, metric maps, frame bounds."""

import numpy as np
import pytest

from pfcircuit import Gauge, Model, build_T, build_bases, linalg, normalized
from pfcircuit.basis import (
    KN_ORDER,
    BasisPair,
    eigen_check,
    expand,
    frame_bounds,
    gram_residual,
    metric_map_check,
    reconstruct,
    resolution_residuals,
)
from pfcircuit.errors import IllConditioned


def test_psi_is_J_phi_over_its_pairing(reference_model):
    # J = [[-G, I], [I, 0]] makes J L symmetric, so psi_k = J phi_k / (phi_k^+ J phi_k),
    # formed here directly, which is T^-T
    T, gamma = reference_model.T, reference_model.derived.gamma
    J = np.block([[-np.diag([gamma, -gamma]), np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
    L = reference_model.generator
    assert np.array_equal(J @ L, (J @ L).T)
    pair = build_bases(T, reference_model.spec, reference_model.derived)
    np.testing.assert_array_equal(pair.phi, T)
    u = 2.0**-53
    np.testing.assert_allclose(pair.psi, J @ T / np.sum(T * (J @ T), axis=0), rtol=0,
                               atol=4 * u * np.max(np.abs(pair.psi)))
    np.testing.assert_allclose(pair.psi, np.linalg.inv(T).T, rtol=0,
                               atol=4 * u * np.max(np.abs(pair.psi)))


@pytest.mark.parametrize("gamma", [40.0, 200.0, 1.4e4, 1e6])
def test_psi_matches_the_exact_inverse_of_the_double_T(gamma):
    # the closed form subtracts no gamma*x from l*x, which at gamma = 1e6 lost
    # 4e5*u; each column within 16*u of (T^-1)^+, T^-1 taken in 60 digits
    mpmath = pytest.importorskip("mpmath")
    model = Model(normalized(0.5, gamma))
    with mpmath.workdps(60):
        exact = mpmath.matrix(model.T.tolist()) ** -1
        psi = np.array([[float(exact[j, i]) for j in range(4)] for i in range(4)])
    error = np.linalg.norm(model.pair.psi - psi, axis=0) / np.linalg.norm(psi, axis=0)
    assert np.max(error) <= 16 * 2.0**-53, error


def test_singular_intertwiner_rejected(reference_model):
    # a zero column scale: the columns are still eigenvectors, but T is singular
    T = reference_model.T.copy()
    T[:, 3] = 0.0
    with pytest.raises(IllConditioned):
        build_bases(T, reference_model.spec, reference_model.derived)


@pytest.mark.parametrize(("smallest", "refused"), [(2e-8, False), (1.06e-8, False),
                                                    (1.05e-8, True), (1e-300, True)])
def test_inverse_refused_where_u_kappa_squared_reaches_one(reference_model, smallest, refused):
    # the reference T with its fourth column scaled by s: kappa(T) = K/s to
    # within O(s^2), so s = K*smallest gives kappa = 1/smallest;
    # u*kappa^2 >= 1 from kappa = 2^26.5 = 9.49e7
    spec, derived = reference_model.spec, reference_model.derived
    probe = 2.0**-30
    T = reference_model.T.copy()
    T[:, 3] *= probe
    scale = np.linalg.cond(T) * probe * smallest
    T = reference_model.T.copy()
    T[:, 3] *= scale
    if refused:
        with pytest.raises(IllConditioned, match=r"u\*kappa\(T\)\^2 >= 1 \(kappa\(T\)="):
            build_bases(T, spec, derived)
        return
    pair = build_bases(T, spec, derived)
    assert pair.kappa == np.linalg.cond(T) == pytest.approx(1.0 / smallest, rel=1e-12)
    # psi_k scales as 1/s where phi_k scales as s
    np.testing.assert_allclose(pair.psi, reference_model.pair.psi / [1.0, 1.0, 1.0, scale],
                               rtol=1e-15)


def test_gram_and_resolutions(reference_pair):
    assert gram_residual(reference_pair) < 1e-10
    r1, r2 = resolution_residuals(reference_pair)
    assert r1 < 1e-10 and r2 < 1e-10


def test_ladder_construction_matches_columns(reference_pair, reference_pf):
    phi00 = reference_pair.phi[:, KN_ORDER.index((0, 0))]
    # vacuum annihilated by both lowering operators
    assert np.linalg.norm(reference_pf.a[0] @ phi00) < 1e-10 * np.linalg.norm(phi00)
    assert np.linalg.norm(reference_pf.a[1] @ phi00) < 1e-10 * np.linalg.norm(phi00)
    for raised, column in (
        (reference_pf.b[0] @ phi00, reference_pair.phi[:, KN_ORDER.index((1, 0))]),
        (reference_pf.b[1] @ phi00, reference_pair.phi[:, KN_ORDER.index((0, 1))]),
        (reference_pf.b[0] @ reference_pf.b[1] @ phi00,
         reference_pair.phi[:, KN_ORDER.index((1, 1))]),
    ):
        assert np.linalg.norm(raised - column) < 1e-10 * np.linalg.norm(column)


def test_eigen_relations(reference_pair, reference_generator, reference_spectrum):
    residuals = eigen_check(reference_pair, reference_generator)
    assert np.max(residuals) < 1e-9
    assert reference_pair.labels[0] == reference_spectrum.l3
    phi00 = reference_pair.phi[:, KN_ORDER.index((0, 0))]
    assert np.linalg.norm(reference_generator @ phi00 - reference_spectrum.l3 * phi00) \
        < 1e-10 * np.linalg.norm(phi00)


def test_eigen_relations_gauge_independent(reference_spectrum, reference_derived,
                                           reference_generator):
    T, _ = build_T(reference_spectrum, reference_derived, Gauge(2.0, 0.5, 3.0, 1.0))
    pair = build_bases(T, reference_spectrum, reference_derived)
    assert np.max(eigen_check(pair, reference_generator)) < 1e-9


def test_metric_maps(reference_pair, reference_pf):
    residuals = metric_map_check(reference_pair, reference_pf.S_phi, reference_pf.S_psi)
    assert np.max(residuals) < 1e-9


def test_metric_maps_identity_limit():
    pair = BasisPair(phi=np.eye(4), psi=np.eye(4), labels=np.zeros(4), kappa=1.0)
    residuals = metric_map_check(pair, np.eye(4), np.eye(4))
    assert np.max(residuals) == 0.0


def test_expansion_identity(reference_pair):
    rng = np.random.default_rng(51)
    for _ in range(25):
        v = rng.standard_normal(4)
        w = expand(reference_pair, v)
        assert np.linalg.norm(reconstruct(reference_pair, w) - v) \
            < 1e-10 * np.linalg.norm(v)


def test_frame_bounds(reference_pair, reference_pf):
    result = frame_bounds(reference_pair, [w for w, _ in reference_pf.metric_eigh], seed=0)
    assert result["within_bounds"]
    assert result["lower_bound"] <= result["min_observed"] + 1e-9
    assert result["max_observed"] <= result["upper_bound"] + 1e-9


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_frame_bounds_flag_a_tenfold_metric_under_a_uniform_gauge(scale):
    # a uniform gauge s scales the values and both bounds by s^2: at s = 1e-6
    # they lie near 1e-12, where an absolute slack of 1e-9 let every one pass
    model = Model(normalized(0.5, 3.0), Gauge(*[scale] * 4))
    pair, pf = model.pair, model.pf
    seed = 20260810  # verify's probes
    assert frame_bounds(pair, [w for w, _ in pf.metric_eigh], seed)["within_bounds"]
    tenfold = linalg.jacobi_eigh(np.stack([pf.S_phi / 10, pf.S_psi * 10]))[0]
    assert not frame_bounds(pair, tenfold, seed)["within_bounds"]
