"""Biorthogonal families: construction, eigen-relations, metric maps, frame bounds."""

import json

import numpy as np
import pytest

from pfcircuit import Gauge, Model, build_T, build_bases, normalized
from pfcircuit.basis import (
    KN_ORDER,
    eigen_check,
    expand,
    frame_bounds,
    gram_residual,
    metric_map_check,
    reconstruct,
    resolution_residuals,
)
from pfcircuit.errors import IllConditioned


def test_identity_intertwiner_gives_canonical_bases(reference_spectrum):
    pair = build_bases(np.eye(4), reference_spectrum)
    np.testing.assert_array_equal(pair.phi, np.eye(4))
    np.testing.assert_array_equal(pair.psi, np.eye(4))
    assert gram_residual(pair) == 0.0


def test_singular_intertwiner_rejected(reference_spectrum):
    with pytest.raises(IllConditioned):
        build_bases(np.zeros((4, 4)), reference_spectrum)


@pytest.mark.parametrize(("smallest", "refused"), [(2e-8, False), (1.06e-8, False),
                                                    (1.05e-8, True), (1e-300, True)])
def test_inverse_refused_where_u_kappa_squared_reaches_one(reference_spectrum, smallest, refused):
    # kappa = 1/smallest; u*kappa^2 >= 1 from kappa = 2^26.5 = 9.49e7
    T = np.diag([1.0, 1.0, 1.0, smallest])
    if refused:
        with pytest.raises(IllConditioned, match=r"u\*kappa\(T\)\^2 >= 1 \(kappa\(T\)="):
            build_bases(T, reference_spectrum)
        return
    pair = build_bases(T, reference_spectrum)
    assert pair.kappa == np.linalg.cond(T) == pytest.approx(1.0 / smallest, rel=1e-15)
    np.testing.assert_array_equal(pair.psi, np.diag([1.0, 1.0, 1.0, 1.0 / smallest]))


def test_gram_and_resolutions(reference_pair):
    assert gram_residual(reference_pair) < 1e-10
    r1, r2 = resolution_residuals(reference_pair)
    assert r1 < 1e-10 and r2 < 1e-10


def test_ladder_construction_matches_columns(reference_pair, reference_pf):
    phi00 = reference_pair.phi_vec(0, 0)
    # vacuum annihilated by both lowering operators
    assert np.linalg.norm(reference_pf.a[0] @ phi00) < 1e-10 * np.linalg.norm(phi00)
    assert np.linalg.norm(reference_pf.a[1] @ phi00) < 1e-10 * np.linalg.norm(phi00)
    for raised, column in (
        (reference_pf.b[0] @ phi00, reference_pair.phi_vec(1, 0)),
        (reference_pf.b[1] @ phi00, reference_pair.phi_vec(0, 1)),
        (reference_pf.b[0] @ reference_pf.b[1] @ phi00, reference_pair.phi_vec(1, 1)),
    ):
        assert np.linalg.norm(raised - column) < 1e-10 * np.linalg.norm(column)


def test_eigen_relations(reference_pair, reference_generator, reference_spectrum):
    residuals = eigen_check(reference_pair, reference_generator)
    assert np.max(residuals) < 1e-9
    assert reference_pair.labels[0] == reference_spectrum.l3
    phi00 = reference_pair.phi_vec(0, 0)
    assert np.linalg.norm(reference_generator @ phi00 - reference_spectrum.l3 * phi00) \
        < 1e-10 * np.linalg.norm(phi00)


def test_eigen_relations_gauge_independent(reference_spectrum, reference_derived,
                                           reference_generator):
    T, _ = build_T(reference_spectrum, reference_derived, Gauge(2.0, 0.5, 3.0, 1.0))
    pair = build_bases(T, reference_spectrum)
    assert np.max(eigen_check(pair, reference_generator)) < 1e-9


def test_metric_maps(reference_pair, reference_pf):
    residuals = metric_map_check(reference_pair, reference_pf.S_phi, reference_pf.S_psi)
    assert np.max(residuals) < 1e-9


def test_metric_maps_identity_limit(reference_spectrum):
    pair = build_bases(np.eye(4), reference_spectrum)
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
    result = frame_bounds(reference_pair, reference_pf.S_phi, reference_pf.S_psi,
                          n_samples=200, seed=0)
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
    assert frame_bounds(pair, pf.S_phi, pf.S_psi, seed=seed)["within_bounds"]
    assert not frame_bounds(pair, pf.S_phi / 10, pf.S_psi * 10, seed=seed)["within_bounds"]


def test_export(reference_pair, reference_spectrum):
    payload = json.loads(json.dumps(reference_pair.to_dict()))
    assert len(payload["phi"]) == 4 and len(payload["psi"]) == 4
    for j, entry in enumerate(payload["phi"]):
        assert (entry["k"], entry["n"]) == KN_ORDER[j]
        assert len(entry["vector"]) == 4
    assert payload["phi"][0]["eigenvalue"] == pytest.approx(reference_spectrum.l3)
