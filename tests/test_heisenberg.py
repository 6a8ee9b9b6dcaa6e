"""Observable evolution under the non-self-adjoint generator."""

import math

import numpy as np
import pytest

from pfcircuit import evolve_observable, growth_bound_report, number_evolution
from pfcircuit import linalg
from pfcircuit.heisenberg import (
    effective_hamiltonian_route_residual,
    expectation_consistency_residual,
    norm_series_csv,
    product_formula_residual,
    shifted_propagator,
)
from pfcircuit.pfalgebra import fermion_generators

TAU = np.linspace(0.0, 3.0, 31)


@pytest.fixture(scope="module")
def number_evolutions(reference_pf, reference_spectrum):
    return (number_evolution(1, reference_pf, reference_spectrum, TAU),
            number_evolution(2, reference_pf, reference_spectrum, TAU))


def test_initial_observable_unchanged(reference_pf, reference_spectrum):
    x0 = np.diag([1.0, 2.0, 3.0, 4.0])
    traj = evolve_observable(x0, reference_pf, reference_spectrum, np.array([0.0, 1.0]))
    np.testing.assert_array_equal(traj.X[0], x0)


def test_identity_observable_stays_positive(reference_pf, reference_spectrum):
    traj = evolve_observable(np.eye(4), reference_pf, reference_spectrum, TAU)
    for idx in range(TAU.size):
        xt = traj.X[idx]
        assert np.max(np.abs(xt - xt.T)) < 1e-9 * np.linalg.norm(xt)
        assert np.min(np.linalg.eigvalsh((xt + xt.T) / 2.0)) > 0.0


def test_batched_evolution_matches_per_sample_sandwich(reference_pf, reference_spectrum):
    x0 = np.arange(16.0).reshape(4, 4) / 7.0 - 1.0
    traj = evolve_observable(x0, reference_pf, reference_spectrum, TAU)
    np.testing.assert_array_equal(traj.X[0], x0)
    for t, xt in zip(TAU, traj.X):
        e = shifted_propagator(reference_pf, reference_spectrum, t)
        expected = np.exp(2.0 * reference_spectrum.l3 * t) * (e.T @ x0 @ e)
        assert np.max(np.abs(xt - expected)) <= 1e-13 * max(1.0, np.max(np.abs(expected)))


def test_expectation_consistency(reference_pf, reference_spectrum):
    rng = np.random.default_rng(81)
    for _ in range(20):
        x0 = rng.standard_normal((4, 4))
        state = rng.standard_normal(4)
        tau = float(rng.uniform(0.0, 3.0))
        residual = expectation_consistency_residual(x0, state, reference_pf,
                                                    reference_spectrum, tau)
        assert residual < 1e-8


def test_number_two_path_agreement(number_evolutions):
    for evo in number_evolutions:
        assert evo.max_relative_deviation < 1e-8


def test_number_printed_order_deviates(number_evolutions):
    # the printed rearrangement commutes the opposite adjoint factor through
    # N_j, which is invalid here; the deviation is O(1) and reported
    for evo in number_evolutions:
        assert evo.printed_order_max_relative_deviation > 1e-2


def test_number_initial_sample(number_evolutions, reference_pf):
    for evo, n_op in zip(number_evolutions, (reference_pf.N1, reference_pf.N2)):
        assert np.max(np.abs(evo.generic.X[0] - n_op)) < 1e-12
        assert np.max(np.abs(evo.closed.X[0] - n_op)) < 1e-12


def test_scalar_expansion_identity(reference_pf):
    # e^{a N} = I + (e^a - 1) N for idempotent N, summed as a Taylor oracle
    a = 0.37
    n_op = reference_pf.N1
    series = np.eye(4)
    term = np.eye(4)
    for k in range(1, 30):
        term = term @ (a * n_op) / k
        series = series + term
    expansion = np.eye(4) + (math.exp(a) - 1.0) * n_op
    assert np.linalg.norm(series - expansion) < 1e-10 * np.linalg.norm(expansion)


def test_product_formula(reference_pf, reference_spectrum):
    for tau in (0.4, 1.3, 2.9):
        assert product_formula_residual(reference_pf, reference_spectrum, tau) < 1e-9


def test_propagator_matches_taylor_route(reference_pf, reference_spectrum,
                                         reference_generator):
    shifted = reference_generator - reference_spectrum.l3 * np.eye(4)
    for tau in (0.5, 1.7):
        via_eig = shifted_propagator(reference_pf, reference_spectrum, tau)
        via_taylor = linalg.expm(shifted, tau)
        assert np.linalg.norm(via_eig - via_taylor) \
            < 1e-9 * np.linalg.norm(via_taylor)


def test_growth_bound(number_evolutions, reference_spectrum):
    report = growth_bound_report(
        (number_evolutions[0].generic, number_evolutions[1].generic),
        reference_spectrum)
    assert np.isfinite(report.bound_constant_1)
    assert np.isfinite(report.bound_constant_2)
    assert np.all(report.ratios <= max(report.bound_constant_1 * report.norm_n1_initial,
                                       report.bound_constant_2 * report.norm_n2_initial)
                  + 1e-12)
    # the norm-one premise fails for non-orthogonal idempotents; reported
    assert report.norm_n1_initial > 1.0
    assert not report.premise_norm_one_1


def test_growth_premise_holds_in_orthogonal_limit(reference_spectrum):
    a1, _ = fermion_generators()
    projection = a1.T @ a1
    assert linalg.spectral_norm(projection) == pytest.approx(1.0, abs=1e-12)


def test_effective_hamiltonian_route(reference_generator):
    x0 = np.diag([1.0, 2.0, -1.0, 0.5])
    assert effective_hamiltonian_route_residual(reference_generator, x0, 0.9) < 1e-9


def test_norm_series_csv(number_evolutions, reference_spectrum):
    trajs = (number_evolutions[0].generic, number_evolutions[1].generic)
    text = norm_series_csv(trajs, growth_bound_report(trajs, reference_spectrum))
    lines = text.splitlines()
    assert lines[0] == "tau,normN1,normN2,ratio1,ratio2"
    assert len(lines) == TAU.size + 1
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(
        number_evolutions[0].generic.norms[0], rel=1e-15)
