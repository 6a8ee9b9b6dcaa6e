"""Observable evolution under the non-self-adjoint generator."""

import math

import numpy as np
import pytest

from pfcircuit import Gauge, Model, evolve_observable, growth_bound_report, normalized
from pfcircuit import linalg, number_evolution
from pfcircuit.cli import EXIT_OK, main
from pfcircuit.heisenberg import (
    effective_hamiltonian_route_residual,
    expectation_consistency_residual,
    product_formula_residual,
    shifted_propagator,
)
from pfcircuit.pfalgebra import fermion_generators

TAU = np.linspace(0.0, 3.0, 31)


@pytest.fixture(scope="module")
def number_evolutions(reference_pf):
    return number_evolution(reference_pf, TAU)


def test_initial_observable_unchanged(reference_pf):
    x0 = np.diag([1.0, 2.0, 3.0, 4.0])
    traj = evolve_observable(x0, reference_pf, np.array([0.0, 1.0]))
    np.testing.assert_array_equal(traj.X[0], x0)


def test_identity_observable_stays_positive(reference_pf):
    traj = evolve_observable(np.eye(4), reference_pf, TAU)
    for idx in range(TAU.size):
        xt = traj.X[idx]
        assert np.max(np.abs(xt - xt.T)) < 1e-9 * np.linalg.norm(xt)
        assert np.min(np.linalg.eigvalsh((xt + xt.T) / 2.0)) > 0.0


def test_batched_evolution_matches_per_sample_sandwich(reference_pf, reference_spectrum):
    x0 = np.arange(16.0).reshape(4, 4) / 7.0 - 1.0
    traj = evolve_observable(x0, reference_pf, TAU)
    assert traj.X.shape == (TAU.size, 4, 4) and traj.norms.shape == (TAU.size,)
    np.testing.assert_array_equal(traj.X[0], x0)
    for t, xt in zip(TAU, traj.X):
        e = shifted_propagator(reference_pf, t)
        expected = np.exp(2.0 * reference_spectrum.l3 * t) * (e.T @ x0 @ e)
        assert np.max(np.abs(xt - expected)) <= 1e-13 * max(1.0, np.max(np.abs(expected)))


def test_expectation_consistency(reference_pf):
    rng = np.random.default_rng(81)
    for _ in range(20):
        x0 = rng.standard_normal((4, 4))
        state = rng.standard_normal(4)
        tau = float(rng.uniform(0.0, 3.0))
        residual = expectation_consistency_residual(x0, state, reference_pf, tau)
        assert residual < 1e-8


def test_expectation_consistency_stack_matches_the_rows(reference_pf):
    rng = np.random.default_rng(82)
    x0, states, taus = rng.standard_normal((20, 4, 4)), rng.standard_normal((20, 4)), \
        rng.uniform(0.0, 3.0, 20)
    stacked = expectation_consistency_residual(x0, states, reference_pf, taus)
    rows = [expectation_consistency_residual(x, s, reference_pf, float(t))
            for x, s, t in zip(x0, states, taus)]
    assert stacked.shape == (20,) and all(isinstance(r, float) for r in rows)
    np.testing.assert_array_equal(stacked, rows)
    assert np.max(stacked) < 1e-8


def test_number_two_path_agreement(number_evolutions):
    for deviation in number_evolutions.max_relative_deviation:
        assert deviation < 1e-8


def test_number_printed_order_deviates(number_evolutions):
    # the printed rearrangement commutes the opposite adjoint factor through
    # N_j, which is invalid here; the deviation is O(1) and reported
    for deviation in number_evolutions.printed_order_max_relative_deviation:
        assert deviation > 1e-2


def test_number_initial_sample(number_evolutions, reference_pf):
    evo = number_evolutions
    for generic, closed, n_op in zip(evo.generic.X, evo.closed,
                                     reference_pf.N):
        assert np.max(np.abs(generic[0] - n_op)) < 1e-12
        assert np.max(np.abs(closed[0] - n_op)) < 1e-12


def test_scalar_expansion_identity(reference_pf):
    # e^{a N} = I + (e^a - 1) N for idempotent N, summed as a Taylor oracle
    a = 0.37
    n_op = reference_pf.N[0]
    series = np.eye(4)
    term = np.eye(4)
    for k in range(1, 30):
        term = term @ (a * n_op) / k
        series = series + term
    expansion = np.eye(4) + (math.exp(a) - 1.0) * n_op
    assert np.linalg.norm(series - expansion) < 1e-10 * np.linalg.norm(expansion)


def test_product_formula(reference_pf):
    for tau in (0.4, 1.3, 2.9):
        assert product_formula_residual(reference_pf, tau) < 1e-9


def test_propagator_matches_taylor_route(reference_pf, reference_spectrum,
                                         reference_generator):
    shifted = reference_generator - reference_spectrum.l3 * np.eye(4)
    stack = shifted_propagator(reference_pf, np.array([0.5, 1.7]))
    for tau, sliced in zip((0.5, 1.7), stack):
        via_eig = shifted_propagator(reference_pf, tau)
        via_taylor = linalg.expm(shifted, tau)
        for e in (via_eig, sliced):
            assert np.linalg.norm(e - via_taylor) < 1e-9 * np.linalg.norm(via_taylor)
        assert np.linalg.norm(sliced - via_eig) <= 1e-15 * np.linalg.norm(via_eig)
    at_zero = shifted_propagator(reference_pf, np.array([0.0, 1.0]))[0]
    assert np.max(np.abs(at_zero - np.eye(4))) < 1e-14


def test_number_evolution_norms_only_generic(reference_pf, monkeypatch):
    # the closed-form stack carries no norms: one Jacobi norm per generic sample
    # of both operators, all of them from one stacked call
    normed = []
    real_norm = linalg.spectral_norm

    def counting_norm(a):
        normed.append(len(a) if np.ndim(a) == 3 else 1)
        return real_norm(a)

    monkeypatch.setattr(linalg, "spectral_norm", counting_norm)
    number_evolution(reference_pf, np.linspace(0.0, 3.0, 31))
    assert normed == [62]


def test_growth_bound(number_evolutions, reference_spectrum):
    report = growth_bound_report(number_evolutions, reference_spectrum)
    assert np.isfinite(report.bound_constant[0])
    assert np.isfinite(report.bound_constant[1])
    assert np.all(report.ratios <= max(report.bound_constant[0] * report.norm_initial[0],
                                       report.bound_constant[1] * report.norm_initial[1])
                  + 1e-12)
    # the norm-one premise fails for non-orthogonal idempotents; reported
    assert report.norm_initial[0] > 1.0
    assert not report.premise_norm_one[0]


def test_growth_premise_holds_in_orthogonal_limit(reference_spectrum):
    a1, _ = fermion_generators()
    projection = a1.T @ a1
    assert linalg.spectral_norm(projection) == pytest.approx(1.0, abs=1e-12)


def test_effective_hamiltonian_route(reference_generator):
    x0 = np.diag([1.0, 2.0, -1.0, 0.5])
    assert effective_hamiltonian_route_residual(reference_generator, x0, 0.9) < 1e-9


def test_norm_series_csv(number_evolutions, reference_spectrum, tmp_path):
    # `heisenberg` on the TAU grid writes the fixture's norms and growth ratios
    assert main(["heisenberg", "--mu", "0.5", "--gamma", "3", "--tau-max", "3",
                 "--samples", str(TAU.size), "--output", str(tmp_path)]) == EXIT_OK
    lines = (tmp_path / "heisenberg.csv").read_text().splitlines()
    assert lines[0] == "tau,normN1,normN2,ratio1,ratio2"
    assert len(lines) == TAU.size + 1
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    norms = number_evolutions.generic.norms
    assert float(first[1]) == pytest.approx(norms[0, 0], rel=1e-15)
    ratios = growth_bound_report(number_evolutions, reference_spectrum).ratios
    written = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    np.testing.assert_allclose(written[:, 1], norms[0], rtol=1e-15)
    np.testing.assert_allclose(written[:, 2], norms[1], rtol=1e-15)
    np.testing.assert_allclose(written[:, 3:], ratios.T, rtol=1e-15)


def _single_operator_route(j, pf, tau):
    """N_j evolved alone, with its closed and printed forms written out for that operator.

    Returns the generic trajectory, the closed form, and the closed and printed
    maximum relative deviations from the generic path.
    """
    spec = pf.spectrum
    n_own, n_other = (pf.N[0], pf.N[1]) if j == 1 else (pf.N[1], pf.N[0])
    lam_own, lam_other = (spec.lambda1, spec.lambda2) if j == 1 else (spec.lambda2, spec.lambda1)
    generic = evolve_observable(n_own, pf, tau)

    def factor(n_op, rate):
        return np.eye(4) + np.multiply.outer(np.exp(rate * tau) - 1.0, n_op)

    prefactor = np.exp((2.0 * spec.l3 + lam_own) * tau)[:, None, None]
    closed = prefactor * (factor(n_other.T, lam_other) @ factor(n_own.T, lam_own) @ n_own
                          @ factor(n_other, lam_other))
    grow = (np.exp(lam_other * tau) - 1.0)[:, None, None]
    printed = prefactor * (factor(n_own.T, lam_own) @ n_own @ (
        np.eye(4) + grow * (n_other + n_other.T) + grow**2 * (n_other.T @ n_other)))
    scale = np.maximum(np.linalg.norm(generic.X, axis=(1, 2)), 1e-300)
    dev_closed, dev_printed = (float(np.max(np.linalg.norm(path - generic.X, axis=(1, 2)) / scale))
                               for path in (closed, printed))
    return generic, closed, dev_closed, dev_printed


@pytest.mark.parametrize("gauge", [Gauge(1.0, 1.0, 1.0, 1.0), Gauge(2.0, 0.5, 3.0, 1.0)],
                         ids=["unit", "2,0.5,3,1"])
def test_one_pass_matches_the_single_operator_route(gauge):
    # the stacked pass gives each operator the bits of evolving it alone
    model = Model(normalized(0.5, 3.0, i1=1.0), gauge)
    pf = model.pf
    evo = number_evolution(pf, TAU)
    assert evo.generic.X.shape == evo.closed.shape == (2, TAU.size, 4, 4)
    for k, j in enumerate((1, 2)):
        generic, closed, dev_closed, dev_printed = _single_operator_route(j, pf, TAU)
        assert evo.generic.tau.tobytes() == generic.tau.tobytes()
        assert evo.generic.X[k].tobytes() == generic.X.tobytes()
        assert evo.generic.norms[k].tobytes() == generic.norms.tobytes()
        assert evo.closed[k].tobytes() == closed.tobytes()
        assert evo.max_relative_deviation[k].hex() == dev_closed.hex()
        assert evo.printed_order_max_relative_deviation[k].hex() == dev_printed.hex()
