"""Closed-form evolution against the RK4 oracle, adjoint/diagonal systems, serialization."""

import json
import math
from decimal import Decimal

import numpy as np
import pytest

from pfcircuit import (
    CircuitParams,
    Gauge,
    Model,
    build_T,
    build_bases,
    coefficients,
    coefficients_paper,
    derive,
    evolve_adjoint,
    evolve_closed,
    evolve_h0,
    evolve_rk4,
    initial_state,
    normalized,
    quartic_residual,
    spectrum,
)
from pfcircuit import dynamics as dyn
from pfcircuit import linalg
from pfcircuit.dynamics import (
    adjoint_circuit_map,
    display_series,
    format_float,
    format_floats,
    trajectory_columns,
)
from pfcircuit.errors import GridEmpty, ZeroSigma

TAU = np.linspace(0.0, 5.0, 1001)


@pytest.fixture(scope="module")
def reference_trajectory(reference_coefficients, reference_pair, reference_spectrum,
                         reference_params, reference_derived):
    return evolve_closed(reference_coefficients, reference_pair, reference_spectrum,
                         TAU, reference_params, reference_derived,
                         psi0=initial_state(1.0))


def test_initial_state_values():
    np.testing.assert_array_equal(initial_state(1.0), [0.0, 0.0, -1.0, 0.0])
    np.testing.assert_array_equal(initial_state(0.0), np.zeros(4))
    np.testing.assert_array_equal(initial_state(2.0, capacitance=0.5),
                                  [0.0, 0.0, -4.0, 0.0])
    # non-normalized units carry the omega0 factor
    np.testing.assert_allclose(initial_state(1.0, capacitance=2.0, omega0=0.5),
                               [0.0, 0.0, -1.0, 0.0])


def test_coefficients_of_basis_vector(reference_pair):
    c = coefficients(reference_pair.phi_vec(1, 1), reference_pair)
    np.testing.assert_allclose(c.vector, [0.0, 0.0, 0.0, 1.0], atol=1e-10)
    assert c.c11 == pytest.approx(1.0, abs=1e-10)


def test_coefficients_zero_current(reference_pair):
    c = coefficients(initial_state(0.0), reference_pair)
    np.testing.assert_array_equal(c.vector, np.zeros(4))


def test_coefficients_reconstruction(reference_pair):
    psi0 = initial_state(1.0)
    c = coefficients(psi0, reference_pair)
    recon = reference_pair.phi @ c.vector
    assert np.linalg.norm(recon - psi0) < 1e-12 * np.linalg.norm(psi0)


def _paper(model, coeffs=None, i1=1.0, capacitance=1.0):
    return coefficients_paper(model.coeffs if coeffs is None else coeffs, model.spec,
                              model.deltas, model.scales, i1, capacitance)


def test_paper_coefficient_comparison(reference_model):
    result = _paper(reference_model)
    assert np.isfinite(result.sigma) and result.sigma != 0.0
    assert result.printed.shape == (4,) and result.projection.shape == (4,)
    assert np.all(np.isfinite(result.relative_deviation))
    # the printed formulas are a reported channel; both values are exposed
    assert result.max_relative_deviation >= 0.0


def test_paper_coefficients_zero_current(reference_model):
    result = _paper(reference_model, coefficients(initial_state(0.0), reference_model.pair),
                    i1=0.0)
    np.testing.assert_array_equal(result.projection, np.zeros(4))
    # the printed numerators keep their current-free terms, so the relative
    # deviation saturates at 1 for every coefficient
    np.testing.assert_array_equal(result.relative_deviation, np.ones(4))


def test_paper_coefficient_projection_physical_units():
    # omega0 = 0.5 here, so the model's initial state must carry it, and its
    # coefficients must rebuild that state
    model = Model(CircuitParams(L=2.0, C=2.0, R=0.4, M=0.7, i1=1.0))
    assert model.derived.omega0 == pytest.approx(0.5)
    psi0 = initial_state(1.0, model.params.C, model.derived.omega0)
    np.testing.assert_array_equal(model.psi0, psi0)
    assert not np.array_equal(psi0, initial_state(1.0, model.params.C))
    recon = model.pair.phi @ model.coeffs.vector
    assert np.linalg.norm(recon - psi0) < 1e-12 * np.linalg.norm(psi0)
    np.testing.assert_array_equal(_paper(model, capacitance=model.params.C).projection,
                                  model.coeffs.vector)


def test_paper_sigma_guard(monkeypatch, reference_model):
    monkeypatch.setattr(dyn, "_paper_sigma", lambda *args: 0.0)
    with pytest.raises(ZeroSigma):
        _paper(reference_model)


def test_closed_form_initial_sample(reference_trajectory):
    np.testing.assert_array_equal(reference_trajectory.states[0], initial_state(1.0))
    assert reference_trajectory.I1[0] == 1.0
    assert reference_trajectory.I2[0] == 0.0


def test_closed_form_vs_rk4(reference_trajectory, reference_generator):
    oracle = evolve_rk4(reference_generator, initial_state(1.0), TAU)
    deviation = np.linalg.norm(reference_trajectory.states - oracle.states, axis=1)
    scale = np.maximum(1.0, np.linalg.norm(reference_trajectory.states, axis=1))
    assert np.max(deviation / scale) < 1e-6


def test_trajectory_gauge_invariance(reference_spectrum, reference_derived,
                                     reference_params, reference_trajectory):
    T2, _ = build_T(reference_spectrum, reference_derived, Gauge(2.0, 0.5, 3.0, 1.0))
    pair2 = build_bases(T2, reference_spectrum)
    psi0 = initial_state(1.0)
    traj2 = evolve_closed(coefficients(psi0, pair2), pair2, reference_spectrum,
                          TAU, reference_params, reference_derived, psi0=psi0)
    deviation = np.linalg.norm(reference_trajectory.states - traj2.states, axis=1)
    scale = np.maximum(1.0, np.linalg.norm(reference_trajectory.states, axis=1))
    assert np.max(deviation / scale) < 1e-10


def test_trajectory_current_relations(reference_trajectory, reference_params,
                                      reference_derived):
    cw = reference_params.C * reference_derived.omega0
    expected_i1 = (reference_trajectory.V1 / reference_params.R
                   - cw * reference_trajectory.V1p)
    expected_i2 = (-reference_trajectory.V2 / reference_params.R
                   - cw * reference_trajectory.V2p)
    scale = np.maximum(1.0, np.abs(expected_i1))
    assert np.max(np.abs(reference_trajectory.I1 - expected_i1) / scale) < 1e-10
    scale = np.maximum(1.0, np.abs(expected_i2))
    assert np.max(np.abs(reference_trajectory.I2 - expected_i2) / scale) < 1e-10


def test_closed_form_semigroup(reference_coefficients, reference_pair,
                               reference_spectrum, reference_params, reference_derived):
    stop = evolve_closed(reference_coefficients, reference_pair, reference_spectrum,
                         np.array([0.0, 1.3]), reference_params, reference_derived)
    restart = coefficients(stop.states[1], reference_pair)
    second = evolve_closed(restart, reference_pair, reference_spectrum,
                           np.array([0.0, 0.9]), reference_params, reference_derived)
    direct = evolve_closed(reference_coefficients, reference_pair, reference_spectrum,
                           np.array([0.0, 2.2]), reference_params, reference_derived)
    assert np.linalg.norm(second.states[1] - direct.states[1]) \
        < 1e-9 * np.linalg.norm(direct.states[1])


def test_asymptotic_slope(reference_trajectory, reference_spectrum):
    tail = reference_trajectory.tau >= 4.0
    norms = np.linalg.norm(reference_trajectory.states[tail], axis=1)
    slope = np.polyfit(reference_trajectory.tau[tail], np.log(norms), 1)[0]
    assert abs(slope - reference_spectrum.l4) < 1e-3


def test_display_extraction_agrees(reference_model, reference_trajectory):
    m = reference_model
    series = display_series(m.coeffs, m.spec, m.derived, m.params, m.deltas, m.scales, TAU)
    for name, expected in (("V1", reference_trajectory.V1),
                           ("V2", reference_trajectory.V2),
                           ("I1", reference_trajectory.I1),
                           ("I2", reference_trajectory.I2)):
        scale = np.maximum(1.0, np.abs(expected))
        assert np.max(np.abs(series[name] - expected) / scale) < 1e-9


def test_rk4_zero_generator():
    traj = evolve_rk4(np.zeros((4, 4)), np.array([1.0, -2.0, 3.0, 0.5]),
                      np.linspace(0.0, 2.0, 21))
    np.testing.assert_array_equal(traj.states, np.tile([1.0, -2.0, 3.0, 0.5], (21, 1)))


def test_rk4_diagonal_decay():
    rates = np.array([-1.0, -2.0, -3.0, -4.0])
    traj = evolve_rk4(np.diag(rates), np.ones(4), np.array([0.0, 1.0]))
    np.testing.assert_allclose(traj.states[1], np.exp(rates), atol=1e-10)


def test_rk4_order_of_convergence(reference_generator, monkeypatch):
    # on [0, 1] at the reference point the error-model bound (about 7.9e-3) is
    # above both steps, so each run takes 1/RK4_DEFAULT_STEP substeps
    psi0 = initial_state(1.0)
    grid = np.array([0.0, 1.0])
    exact = None
    errors = []
    for step in (2e-3, 1e-3):
        monkeypatch.setattr(dyn, "RK4_DEFAULT_STEP", step)
        approx = evolve_rk4(reference_generator, psi0, grid)
        if exact is None:
            from scipy.linalg import expm as scipy_expm
            exact = scipy_expm(reference_generator) @ psi0
        errors.append(np.linalg.norm(approx.states[1] - exact))
    ratio = errors[0] / errors[1]
    assert 12.0 < ratio < 20.0


def _stage_rk4(m, y, tau):
    """Reference RK4 in stage form at RK4_DEFAULT_STEP, the step evolve_rk4 takes at the
    reference point, one step at a time."""
    states = [y]
    for span in np.diff(tau):
        n_sub = max(1, round(span / dyn.RK4_DEFAULT_STEP))
        h = span / n_sub
        for _ in range(n_sub):
            k1 = m @ y
            k2 = m @ (y + 0.5 * h * k1)
            k3 = m @ (y + 0.5 * h * k2)
            k4 = m @ (y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(y)
    return np.array(states)


@pytest.mark.parametrize("grid", [
    TAU, np.array([0.0, 0.013, 0.05, 0.0501, 0.4, 0.75, 2.0, 5.0]),
    np.linspace(0.0, 5.0, 2), np.linspace(0.0, 5.0, 3),
    # one scan chunk of intervals, one more, and two chunks and one
    *(np.linspace(0.0, 1.0, n + 1) for n in (dyn.RK4_SCAN_CHUNK, dyn.RK4_SCAN_CHUNK + 1,
                                             2 * dyn.RK4_SCAN_CHUNK + 1)),
], ids=["uniform", "nonuniform", "2-samples", "3-samples", "chunk", "chunk+1", "2chunk+1"])
def test_rk4_propagator_equals_stage_form(reference_generator, grid):
    psi0 = initial_state(1.0)
    expected = _stage_rk4(reference_generator, psi0, grid)
    states = evolve_rk4(reference_generator, psi0, grid).states
    rel = np.linalg.norm(states - expected, axis=1) / np.linalg.norm(expected, axis=1)
    assert np.max(rel) <= 1e-13


def test_empty_grid_rejected(reference_coefficients, reference_pair,
                             reference_spectrum, reference_params, reference_derived):
    with pytest.raises(GridEmpty):
        evolve_closed(reference_coefficients, reference_pair, reference_spectrum,
                      np.array([]), reference_params, reference_derived)


def test_adjoint_eigenvector_decay(reference_pair, reference_spectrum):
    psi00 = reference_pair.psi_vec(0, 0)
    grid = np.linspace(0.0, 3.0, 31)
    traj = evolve_adjoint(psi00, reference_pair, reference_spectrum, grid)
    np.testing.assert_array_equal(traj.states[0], psi00)
    for idx, t in enumerate(grid):
        expected = np.exp(reference_spectrum.l3 * t) * psi00
        assert np.linalg.norm(traj.states[idx] - expected) \
            < 1e-9 * np.linalg.norm(expected)


def test_adjoint_metric_route(reference_pair, reference_spectrum, reference_pf,
                              reference_params, reference_derived,
                              reference_coefficients):
    psi0 = initial_state(1.0)
    x0 = np.linalg.solve(reference_pf.S_phi, psi0)
    grid = np.linspace(0.0, 5.0, 101)
    xtraj = evolve_adjoint(x0, reference_pair, reference_spectrum, grid)
    forward = evolve_closed(reference_coefficients, reference_pair,
                            reference_spectrum, grid, reference_params,
                            reference_derived, psi0=psi0)
    mapped = np.linalg.solve(reference_pf.S_phi, forward.states.T).T
    deviation = np.linalg.norm(xtraj.states - mapped, axis=1)
    scale = np.maximum(np.linalg.norm(mapped, axis=1), 1e-300)
    assert np.max(deviation / scale) < 1e-8


def test_adjoint_satisfies_adjoint_equation(reference_pair, reference_spectrum,
                                            reference_generator):
    rng = np.random.default_rng(61)
    x0 = rng.standard_normal(4)
    grid = np.linspace(0.0, 2.0, 21)
    traj = evolve_adjoint(x0, reference_pair, reference_spectrum, grid)
    derivative = traj.derivative(1)
    rhs = traj.states @ reference_generator  # (L^T x)^T = x^T L
    assert np.max(np.abs(derivative - rhs)) < 1e-9 * max(1.0, np.max(np.abs(rhs)))


def test_adjoint_identification_strict(reference_pair, reference_spectrum,
                                       reference_params, reference_derived,
                                       reference_pf):
    x0 = np.linalg.solve(reference_pf.S_phi, initial_state(1.0))
    grid = np.linspace(0.0, 5.0, 101)
    xtraj = evolve_adjoint(x0, reference_pair, reference_spectrum, grid)
    report = adjoint_circuit_map(xtraj, reference_params, reference_derived)
    assert report.strict
    assert report.max_residual < 1e-8
    np.testing.assert_array_equal(report.I1, xtraj.states[:, 0])
    np.testing.assert_array_equal(report.V1, -xtraj.states[:, 2])


def test_adjoint_identification_strict_rejects_physical_units(
        reference_pair, reference_spectrum):
    from pfcircuit import CircuitParams
    params = CircuitParams(L=2.0, C=1.0, R=np.sqrt(2.0) / 3.0, M=1.0, i1=1.0)
    derived = derive(params)
    spec = spectrum(derived)
    T, _ = build_T(spec, derived)
    pair = build_bases(T, spec)
    xtraj = evolve_adjoint(np.array([1.0, 0.5, -0.25, 0.75]), pair, spec,
                           np.linspace(0.0, 2.0, 11))
    report = adjoint_circuit_map(xtraj, params, derived)
    # L = 2 is not the normalized unit, so the extended identification is used
    assert not report.strict
    # the consistent rescaled identification satisfies the circuit relations
    assert report.max_residual < 1e-8
    # the printed -L*V relabeling does not; its failure is reported
    assert report.paper_literal_map_max_residual > 1e-3


def test_h0_trivial_solution(reference_spectrum):
    grid = np.array([0.0, 1.0])
    y0 = np.ones(4)
    traj = evolve_h0(reference_spectrum, y0, grid)
    np.testing.assert_array_equal(traj.states[0], y0)
    expected = np.exp(reference_spectrum.shifted_eigenvalues)
    np.testing.assert_allclose(traj.states[1], expected, rtol=1e-14)


def test_h0_matches_matrix_exponential(reference_spectrum, reference_pf):
    grid = np.linspace(0.0, 2.0, 9)
    y0 = np.array([1.0, -0.5, 2.0, 0.25])
    traj = evolve_h0(reference_spectrum, y0, grid)
    for idx, t in enumerate(grid):
        expected = linalg.expm(reference_pf.H0, t) @ y0
        assert np.max(np.abs(traj.states[idx] - expected)) \
            < 1e-12 * max(1.0, np.max(np.abs(expected)))


def test_quartic_residual(reference_trajectory, reference_derived):
    residuals = quartic_residual(reference_trajectory, reference_derived)
    assert residuals.shape == (TAU.size, 2)
    assert np.max(residuals) < 1e-8


def test_quartic_residual_single_mode(reference_pair, reference_spectrum,
                                      reference_params, reference_derived):
    from pfcircuit.dynamics import Coefficients
    coeffs = Coefficients(np.array([1.0, 0.0, 0.0, 0.0]))
    traj = evolve_closed(coeffs, reference_pair, reference_spectrum,
                         np.linspace(0.0, 5.0, 51), reference_params,
                         reference_derived)
    assert np.max(quartic_residual(traj, reference_derived)) < 1e-12


def test_quartic_residual_needs_modes(reference_generator):
    traj = evolve_rk4(reference_generator, initial_state(1.0), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        quartic_residual(traj, derive(normalized(0.5, 3.0)))


def _trajectory_csv(traj):
    columns = trajectory_columns(traj)
    cells = [map(format_float, c.tolist()) for c in columns.values()]
    return "".join(",".join(row) + "\n" for row in [list(columns), *zip(*cells)])


def test_csv_golden_first_row(reference_trajectory):
    lines = _trajectory_csv(reference_trajectory).splitlines()
    assert lines[0] == "tau,V1,V2,V1p,V2p,I1,I2"
    assert lines[1] == "0,0,0,-1,0,1,0"
    assert len(lines) == TAU.size + 1


def test_csv_float_round_trip(reference_trajectory):
    row = _trajectory_csv(reference_trajectory).splitlines()[500].split(",")  # data row 499
    assert float(row[0]) == reference_trajectory.tau[499]
    assert float(row[1]) == reference_trajectory.V1[499]
    assert float(row[5]) == reference_trajectory.I1[499]


def test_json_mirror(reference_trajectory):
    # simulate's json format dumps the column dict; its values format to the CSV's strings
    columns = trajectory_columns(reference_trajectory)
    payload = json.loads(json.dumps({name: c.tolist() for name, c in columns.items()}))
    assert list(payload) == ["tau", "V1", "V2", "V1p", "V2p", "I1", "I2"]
    np.testing.assert_array_equal(payload["V1p"], reference_trajectory.V1p)
    rows = _trajectory_csv(reference_trajectory).splitlines()[1:]
    assert [",".join(map(format_float, r)) for r in zip(*payload.values())] == rows


def test_format_float_negative_zero():
    assert format_float(-0.0) == "0"
    assert format_float(1.0) == "1"
    assert format_float(-1.5e-16) == "-1.5e-16"
    # 17 significant digits round-trip exactly
    assert float(format_float(1.0 / 3.0)) == 1.0 / 3.0


def _assert_formats_like_format_float(values):
    values = np.asarray(values, dtype=np.float64)
    got = format_floats(values).tolist()
    want = [format_float(v).encode() for v in values.tolist()]
    wrong = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not wrong, (len(wrong), wrong[:5])


def _ties(rng, per_exponent):
    """Doubles whose exact decimal value is a tie at 17 significant digits.

    I + odd/2^(e+1), with I an integer of 17 - e digits below 2^(52 - e), is
    exact in binary and has e + 1 fraction digits, the last of them 5.
    """
    ties = []
    for e in range(1, 13):
        whole = rng.integers(10 ** (16 - e), min(10 ** (17 - e), 2 ** (52 - e)), per_exponent)
        odd = 2 * rng.integers(0, 2**e, per_exponent) + 1
        ties.append(whole + odd / 2.0 ** (e + 1))
    return np.concatenate(ties)


def _around_powers_of_ten(ulps=5):
    # every decade of the doubles, subnormal ones included, and the ends of the
    # normal and subnormal range
    values = [np.nextafter(0.0, 1.0), 2.2250738585072014e-308]
    for power in range(-323, 309):
        up = down = float(f"1e{power}")
        values.append(up)
        for _ in range(ulps):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
            values += [up, down]
    return np.array(values)


def test_format_floats_matches_format_float():
    # 1.3 million values, against the scalar definition
    rng = np.random.default_rng(20261018)
    ties = _ties(rng, 20_000)
    sample = [Decimal(v).as_tuple() for v in ties[::997].tolist()]
    assert all(len(t.digits) == 18 and t.digits[-1] == 5 for t in sample)
    tiny = np.nextafter(0.0, 1.0)
    cases = {
        "bit patterns": rng.integers(0, 2**64, 300_000, dtype=np.uint64).view(np.float64),
        "log-uniform": np.exp(rng.uniform(np.log(1e-8), np.log(1e18), 400_000))
        * rng.choice([-1.0, 1.0], 400_000),
        "ties": np.concatenate([ties, -ties]),
        "powers of ten": np.concatenate([_around_powers_of_ten(), -_around_powers_of_ten()]),
        "special": np.array([0.0, -0.0, tiny, -tiny, 2.2250738585072009e-308, np.inf, -np.inf,
                             np.nan, 1e-4, -1e-4, 1e17, -1e17, 99999999999999984.0, 0.5]),
        "fixed notation only": np.exp(rng.uniform(np.log(1e-4), np.log(1e17), 100_000)),
        "exponent notation only": np.concatenate([
            rng.uniform(-1e-4, 1e-4, 10_000),
            np.exp(rng.uniform(np.log(1e17), np.log(1e300), 10_000))]),
        "exponent-notation ties": np.concatenate([_EXPONENT_TIES, -_EXPONENT_TIES]),
    }
    assert sum(map(len, cases.values())) > 1_000_000
    for values in cases.values():
        _assert_formats_like_format_float(values)


#: the doubles in exponent notation whose exact value is a tie at 17
#: significant digits: m * 2^-24 * 10^23 or m * 2^-25 * 10^24 is half an odd
#: integer in [1e16, 1e17) only for these m
_EXPONENT_TIES = np.array([m * 2.0**-24 for m in range(3, 16, 2)] + [2.0**-25, 3 * 2.0**-25])


def test_format_floats_hands_only_inf_nan_and_ties_to_format_float(monkeypatch):
    handed = []
    real = dyn.format_float

    def counting(x):
        handed.append(x)
        return real(x)

    monkeypatch.setattr(dyn, "format_float", counting)
    rng = np.random.default_rng(20261019)
    values = np.concatenate([rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64),
                             _around_powers_of_ten(), _EXPONENT_TIES, [np.inf, 0.0, -0.0]])
    format_floats(values)
    finite = [v for v in handed if math.isfinite(v)]
    assert sorted(finite) == sorted(_EXPONENT_TIES.tolist())
    assert len(handed) == len(finite) + np.count_nonzero(~np.isfinite(values))


def test_format_floats_keeps_the_shape():
    values = np.array([[0.25, -3.0, 1e-5], [1e20, -0.0, 12345.678]])
    fields = format_floats(values)
    assert fields.shape == values.shape and fields.dtype == np.dtype("S24")
    assert fields.tolist() == [[b"0.25", b"-3", b"1.0000000000000001e-05"],
                               [b"1e+20", b"0", b"12345.678"]]
