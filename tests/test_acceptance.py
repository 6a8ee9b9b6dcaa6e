"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on the terminal.
"""

import contextlib
import math
from dataclasses import replace

import numpy as np

from conftest import sample_accepted
from pfcircuit import (
    Gauge,
    Model,
    classify_asymptotics,
    coefficients_paper,
    derive,
    energy,
    evolve_adjoint,
    evolve_h0,
    evolve_rk4,
    normalized,
    number_evolution,
    pf_verify,
    power,
    quartic_residual,
    spectrum,
    validate,
)
from pfcircuit import linalg
from pfcircuit.cli import EXIT_OK, main
from pfcircuit.dynamics import adjoint_circuit_map
from pfcircuit.heisenberg import (
    expectation_consistency_residual,
    growth_bound_report,
    product_formula_residual,
)
from pfcircuit.observables import energy_rewrite_deviation
from pfcircuit.verify import run_verification_suite

TAU = np.linspace(0.0, 5.0, 1001)


@contextlib.contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({title}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({title}): PASS")


def reference_stack():
    return Model(normalized(0.5, 3.0, i1=1.0))


def test_criterion_1_regime_and_spectrum():
    with criterion(1, "regime and spectrum"):
        derived = derive(normalized(0.5, 3.0))
        report = validate(derived)
        assert report.accepted
        assert abs(report.rho - 313.0 / 9.0) < 1e-12 * (313.0 / 9.0)
        spec = spectrum(derived, report)
        assert spec.l2 == -spec.l1 and spec.l4 == -spec.l3
        assert spec.l3 < spec.l1 < 0.0 < spec.l2 < spec.l4
        assert abs(spec.lambda3 - (spec.lambda1 + spec.lambda2)) < 1e-12
        # independent numeric quartic roots
        quartic = [1.0, 0.0, 2.0 * derived.alpha - derived.gamma**2, 0.0,
                   derived.alpha**2 * (1.0 - derived.mu**2)]
        roots = np.sort(np.roots(quartic).real)
        closed = np.sort([spec.l1, spec.l2, spec.l3, spec.l4])
        assert np.max(np.abs(closed - roots)) < 1e-9
        decoupled_derived = derive(normalized(0.0, 3.0))
        decoupled = spectrum(decoupled_derived, validate(decoupled_derived))
        assert abs(decoupled.l4 - (3.0 + math.sqrt(5.0)) / 2.0) < 1e-12


def test_criterion_2_algebraic_suite():
    with criterion(2, "algebraic suite"):
        required = {
            "a1_squared_zero", "b1_squared_zero", "a2_squared_zero",
            "b2_squared_zero", "anticommutator_a1_b1_is_identity",
            "anticommutator_a2_b2_is_identity", "cross_anticommutator_a1_b2",
            "cross_anticommutator_a2_b1", "N1_idempotent", "N2_idempotent",
            "commutator_N1_N2", "generator_reconstruction",
            "metric_phi_equals_TTadj", "metric_product_identity",
            "intertwining_Spsi_N1", "intertwining_Spsi_N2",
            "intertwining_Sphi_N1adj", "intertwining_Sphi_N2adj",
            "crypto_hermiticity", "n_hat1_symmetric", "n_hat2_symmetric",
        }

        def check(model):
            report = pf_verify(model.pf, model.generator)
            assert required <= set(report.checks)
            for name in required:
                entry = report.checks[name]
                assert entry["tolerance"] <= 1e-9
                assert entry["pass"], (name, entry["residual"])
            assert report.all_passed, report.failed()

        check(Model(normalized(0.5, 3.0)))
        rng = np.random.default_rng(2026)
        for mu, gamma in sample_accepted(rng, 50):
            gauge = Gauge(*rng.uniform(0.2, 3.0, size=4))
            check(Model(normalized(mu, gamma), gauge))


def test_criterion_3_basis_suite():
    with criterion(3, "basis suite"):
        from pfcircuit.basis import (
            eigen_check, gram_residual, metric_map_check, resolution_residuals,
        )
        model = reference_stack()
        pair = model.pair
        assert gram_residual(pair) < 1e-9
        assert max(resolution_residuals(pair)) < 1e-9
        assert np.max(eigen_check(pair, model.generator)) < 1e-9
        assert np.max(metric_map_check(pair, model.pf.S_phi, model.pf.S_psi)) < 1e-9


def test_criterion_4_dynamics():
    with criterion(4, "dynamics"):
        model = reference_stack()
        params, derived, spec, gen = model.params, model.derived, model.spec, model.generator
        pair, psi0 = model.pair, model.psi0
        closed = model.evolve(TAU)
        rk4 = evolve_rk4(gen, psi0, TAU)
        deviation = np.linalg.norm(closed.states - rk4, axis=1)
        scale = np.maximum(1.0, np.linalg.norm(closed.states, axis=1))
        assert np.max(deviation / scale) < 1e-6

        closed2 = replace(model, gauge=Gauge(2.0, 0.5, 3.0, 1.0)).evolve(TAU)
        gauge_dev = np.linalg.norm(closed.states - closed2.states, axis=1) / scale
        assert np.max(gauge_dev) < 1e-10

        assert np.max(quartic_residual(closed, derived)) < 1e-8

        pf = model.pf
        x0 = np.linalg.solve(pf.S_phi, psi0)
        xtraj = evolve_adjoint(x0, pair, spec, TAU)
        mapped = np.linalg.solve(pf.S_phi, closed.states.T).T
        metric_dev = (np.linalg.norm(xtraj.states - mapped, axis=1)
                      / np.maximum(np.linalg.norm(mapped, axis=1), 1e-300))
        assert np.max(metric_dev) < 1e-8

        residual, paper_literal = adjoint_circuit_map(xtraj, params, derived)
        assert paper_literal is None  # the strict identification
        assert residual < 1e-8

        y0 = np.array([1.0, -2.0, 0.5, 0.75])
        h0_traj = evolve_h0(spec, y0, TAU[:101])
        for idx, t in enumerate(h0_traj.tau):
            expected = y0 * np.exp(spec.shifted_eigenvalues * t)
            assert np.max(np.abs(h0_traj.states[idx] - expected)) \
                < 1e-12 * max(1.0, np.max(np.abs(expected)))


def test_criterion_5_observables():
    with criterion(5, "observables"):
        model = reference_stack()
        params, derived, spec = model.params, model.derived, model.spec
        traj = model.evolve(TAU)
        series = power(traj)
        assert series[0][0] == 0.0 and series[1][0] == 0.0
        tail = TAU >= 4.0
        assert np.all(series[0][tail] > 0.0)
        assert np.all(series[1][tail] < 0.0)
        assert spec.l4 < derived.gamma  # inside the power window
        for p in series:
            slope = np.polyfit(TAU[tail], np.log(np.abs(p[tail])), 1)[0]
            assert abs(slope - 2.0 * spec.l4) < 1e-2
        report = classify_asymptotics(spec, derived, params)
        # window booleans against direct inequality evaluation
        cw = params.C * derived.omega0
        assert report.power_window_ok == (
            (1.0 / params.R - cw * spec.l4 > 0.0)
            and (-1.0 / params.R - cw * spec.l4 < 0.0))
        rate = derived.omega0 * spec.l4
        assert report.energy_window_ok == (
            (derived.omega0**2 - derived.omega_p**2 - rate**2 < 0.0)
            and (derived.omega0**2 + derived.omega_p**2 - rate**2 > 0.0))
        en = energy(traj, params)
        assert np.min(en[0]) >= -1e-12 and np.min(en[1]) >= -1e-12


def test_criterion_6_heisenberg():
    with criterion(6, "heisenberg"):
        model = reference_stack()
        pf = model.pf
        rng = np.random.default_rng(99)
        for _ in range(20):
            x0 = rng.standard_normal((4, 4))
            state = rng.standard_normal(4)
            t = float(rng.uniform(0.0, 3.0))
            assert expectation_consistency_residual(x0, state, pf, t) < 1e-8
        grid = np.linspace(0.0, 3.0, 31)
        evo = number_evolution(pf, grid)
        assert evo.max_relative_deviation[0] < 1e-8
        assert evo.max_relative_deviation[1] < 1e-8
        for t in (0.4, 1.1, 2.6):
            assert product_formula_residual(pf, t) < 1e-9
        bound = growth_bound_report(evo, model.spec)
        assert np.isfinite(bound.bound_constant[0])
        assert np.isfinite(bound.bound_constant[1])


def test_criterion_7_reported_channels():
    with criterion(7, "reported-only channels"):
        model = reference_stack()
        params = model.params
        _, printed = coefficients_paper(model.spec, model.deltas, model.scales,
                                        params.i1, params.C)
        assert np.all(np.isfinite(linalg.relative_gap(printed, model.coeffs)))
        traj = model.evolve(TAU)
        assert np.isfinite(energy_rewrite_deviation(traj, energy(traj, params), params))
        norm_n1 = linalg.spectral_norm(model.pf.N[0])
        assert np.isfinite(norm_n1)
        # the channels are recorded in the verification report without a verdict
        # and therefore cannot gate its outcome
        report = run_verification_suite(model, np.linspace(0.0, 5.0, 201))
        reported = [name for name, c in report.checks.items() if c["pass"] is None]
        assert "dynamics/reported_paper_coefficient_deviation" in reported
        assert "observables/reported_energy_rewrite_deviation" in reported
        assert "heisenberg/reported_norm_N1_initial" in reported
        assert report.all_passed


def test_criterion_8_cli(tmp_path):
    with criterion(8, "command-line interface"):
        verify_dir = tmp_path / "verify"
        assert main(["verify", "--mu", "0.5", "--gamma", "3",
                     "--samples", "201", "--output", str(verify_dir)]) == EXIT_OK
        run_a = tmp_path / "a"
        run_b = tmp_path / "b"
        for out in (run_a, run_b):
            assert main(["simulate", "--mu", "0.5", "--gamma", "3",
                         "--output", str(out)]) == EXIT_OK
        assert (run_a / "trajectory.csv").read_bytes() \
            == (run_b / "trajectory.csv").read_bytes()
        assert (run_a / "plot_data.dat").read_bytes() \
            == (run_b / "plot_data.dat").read_bytes()
