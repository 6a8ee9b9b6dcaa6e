"""The identity suite behind ``pfcircuit verify``: named checks in a fixed order.

Calls go through the defining modules so that wrappers installed there see them.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import basis as basis_mod
from . import dynamics as dyn
from . import heisenberg as heis
from . import linalg
from . import observables as obs
from . import pfalgebra
from .errors import SeriesOverflow
from .model import Model

#: the log-slope checks fit the grid's tail tau >= SLOPE_TAIL * tau_max
SLOPE_TAIL = 0.8


def slope_tail(tau: np.ndarray) -> np.ndarray:
    """Mask of the grid samples that the log-slope checks fit a line through."""
    return tau >= SLOPE_TAIL * tau[-1]


def run_verification_suite(
    model: Model, tau: np.ndarray, seed: int = 20260810
) -> pfalgebra.VerificationReport:
    """Every asserted identity across the package, plus the reported channels.

    ``tau`` is the sample grid of the dynamics checks.
    """
    params, derived, spec, gen = model.params, model.derived, model.spec, model.generator
    pair, pf, psi0, coeffs = model.pair, model.pf, model.psi0, model.coeffs
    report = pfalgebra.VerificationReport()
    report.merge(pfalgebra.pf_verify(pf, gen), prefix="pfalgebra/")

    # --- basis ---
    report.add("basis/gram_identity", basis_mod.gram_residual(pair), 1e-10)
    r1, r2 = basis_mod.resolution_residuals(pair)
    report.add("basis/resolution_phi_psi", r1, 1e-10)
    report.add("basis/resolution_psi_phi", r2, 1e-10)
    report.add("basis/eigen_relations_max", float(np.max(basis_mod.eigen_check(pair, gen))), 1e-9)
    report.add("basis/metric_maps_max",
               float(np.max(basis_mod.metric_map_check(pair, pf.S_phi, pf.S_psi))), 1e-9)
    frame = basis_mod.frame_bounds(pair, pf.S_phi, pf.S_psi, seed=seed)
    report.add("basis/frame_bounds_within", 0.0 if frame["within_bounds"] else 1.0, 0.0)
    recon_res = 0.0
    for v in linalg.probes(seed, (10, 4)):
        w = basis_mod.expand(pair, v)
        recon_res = max(recon_res,
                        float(np.linalg.norm(basis_mod.reconstruct(pair, w) - v)
                              / np.linalg.norm(v)))
    report.add("basis/expansion_identity", recon_res, 1e-10)

    # --- dynamics ---
    with np.errstate(over="ignore", invalid="ignore"):
        closed = model.evolve(tau)
        row_scale = np.maximum(1.0, np.linalg.norm(closed.states, axis=1))
        pw = obs.power(closed, params, derived)
        en = obs.energy(closed, params)
    SeriesOverflow.check(tau[-1], closed.states, row_scale, pw.p1, pw.p2, en.e1, en.e2,
                         pw.max_relative_deviation, en.rewrite_max_relative_deviation)
    report.add(
        "dynamics/initial_state_reconstruction",
        float(np.linalg.norm(closed.states[0] - psi0)
              / max(1.0, np.linalg.norm(psi0))), 1e-12)
    rk4 = dyn.evolve_rk4(gen, psi0, tau)
    rel = np.linalg.norm(closed.states - rk4.states, axis=1) / row_scale
    report.add("dynamics/closed_vs_rk4_max_rel", float(np.max(rel)), 1e-6)

    # a second gauge relative to the run's, so the check never compares a gauge
    # with itself; unanchored on purpose: it reaches psi0 only through its own basis
    alt = replace(model, gauge=pfalgebra.Gauge(*model.gauge.as_array() * (2.0, 0.5, 3.0, 1.0)))
    closed2 = dyn.evolve_closed(alt.coeffs, alt.pair, spec, tau, params, derived)
    gauge_dev = np.linalg.norm(closed.states - closed2.states, axis=1) / row_scale
    report.add("dynamics/gauge_invariance", float(np.max(gauge_dev)), 1e-10)

    report.add("dynamics/quartic_residual_max",
               float(np.max(dyn.quartic_residual(closed, derived))), 1e-8)

    xtraj, metric_res = dyn.adjoint_metric_route(psi0, closed, pair, spec)
    report.add("dynamics/adjoint_metric_route", metric_res, 1e-8)
    adj = dyn.adjoint_circuit_map(xtraj, params, derived)
    report.add("dynamics/adjoint_identification_max", adj.max_residual, 1e-8)
    if adj.paper_literal_map_max_residual is not None:
        report.add("dynamics/reported_paper_literal_adjoint_map",
                   adj.paper_literal_map_max_residual, None)

    y0 = np.ones(4)
    h0_traj = dyn.evolve_h0(spec, y0, tau[:11])
    h0_dev = 0.0
    for idx, t in enumerate(h0_traj.tau):
        reference = linalg.expm(pf.H0, t) @ y0
        h0_dev = max(h0_dev, float(np.max(np.abs(h0_traj.states[idx] - reference))
                                   / max(1.0, np.max(np.abs(reference)))))
    report.add("dynamics/h0_vs_diagonal_expm", h0_dev, 1e-12)

    half = dyn.evolve_closed(coeffs, pair, spec, np.array([0.0, 1.3]), params, derived)
    coeffs_half = dyn.coefficients(half.states[1], pair)
    two_step = dyn.evolve_closed(coeffs_half, pair, spec, np.array([0.0, 0.9]), params, derived)
    direct = dyn.evolve_closed(coeffs, pair, spec, np.array([0.0, 2.2]), params, derived)
    semigroup = float(np.linalg.norm(two_step.states[1] - direct.states[1])
                      / max(np.linalg.norm(direct.states[1]), 1e-300))
    report.add("dynamics/semigroup", semigroup, 1e-9)

    display = dyn.display_series(coeffs, spec, derived, params, model.deltas, model.scales, tau)
    disp_dev = 0.0
    for name, series in (("V1", closed.V1), ("V2", closed.V2),
                         ("I1", closed.I1), ("I2", closed.I2)):
        scale = np.maximum(np.abs(series), 1.0)
        disp_dev = max(disp_dev, float(np.max(np.abs(display[name] - series) / scale)))
    report.add("dynamics/display_extraction_agreement", disp_dev, 1e-9)

    comparison = dyn.coefficients_paper(coeffs, spec, model.deltas, model.scales,
                                        params.i1, params.C)
    report.add("dynamics/reported_paper_coefficient_deviation",
               comparison.max_relative_deviation, None)
    report.add("dynamics/reported_paper_sigma", comparison.sigma, None)

    # --- observables ---
    report.add("observables/power_two_path_max", pw.max_relative_deviation, 1e-10)
    report.add("observables/energy_nonnegative",
               max(0.0, -float(min(np.min(en.e1), np.min(en.e2)))), 1e-12)
    gl = obs.classify_asymptotics(spec, derived, params, power_series=pw, coeffs=coeffs)
    if gl.measurement_consistent is not None:
        report.add("observables/power_tail_signs_match_prediction",
                   0.0 if gl.measurement_consistent else 1.0, 0.0)
    tail = slope_tail(tau)
    if abs(coeffs.c11) > obs.C11_THRESHOLD:
        slope_p1 = np.polyfit(tau[tail], np.log(np.abs(pw.p1[tail])), 1)[0]
        slope_e1 = np.polyfit(tau[tail], np.log(np.maximum(en.e1[tail], 1e-300)), 1)[0]
        report.add("observables/power_log_slope_error",
                   abs(slope_p1 - 2.0 * spec.l4), 1e-2)
        report.add("observables/energy_log_slope_error",
                   abs(slope_e1 - 2.0 * spec.l4), 1e-2)
    report.add("observables/reported_energy_rewrite_deviation",
               en.rewrite_max_relative_deviation, None)

    # --- heisenberg ---
    evo = heis.number_evolution(pf, np.linspace(0.0, heis.TAU_END, 31))
    for j, deviation in enumerate(evo.max_relative_deviation, 1):
        report.add(f"heisenberg/number_two_path_N{j}", deviation, 1e-8)
    for j, deviation in enumerate(evo.printed_order_max_relative_deviation, 1):
        report.add(f"heisenberg/reported_printed_order_deviation_N{j}", deviation, None)
    prod_res = max(heis.product_formula_residual(pf, t) for t in (0.5, 1.3, 2.7))
    report.add("heisenberg/product_formula", prod_res, 1e-9)
    expectation = 0.0
    # each row: the observable X (16 values), the state (4) and u for t in [0, TAU_END)
    for row in linalg.probes(seed + 1, (20, 21)):
        t = float(row[20] + 1.0) * heis.TAU_END / 2.0
        expectation = max(expectation, heis.expectation_consistency_residual(
            row[:16].reshape(4, 4), row[16:20], pf, t))
    report.add("heisenberg/expectation_consistency_max", expectation, 1e-8)
    bound = heis.growth_bound_report(evo, spec)
    finite = np.isfinite(bound.bound_constant_1) and np.isfinite(bound.bound_constant_2)
    report.add("heisenberg/growth_ratio_finite", 0.0 if finite else float("inf"), 0.0)
    report.add("heisenberg/reported_growth_constant_N1", bound.bound_constant_1, None)
    report.add("heisenberg/reported_growth_constant_N2", bound.bound_constant_2, None)
    report.add("heisenberg/reported_norm_N1_initial", bound.norm_n1_initial, None)
    report.add("heisenberg/reported_norm_N2_initial", bound.norm_n2_initial, None)
    report.add("heisenberg/effective_hamiltonian_route",
               heis.effective_hamiltonian_route_residual(gen, np.diag([1.0, 2.0, -1.0, 0.5]), 0.9),
               1e-9)
    return report
