"""The identity suite behind ``pfcircuit verify``: named checks in a fixed order.

Calls go through the defining modules so that wrappers installed there see them.
The log-slope and tail-sign checks read the closed form of psi0/||psi0||, with e^{l4 tau}
factored out, on a window that :func:`_asymptotic_window` works out from the model, not on
the caller's grid; verify alone decides where they apply and measures the tail signs itself.
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
from .errors import IllConditioned, SeriesOverflow
from .model import Model

#: the tolerance of the adjoint metric route, which ``adjoint`` reads too
ADJOINT_METRIC_TOL = 1e-8
#: c of each check whose roundoff goes as c*u*kappa(T)^2: n = 4 times its 4x4 operations
#: from T to the residual, times sqrt(n) = 2 for a Frobenius norm (derived in CHANGES.md)
KAPPA2_C = {"pfalgebra/metric_product_identity": 32.0, "basis/metric_maps_max": 16.0,
            **dict.fromkeys([f"pfalgebra/n_hat{j}_symmetric" for j in "12"], 112.0),
            **dict.fromkeys([f"pfalgebra/n_hat{j}_eigenvalues_binary" for j in "12"], 60.0),
            "dynamics/adjoint_metric_route": 32.0, "pfalgebra/generator_reconstruction": 48.0}
#: the dominant mode counts as populated where |c11 t24| exceeds this times ||psi0||
C11_THRESHOLD = 1e-12
#: the most the l4 + l2 mode may move a log-slope fitted on verify's asymptotic window: at
#: roundoff's size, so that the 1e-2 tolerance of those checks measures nothing else
SLOPE_EPS = 1e-12
#: the column factors of dynamics/gauge_invariance's second gauge, relative to the run's
SECOND_GAUGE = np.array([2.0, 0.5, 3.0, 1.0])
#: the seed of the frame-bound and expansion probes; the heisenberg probes take the next one
PROBE_SEED = 20260810


def _asymptotic_window(model: Model, s: float) -> np.ndarray:
    """64 samples on [t0, t0 + 8/g], g = l4 - l2, where P1 and E1 of psi0/s ride e^{2 l4 tau}.

    The dynamics are linear in psi0, so the unit state psi0/s, with s = ||psi0||, has the run's
    log-slopes and signs.  Past their e^{2 l4 tau} term, P1 and E1 carry an e^{(l4 + l2) tau}
    term, x = r e^{-g tau} of it, which moves the fitted log-slope by -g x/(1 + x).  From t0 on,
    |x| <= SLOPE_EPS/(g + SLOPE_EPS) for both, which bounds that move by SLOPE_EPS.
    """
    params, spec = model.params, model.spec
    v = model.coeffs[2:] / s * model.pair.phi[0, 2:]  # V1's weights on l2, l4
    (v2, v4), (i2, i4) = v, v * (1.0 / params.R - params.C * model.derived.omega0
                                 * spec.eigenvalues[2:])  # and I1's
    r = np.array([(v4 * i2 + v2 * i4) / (v4 * i4),  # P1, then E1
                  2.0 * (params.C * v4 * v2 + params.L * i4 * i2)
                  / (params.C * v4 * v4 + params.L * i4 * i4)])
    g = spec.l4 - spec.l2
    with np.errstate(divide="ignore"):  # r = 0: no such term, and t0 = 0
        t0 = max(0.0, float(np.log(np.max(np.abs(r)) * (g + SLOPE_EPS) / SLOPE_EPS)) / g)
    return np.linspace(t0, t0 + 8.0 / g, 64)


def refuse_ill_conditioned(name: str, residual: float, tolerance: float, kappa: float) -> None:
    """Refuse a failed kappa^2 check ``name`` whose bound c*u*kappa^2 reaches its tolerance."""
    bound = KAPPA2_C[name] * basis_mod.UNIT_ROUNDOFF * kappa * kappa
    if not residual <= tolerance and bound >= tolerance:
        raise IllConditioned(f"{name} residual {residual:.3e} exceeds {tolerance:.0e}, which its "
                             f"bound c*u*kappa^2 = {bound:.3e} reaches (kappa(T)={kappa:.6e})")


def run_verification_suite(model: Model, tau: np.ndarray) -> pfalgebra.VerificationReport:
    """Every asserted identity across the package, plus the reported channels.

    ``tau`` is the sample grid of the dynamics checks.  Every floor and threshold on the run's
    trajectory is in units of s = ||psi0||, its one scale: states, paths and modal weights are
    s times quantities that do not depend on i1.
    """
    params, derived, spec, gen = model.params, model.derived, model.spec, model.generator
    pair, pf, psi0, coeffs = model.pair, model.pf, model.psi0, model.coeffs
    s = max(float(np.linalg.norm(psi0)), 1e-300)
    report = pfalgebra.VerificationReport()
    algebra, n_hats = pfalgebra.pf_checks(pf, gen)
    report.merge(algebra, prefix="pfalgebra/")

    # --- basis ---
    report.add("basis/gram_identity", basis_mod.gram_residual(pair), 1e-10)
    r1, r2 = basis_mod.resolution_residuals(pair)
    report.add("basis/resolution_phi_psi", r1, 1e-10)
    report.add("basis/resolution_psi_phi", r2, 1e-10)
    report.add("basis/eigen_relations_max", float(np.max(basis_mod.eigen_check(pair, gen))), 1e-9)
    report.add("basis/metric_maps_max",
               float(np.max(basis_mod.metric_map_check(pair, pf.S_phi, pf.S_psi))), 1e-9)
    frame = basis_mod.frame_bounds(pair, tuple(w for w, _ in pf.metric_eigh), PROBE_SEED)
    report.add("basis/frame_bounds_within", 0.0 if frame["within_bounds"] else 1.0, 0.0)
    vectors = linalg.probes(PROBE_SEED, (10, 4))
    rebuilt = basis_mod.reconstruct(pair, basis_mod.expand(pair, vectors))
    report.add("basis/expansion_identity",
               float(np.max(np.linalg.norm(rebuilt - vectors, axis=1)
                            / np.linalg.norm(vectors, axis=1))), 1e-10)

    # --- dynamics ---
    with np.errstate(over="ignore", invalid="ignore"):
        closed = model.evolve(tau)
        row_scale = np.maximum(s, np.linalg.norm(closed.states, axis=1))
        pw = obs.power(closed)
        en = obs.energy(closed, params)
        pw_dev = obs.power_two_path_deviation(closed, pw, params, derived)
        en_dev = obs.energy_rewrite_deviation(closed, en, params)
    SeriesOverflow.check(tau[-1], closed.states, row_scale, pw, en, pw_dev, en_dev)
    report.add(
        "dynamics/initial_state_reconstruction",
        float(np.linalg.norm(closed.states[0] - psi0) / s), 1e-12)
    rk4 = dyn.evolve_rk4(gen, psi0, tau)
    rel = np.linalg.norm(closed.states - rk4, axis=1) / row_scale
    report.add("dynamics/closed_vs_rk4_max_rel", float(np.max(rel)), 1e-6)

    # a second gauge relative to the run's, so the check never compares a gauge
    # with itself; unanchored on purpose: it reaches psi0 only through its own basis
    # each column multiplied by its factor where the product stays a gauge, else divided by it
    gauge = model.gauge.as_array()
    times = gauge * SECOND_GAUGE
    multiply = (np.abs(times) > pfalgebra.GAUGE_MIN) & (np.abs(times) <= pfalgebra.GAUGE_MAX)
    alt = replace(model, gauge=pfalgebra.Gauge(*np.where(multiply, times, gauge / SECOND_GAUGE)))
    try:
        alt_pair = alt.pair
    except IllConditioned:  # name the run's kappa(T), which every other refusal names
        used = ", ".join(f"{f:g}" if m else f"1/{f:g}" for f, m in zip(SECOND_GAUGE, multiply))
        raise IllConditioned(f"dynamics/gauge_invariance's second gauge (the run's times {used}) "
                             f"has u*kappa^2 >= 1 at its kappa {np.linalg.cond(alt.T):.6e} "
                             f"(kappa(T)={pair.kappa:.6e})") from None
    closed2 = dyn.evolve_closed(alt.coeffs, alt_pair, spec, tau, params, derived)
    gauge_dev = np.linalg.norm(closed.states - closed2.states, axis=1) / row_scale
    report.add("dynamics/gauge_invariance", float(np.max(gauge_dev)), 1e-10)

    report.add("dynamics/quartic_residual_max",
               float(np.max(dyn.quartic_residual(closed, derived))), 1e-8)

    xtraj, metric_res = dyn.adjoint_metric_route(psi0, closed, pair, spec)
    report.add("dynamics/adjoint_metric_route", metric_res, ADJOINT_METRIC_TOL)
    adj_residual, paper_literal = dyn.adjoint_circuit_map(xtraj, params, derived)
    report.add("dynamics/adjoint_identification_max", adj_residual, 1e-8)
    if paper_literal is not None:
        report.add("dynamics/reported_paper_literal_adjoint_map", paper_literal, None)

    y0 = np.ones(4)  # a fixed state, so its own scale floors the rows, not s
    h0_traj = dyn.evolve_h0(spec, y0, tau[:11])
    reference = linalg.expm(pf.H0, h0_traj.tau) @ y0
    report.add("dynamics/h0_vs_diagonal_expm",
               float(np.max(np.max(np.abs(h0_traj.states - reference), axis=1)
                            / np.maximum(np.max(y0), np.max(np.abs(reference), axis=1)))), 1e-12)

    # steps of 1.3 and 0.9, shrunk onto a shorter grid so that no state leaves it
    t1, t2 = np.array([1.3, 0.9]) * min(1.0, tau[-1] / 2.2)
    half = dyn.evolve_closed(coeffs, pair, spec, np.array([0.0, t1]), params, derived)
    coeffs_half = basis_mod.expand(pair, half.states[1])
    two_step = dyn.evolve_closed(coeffs_half, pair, spec, np.array([0.0, t2]), params, derived)
    direct = dyn.evolve_closed(coeffs, pair, spec, np.array([0.0, t1 + t2]), params, derived)
    semigroup = float(np.linalg.norm(two_step.states[1] - direct.states[1])
                      / max(np.linalg.norm(direct.states[1]), 1e-300))
    report.add("dynamics/semigroup", semigroup, 1e-9)

    display = dyn.display_series(coeffs, spec, derived, params, model.deltas, model.scales, tau)
    paths = np.concatenate([closed.voltages, closed.currents])
    disp_dev = float(np.max(np.abs(display - paths) / np.maximum(np.abs(paths), s)))
    report.add("dynamics/display_extraction_agreement", disp_dev, 1e-9)

    paper = dyn.coefficients_paper(spec, model.deltas, model.scales, params.i1, params.C)
    printed = (None, None) if paper is None else (
        float(np.max(linalg.relative_gap(paper[1], coeffs))), paper[0])
    report.add("dynamics/reported_paper_coefficient_deviation", printed[0], None)
    report.add("dynamics/reported_paper_sigma", printed[1], None)

    # --- observables ---
    report.add("observables/power_two_path_max", pw_dev, 1e-10)
    report.add("observables/energy_nonnegative",
               max(0.0, -float(np.min(en))), 1e-12)
    gl = obs.classify_asymptotics(spec, derived, params)
    asymptotic = [(None, None)] * 3  # nothing rides an unpopulated dominant mode
    # c11 * t24 = coeffs[3] * T[1, 3], the dominant mode's amplitude in V2, which no gauge changes
    if abs(coeffs[3] * pair.phi[1, 3]) > C11_THRESHOLD * s:
        # psi0/s with every rate less l4: its log-slopes are the run's less 2 l4, its signs the
        # run's, and no sample can overflow
        window = _asymptotic_window(model, s)
        weights = (pair.phi * coeffs / s).T
        modal = dyn._modal(weights.sum(axis=0), spec.eigenvalues - spec.l4, weights, window)
        scaled = dyn.Trajectory(**vars(modal),
                                currents=dyn._currents(modal.states, params, derived))
        pw_window = obs.power(scaled)
        # the sign of each power's mean over the last tenth of the window, 6 of its 64 samples
        tail = ["+" if m >= 0.0 else "-" for m in np.mean(pw_window[:, -6:], axis=1).tolist()]
        slope_p = np.polyfit(window, np.log(np.abs(pw_window[0])), 1)[0]
        slope_e = np.polyfit(window, np.log(obs.energy(scaled, params)[0]), 1)[0]
        asymptotic = [(0.0 if tail == [gl.p1_diverges_to, gl.p2_diverges_to] else 1.0, 0.0),
                      (abs(slope_p), 1e-2), (abs(slope_e), 1e-2)]
    for name, (residual, tolerance) in zip(["observables/power_tail_signs_match_prediction",
                                            "observables/power_log_slope_error",
                                            "observables/energy_log_slope_error"], asymptotic):
        report.add(name, residual, tolerance)
    report.add("observables/reported_energy_rewrite_deviation", en_dev, None)

    # --- heisenberg ---
    # one Jacobi call decomposes the n-hat pair and the A^T A of N1(tau) and N2(tau), whose
    # members do not interact: each gets the bits of pf_verify's and number_evolution's calls
    tau_h = np.linspace(0.0, heis.TAU_END, 31)
    x = heis.sandwich(pf.N, pf, tau_h)
    w, _ = linalg.jacobi_eigh(np.concatenate([n_hats, linalg.gram(x.reshape(-1, 4, 4))]))
    pfalgebra.add_n_hat_spectra(algebra, w[:2])
    report.merge(algebra, prefix="pfalgebra/")  # the n-hat keys keep their place
    norms = linalg.norms_from_gram(w[2:]).reshape(x.shape[:-2])
    evo = heis.number_paths(pf, heis.ObservableTrajectory(tau=tau_h, X=x, norms=norms))
    for j, deviation in enumerate(evo.max_relative_deviation, 1):
        report.add(f"heisenberg/number_two_path_N{j}", deviation, 1e-8)
    for j, deviation in enumerate(evo.printed_order_max_relative_deviation, 1):
        report.add(f"heisenberg/reported_printed_order_deviation_N{j}", deviation, None)
    report.add("heisenberg/product_formula",
               float(np.max(heis.product_formula_residual(pf, np.array([0.5, 1.3, 2.7])))), 1e-9)
    # each row: the observable X (16 values), the state (4) and u for t in [0, TAU_END)
    rows = linalg.probes(PROBE_SEED + 1, (20, 21))
    times = (rows[:, 20] + 1.0) * heis.TAU_END / 2.0
    expectation = heis.expectation_consistency_residual(
        rows[:, :16].reshape(20, 4, 4), rows[:, 16:20], pf, times)
    report.add("heisenberg/expectation_consistency_max", float(np.max(expectation)), 1e-8)
    bound = heis.growth_bound_report(evo, spec)
    finite = np.all(np.isfinite(bound.bound_constant))
    report.add("heisenberg/growth_ratio_finite", 0.0 if finite else float("inf"), 0.0)
    for j, constant in enumerate(bound.bound_constant, 1):
        report.add(f"heisenberg/reported_growth_constant_N{j}", constant, None)
    for j, norm in enumerate(bound.norm_initial, 1):
        report.add(f"heisenberg/reported_norm_N{j}_initial", norm, None)
    report.add("heisenberg/effective_hamiltonian_route",
               heis.effective_hamiltonian_route_residual(gen, pf, np.diag([1.0, 2.0, -1.0, 0.5]),
                                                         0.9), 1e-9)
    for name in KAPPA2_C:
        check = report.checks[name]
        refuse_ill_conditioned(name, check["residual"], check["tolerance"], pair.kappa)
    return report
