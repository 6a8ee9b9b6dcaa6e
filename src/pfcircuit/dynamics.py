"""Time evolution: closed form on the eigenbasis, oracles, and equivalent systems.

The closed-form solution expands the initial state over the phi family and
attaches e^{(k lambda1 + n lambda2 + l3) tau} to each term.  A classical RK4
integrator exists purely as an independent oracle.  The adjoint system (whose
eigenvectors are the psi family) and the trivial diagonal reference system are
solved by the same modal machinery.

Unit convention: everything runs in the dimensionless time tau.  The stored
state derivative components are tau-derivatives, so current extraction carries
the explicit omega0 factor, I = V/R - C*omega0*dV/dtau, and the standard
initial state is (0, 0, -i1/(C*omega0), 0).  In normalized units (omega0 = 1)
this reproduces the plain I = V/R - C*dV/dt relations verbatim.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import linalg
from .basis import KN_ORDER, BasisPair, expand
from .errors import GridEmpty, UnitMismatch, ZeroSigma
from .liouvillian import Spectrum
from .params import CircuitParams, DerivedParams
from .pfalgebra import Gauge, build_T

__all__ = [
    "Coefficients",
    "PaperCoefficientComparison",
    "StateTrajectory",
    "Trajectory",
    "AdjointCircuitReport",
    "initial_state",
    "coefficients",
    "coefficients_paper",
    "evolve_closed",
    "evolve_rk4",
    "evolve_adjoint",
    "adjoint_metric_route",
    "adjoint_circuit_map",
    "evolve_h0",
    "quartic_residual",
    "display_series",
    "trajectory_to_csv",
    "trajectory_to_json",
    "csv_text",
    "format_float",
]

RK4_DEFAULT_STEP = 1e-3

CSV_HEADER = "tau,V1,V2,V1p,V2p,I1,I2"


@dataclass(frozen=True)
class Coefficients:
    """Expansion weights of the initial state over the phi family."""

    c: np.ndarray
    """Shape (2, 2), indexed [k][n]."""

    @property
    def vector(self) -> np.ndarray:
        """Weights in column order (0,0), (1,0), (0,1), (1,1)."""
        return np.array([self.c[k, n] for k, n in KN_ORDER])

    @property
    def c11(self) -> float:
        """Weight of the dominant (growing) mode."""
        return float(self.c[1, 1])

    @classmethod
    def from_vector(cls, vec: np.ndarray) -> "Coefficients":
        c = np.zeros((2, 2))
        for value, (k, n) in zip(vec, KN_ORDER):
            c[k, n] = value
        return cls(c=c)


def initial_state(i1: float, capacitance: float = 1.0, omega0: float = 1.0) -> np.ndarray:
    """Standard initial condition V1 = V2 = I2 = 0, I1 = i1.

    Resolving the current relation at t = 0 puts the whole excitation in the
    first voltage's derivative: (0, 0, -i1/(C*omega0), 0) in tau-units.
    """
    return np.array([0.0, 0.0, -i1 / (capacitance * omega0), 0.0])


def coefficients(psi0: np.ndarray, pair: BasisPair) -> Coefficients:
    """Biorthogonal projection of the initial state; the authoritative path."""
    return Coefficients.from_vector(expand(pair, psi0))


def _paper_sigma(deltas: np.ndarray, l2: float, l4: float, capacitance: float) -> float:
    # The printed display has one unclosed bracket; the minimal closure appends
    # the missing parenthesis at the end, turning -2*l4*l2*(-2*(...)) into
    # +4*l4*l2*(...).  This channel is reported-only, never asserted.
    d21, d22, d23, d24 = deltas
    return capacitance * (
        (l4 * l4 + l2 * l2) * (d22 - d23) * d21 * d24
        + 4.0 * l4 * l2 * (d22 * d23 + d21 * (d22 + d23 - 2.0 * d24) + d22 * d24 + d23 * d24)
    )


@dataclass(frozen=True)
class PaperCoefficientComparison:
    """Printed coefficient formulas evaluated verbatim, next to the projection."""

    sigma: float
    printed: np.ndarray
    projection: np.ndarray
    relative_deviation: np.ndarray

    @property
    def max_relative_deviation(self) -> float:
        return float(np.max(self.relative_deviation))


def coefficients_paper(
    derived: DerivedParams,
    spec: Spectrum,
    gauge: Gauge,
    i1: float,
    capacitance: float = 1.0,
) -> PaperCoefficientComparison:
    """Evaluate the printed closed-form coefficients and compare to projection.

    The printed numerators attach i1 to only part of each term and the sigma
    display has suspect bracketing, so the deviation is returned for
    inspection, never asserted.  Raises :class:`ZeroSigma` if the printed
    denominator vanishes.
    """
    T, deltas = build_T(spec, derived, gauge)
    sigma = _paper_sigma(deltas, spec.l2, spec.l4, capacitance)
    if abs(sigma) < 1e-12:
        raise ZeroSigma(f"printed denominator sigma = {sigma}")
    d21, d22, d23, d24 = deltas
    t = gauge.as_array()
    l2, l4 = spec.l2, spec.l4
    printed = np.array([
        -(-l4 * (d22 - d23) + l2 * (d22 + d23 - 2.0 * d24) * i1) / (sigma * t[0]),
        -(-l2 * (d21 - d24) + l4 * (d21 + d24 - 2.0 * d23) * i1) / (sigma * t[1]),
        (l2 * (d21 - d24) + l4 * (d21 + d24 - 2.0 * d22) * i1) / (sigma * t[2]),
        (l4 * (d22 - d23) + l2 * (d22 + d23 - 2.0 * d21) * i1) / (sigma * t[3]),
    ])
    projection = linalg.inverse(T) @ initial_state(i1, capacitance, derived.omega0)
    deviation = np.abs(printed - projection) / np.maximum(
        np.maximum(np.abs(printed), np.abs(projection)), 1e-300
    )
    return PaperCoefficientComparison(
        sigma=float(sigma), printed=printed, projection=projection,
        relative_deviation=deviation,
    )


@dataclass(frozen=True)
class StateTrajectory:
    """Sampled 4-vector evolution, optionally with its modal decomposition.

    When ``mode_rates``/``mode_weights`` are present the trajectory is the
    exact exponential sum states(tau) = sum_j weights[j] * e^(rates[j] tau),
    and derivatives of any order are analytic.
    """

    tau: np.ndarray
    states: np.ndarray
    mode_rates: np.ndarray | None = None
    mode_weights: np.ndarray | None = None

    def derivative(self, order: int = 1) -> np.ndarray:
        """Analytic tau-derivative of the state samples; requires modal data."""
        if self.mode_rates is None or self.mode_weights is None:
            raise ValueError("trajectory carries no modal data; derivatives unavailable")
        scaled = self.mode_weights * (self.mode_rates[:, None] ** order)
        exps = np.exp(np.outer(self.mode_rates, self.tau))
        return (scaled.T @ exps).T


@dataclass(frozen=True)
class Trajectory(StateTrajectory):
    """State samples plus the circuit currents extracted from them."""

    I1: np.ndarray | None = None
    I2: np.ndarray | None = None

    @property
    def V1(self) -> np.ndarray:
        return self.states[:, 0]

    @property
    def V2(self) -> np.ndarray:
        return self.states[:, 1]

    @property
    def V1p(self) -> np.ndarray:
        return self.states[:, 2]

    @property
    def V2p(self) -> np.ndarray:
        return self.states[:, 3]


def _check_grid(tau_grid) -> np.ndarray:
    tau = np.asarray(tau_grid, dtype=float)
    if tau.ndim != 1 or tau.size == 0:
        raise GridEmpty("tau grid must be a nonempty 1-d array")
    if not np.all(np.isfinite(tau)) or tau[0] < 0.0:
        raise ValueError("tau grid must be finite and start at tau >= 0")
    return tau


def _modal(start: np.ndarray, rates: np.ndarray, weights: np.ndarray,
           tau_grid) -> StateTrajectory:
    """start + sum_j weights[j] (e^(rates[j] tau) - 1) on the grid, via expm1."""
    tau = _check_grid(tau_grid)
    states = start[None, :] + (weights.T @ np.expm1(np.outer(rates, tau))).T
    return StateTrajectory(tau=tau, states=states, mode_rates=rates, mode_weights=weights)


def _currents(states: np.ndarray, params: CircuitParams, derived: DerivedParams):
    scale = params.C * derived.omega0
    i1 = states[:, 0] / params.R - scale * states[:, 2]
    i2 = -states[:, 1] / params.R - scale * states[:, 3]
    return i1, i2


def evolve_closed(
    coeffs: Coefficients,
    pair: BasisPair,
    spec: Spectrum,
    tau_grid,
    params: CircuitParams,
    derived: DerivedParams,
    psi0: np.ndarray | None = None,
) -> Trajectory:
    """Exact solution as the four-term exponential sum over the phi family.

    When the initial state is supplied the sum is anchored there through
    expm1, so the tau = 0 sample reproduces it bitwise instead of freezing
    the basis-reconstruction roundoff into every row.
    """
    weights = (pair.phi * coeffs.vector[None, :]).T  # (mode, component)
    start = weights.sum(axis=0) if psi0 is None else linalg.as_vector(psi0)
    modal = _modal(start, spec.eigenvalues, weights, tau_grid)
    i1, i2 = _currents(modal.states, params, derived)
    return Trajectory(**vars(modal), I1=i1, I2=i2)


def evolve_rk4(
    liouvillian: np.ndarray,
    psi0: np.ndarray,
    tau_grid,
    substeps: int | None = None,
    params: CircuitParams | None = None,
    derived: DerivedParams | None = None,
) -> Trajectory:
    """Classical fourth-order Runge-Kutta oracle for Psi' = L Psi.

    ``substeps`` fixes the number of RK4 steps per grid interval; by default
    it is chosen so the step is about RK4_DEFAULT_STEP.  On a linear system
    one RK4 step of size h is exactly y <- P(h) y with the Taylor polynomial
    P(h) = I + hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24, so each interval applies
    P(h)^substeps, built once per distinct (span, substeps).  Currents are
    filled in only when circuit parameters are supplied.
    """
    tau = _check_grid(tau_grid)
    m = linalg.as_square(liouvillian, 4)
    states = np.empty((tau.size, 4))
    states[0] = y = linalg.as_vector(psi0)
    eye = np.eye(4)
    # (span, substeps) -> P(h)^substeps - I, kept as an increment because
    # forming I + (small) would round away the low bits of every step
    increments = {}
    for idx, span in enumerate(np.diff(tau).tolist(), start=1):
        n_sub = substeps if substeps is not None else max(1, round(span / RK4_DEFAULT_STEP))
        if n_sub < 1:
            raise ValueError(f"substeps must be >= 1, got {n_sub}")
        if (span, n_sub) not in increments:
            hm = (span / n_sub) * m
            step = inc = hm @ (eye + hm @ (eye + hm @ (eye + hm / 4.0) / 3.0) / 2.0)
            for _ in range(n_sub - 1):
                inc = inc + step + inc @ step  # (I + inc) P(h) - I
            increments[(span, n_sub)] = inc
        y = y + increments[(span, n_sub)] @ y
        states[idx] = y
    i1 = i2 = None
    if params is not None and derived is not None:
        i1, i2 = _currents(states, params, derived)
    return Trajectory(tau=tau, states=states, I1=i1, I2=i2)


def evolve_adjoint(
    x0: np.ndarray, pair: BasisPair, spec: Spectrum, tau_grid
) -> StateTrajectory:
    """Closed-form solution of X' = L^+ X on the psi family.

    The psi vectors are eigenvectors of the adjoint with the same eigenvalues,
    so the machinery is the modal sum again with weights <phi_kn, x0>.
    """
    x0 = linalg.as_vector(x0)
    weights = (pair.psi * (pair.phi.T @ x0)[None, :]).T
    return _modal(x0, spec.eigenvalues, weights, tau_grid)


def adjoint_metric_route(
    psi0: np.ndarray, closed: StateTrajectory, pair: BasisPair, spec: Spectrum
) -> tuple[StateTrajectory, float]:
    """Adjoint solution from S_phi^-1 Psi(0) and its largest relative gap to S_phi^-1 Psi(tau).

    S_phi = phi phi^+ is applied by linear solves, never by an explicit inverse.
    """
    s_phi = pair.phi @ pair.phi.T
    xtraj = evolve_adjoint(np.linalg.solve(s_phi, psi0), pair, spec, closed.tau)
    mapped = np.linalg.solve(s_phi, closed.states.T).T
    gap = np.linalg.norm(xtraj.states - mapped, axis=1) / np.maximum(
        np.linalg.norm(mapped, axis=1), 1e-300)
    return xtraj, float(np.max(gap))


@dataclass(frozen=True)
class AdjointCircuitReport:
    """Adjoint trajectory relabeled as circuit quantities, with residuals.

    ``residuals`` holds the scaled per-sample deviations from the four circuit
    relations (columns: both voltage equations, then both current equations).
    ``paper_literal_map_max_residual`` measures the printed "-L*V" relabeling
    in non-normalized units; it is reported, not asserted, because that map is
    not consistent with the circuit relations unless L = C = 1.
    """

    I1: np.ndarray
    I2: np.ndarray
    V1: np.ndarray
    V2: np.ndarray
    residuals: np.ndarray
    max_residual: float
    paper_literal_map_max_residual: float | None = None


def _circuit_relation_residuals(
    x: np.ndarray, dx: np.ndarray, v_scale: float,
    params: CircuitParams, derived: DerivedParams,
) -> np.ndarray:
    w0 = derived.omega0
    i1v, i2v = x[:, 0], x[:, 1]
    v1, v2 = -x[:, 2] / v_scale, -x[:, 3] / v_scale
    di1, di2 = dx[:, 0], dx[:, 1]
    dv1, dv2 = -dx[:, 2] / v_scale, -dx[:, 3] / v_scale
    r = np.empty((x.shape[0], 4))
    r[:, 0] = v1 - params.L * w0 * di1 - params.M * w0 * di2
    r[:, 1] = v2 - params.L * w0 * di2 - params.M * w0 * di1
    r[:, 2] = i1v - (v1 / params.R - params.C * w0 * dv1)
    r[:, 3] = i2v - (-v2 / params.R - params.C * w0 * dv2)
    scales = np.empty_like(r)
    scales[:, 0] = np.abs(v1) + params.L * w0 * np.abs(di1) + abs(params.M) * w0 * np.abs(di2)
    scales[:, 1] = np.abs(v2) + params.L * w0 * np.abs(di2) + abs(params.M) * w0 * np.abs(di1)
    scales[:, 2] = np.abs(i1v) + np.abs(v1) / params.R + params.C * w0 * np.abs(dv1)
    scales[:, 3] = np.abs(i2v) + np.abs(v2) / params.R + params.C * w0 * np.abs(dv2)
    floor = max(1e-12 * float(np.max(scales)), 1e-300)
    return np.abs(r) / np.maximum(scales, floor)


def adjoint_circuit_map(
    xtraj: StateTrajectory,
    params: CircuitParams,
    derived: DerivedParams,
    strict: bool = True,
) -> AdjointCircuitReport:
    """Relabel the adjoint trajectory as circuit quantities and verify them.

    Strict mode demands normalized units and uses the identification
    (x1, x2, x3, x4) -> (I1, I2, -V1, -V2).  Extended mode rescales the
    voltage components by C*omega0, the factor forced by the circuit
    relations, and additionally measures the printed "-L*V" relabeling.
    """
    if strict and (params.L != 1.0 or params.C != 1.0):
        raise UnitMismatch(
            f"strict identification requires L = C = 1, got L={params.L}, C={params.C}"
        )
    x = xtraj.states
    dx = xtraj.derivative(1)
    v_scale = 1.0 if strict else params.C * derived.omega0
    residuals = _circuit_relation_residuals(x, dx, v_scale, params, derived)
    paper_literal = None
    if not strict:
        literal = _circuit_relation_residuals(x, dx, params.L, params, derived)
        paper_literal = float(np.max(literal))
    return AdjointCircuitReport(
        I1=x[:, 0].copy(), I2=x[:, 1].copy(),
        V1=-x[:, 2] / v_scale, V2=-x[:, 3] / v_scale,
        residuals=residuals,
        max_residual=float(np.max(residuals)),
        paper_literal_map_max_residual=paper_literal,
    )


def evolve_h0(spec: Spectrum, y0: np.ndarray, tau_grid) -> StateTrajectory:
    """Trivial solution of Y' = H0 Y: each component scales by its own exponential."""
    y0 = linalg.as_vector(y0)
    return _modal(y0, spec.shifted_eigenvalues, np.diag(y0.astype(float)), tau_grid)


def quartic_residual(traj: StateTrajectory, derived: DerivedParams) -> np.ndarray:
    """Per-sample relative residual of the uncoupled fourth-order voltage ODE.

    Evaluates v'''' + (2 alpha - gamma^2) v'' + alpha^2 (1 - mu^2) v on both
    voltage components using the analytic modal derivatives, scaled by the
    largest single term contributing at each sample.  Shape (n, 2).
    """
    if traj.mode_rates is None or traj.mode_weights is None:
        raise ValueError("quartic residual needs a closed-form (modal) trajectory")
    a, g, m = derived.alpha, derived.gamma, derived.mu
    c2 = 2.0 * a - g * g
    c0 = a * a * (1.0 - m * m)
    rates = traj.mode_rates
    quartic = rates**4 + c2 * rates**2 + c0
    magnitude = rates**4 + abs(c2) * rates**2 + abs(c0)
    exps = np.exp(np.outer(rates, traj.tau))  # (mode, sample)
    out = np.empty((traj.tau.size, 2))
    for col in range(2):
        w = traj.mode_weights[:, col]
        residual = np.abs((w * quartic) @ exps)
        scale = (np.abs(w) * magnitude) @ exps
        out[:, col] = residual / np.maximum(scale, 1e-300)
    return out


def display_series(
    coeffs: Coefficients,
    spec: Spectrum,
    derived: DerivedParams,
    params: CircuitParams,
    gauge: Gauge,
    tau_grid,
) -> dict[str, np.ndarray]:
    """The explicit four-term displays for V_j and I_j, as an alternative path.

    Reconstructs the series from the coefficient/delta/gauge data alone (no
    matrix products), with the current weights (1/R -+ C*omega0*l) attached
    mode by mode.  Must agree with the state-layout extraction when fed the
    projection coefficients.
    """
    tau = _check_grid(tau_grid)
    _, deltas = build_T(spec, derived, gauge)
    t = gauge.as_array()
    c = coeffs.vector
    rates = spec.eigenvalues
    cw = params.C * derived.omega0
    r_inv = 1.0 / params.R
    exps = np.exp(np.outer(rates, tau))
    v1 = (c * deltas * t) @ exps
    v2 = (c * t) @ exps
    i1_weights = c * deltas * t * np.array([
        r_inv + cw * spec.l4, r_inv + cw * spec.l2,
        r_inv - cw * spec.l2, r_inv - cw * spec.l4,
    ])
    i2_weights = c * t * np.array([
        -r_inv + cw * spec.l4, -r_inv + cw * spec.l2,
        -r_inv - cw * spec.l2, -r_inv - cw * spec.l4,
    ])
    return {"V1": v1, "V2": v2, "I1": i1_weights @ exps, "I2": i2_weights @ exps}


def format_float(x: float) -> str:
    """17-significant-digit formatting with negative zero normalized."""
    if x == 0.0:
        return "0"
    return f"{x:.17g}"


def _trajectory_columns(traj: Trajectory, power=None, energy=None):
    columns = {
        "tau": traj.tau,
        "V1": traj.V1, "V2": traj.V2, "V1p": traj.V1p, "V2p": traj.V2p,
        "I1": traj.I1, "I2": traj.I2,
    }
    if traj.I1 is None:
        raise ValueError("trajectory has no current series; cannot serialize")
    if power is not None:
        columns["P1"] = power.p1
        columns["P2"] = power.p2
    if energy is not None:
        columns["E1"] = energy.e1
        columns["E2"] = energy.e2
    return columns


def csv_text(header: str, columns) -> str:
    """The header line, then one row per sample of the equal-length columns."""
    lines = [header]
    for row in zip(*columns):
        lines.append(",".join(format_float(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def trajectory_to_csv(traj: Trajectory, power=None, energy=None) -> str:
    """CSV serialization with 17-significant-digit numbers, deterministic."""
    columns = _trajectory_columns(traj, power, energy)
    return csv_text(",".join(columns), columns.values())


def trajectory_to_json(traj: Trajectory, power=None, energy=None) -> str:
    """Column-major JSON mirror of the CSV serialization."""
    columns = _trajectory_columns(traj, power, energy)
    payload = {name: [float(x) for x in col] for name, col in columns.items()}
    return json.dumps(payload, indent=2)
