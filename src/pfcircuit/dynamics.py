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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .basis import BasisPair
from .liouvillian import Spectrum
from .params import CircuitParams, DerivedParams

__all__ = [
    "StateTrajectory",
    "Trajectory",
    "initial_state",
    "coefficients_paper",
    "evolve_closed",
    "evolve_rk4",
    "evolve_adjoint",
    "adjoint_metric_route",
    "adjoint_circuit_map",
    "evolve_h0",
    "quartic_residual",
    "display_series",
    "trajectory_columns",
    "format_float",
    "format_floats",
]

RK4_DEFAULT_STEP = 1e-3
#: relative error the RK4 oracle aims for at the end of its grid: a tenth of
#: the 1e-6 that verify's closed_vs_rk4 check allows
RK4_TARGET_ERROR = 1e-7
#: intervals per chunk of evolve_rk4, whose (chunk, 4, 4) stack bounds its memory
RK4_SCAN_CHUNK = 1024
#: the sign of the resistance term of each sub-circuit, gain then loss, as a
#: column that broadcasts over the (2, n) stacks of the twins' formulas
GAIN_LOSS_SIGN = np.array([[1.0], [-1.0]])


def initial_state(i1: float, capacitance: float, omega0: float) -> np.ndarray:
    """Standard initial condition V1 = V2 = I2 = 0, I1 = i1.

    Resolving the current relation at t = 0 puts the whole excitation in the
    first voltage's derivative: (0, 0, -i1/(C*omega0), 0) in tau-units.
    """
    return np.array([0.0, 0.0, -i1 / (capacitance * omega0), 0.0])


def _paper_sigma(deltas: np.ndarray, l2: float, l4: float) -> float:
    # The dimensionless bracket of the printed sigma = C * (...).  The display
    # has one unclosed bracket; the minimal closure appends the missing
    # parenthesis at the end, turning -2*l4*l2*(-2*(...)) into +4*l4*l2*(...).
    # This channel is reported-only, never asserted.
    d21, d22, d23, d24 = deltas
    return (
        (l4 * l4 + l2 * l2) * (d22 - d23) * d21 * d24
        + 4.0 * l4 * l2 * (d22 * d23 + d21 * (d22 + d23 - 2.0 * d24) + d22 * d24 + d23 * d24)
    )


def coefficients_paper(
    spec: Spectrum,
    deltas: np.ndarray,
    t: np.ndarray,
    i1: float,
    capacitance: float,
) -> tuple[float, np.ndarray] | None:
    """``(sigma, printed)``: the printed closed-form coefficients, evaluated verbatim.

    ``deltas`` and the column scales ``t`` are those of the intertwiner whose
    projection the printed weights are compared with, so no inverse is taken
    here.  The printed numerators attach i1 to only part of each term and the
    sigma display has suspect bracketing, so the weights are for inspection,
    never asserted.  Returns None when the dimensionless bracket of the printed
    denominator is below 1e-12 in magnitude or not finite (its products of
    deltas overflow at small coupling): the printed formulas give no number
    there, and nothing asserted depends on them.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        bracket = _paper_sigma(deltas, spec.l2, spec.l4)
    if not 1e-12 <= abs(bracket) < np.inf:
        return None
    sigma = capacitance * bracket
    d21, d22, d23, d24 = deltas
    l2, l4 = spec.l2, spec.l4
    printed = np.array([
        -(-l4 * (d22 - d23) + l2 * (d22 + d23 - 2.0 * d24) * i1) / (sigma * t[0]),
        -(-l2 * (d21 - d24) + l4 * (d21 + d24 - 2.0 * d23) * i1) / (sigma * t[1]),
        (l2 * (d21 - d24) + l4 * (d21 + d24 - 2.0 * d22) * i1) / (sigma * t[2]),
        (l4 * (d22 - d23) + l2 * (d22 + d23 - 2.0 * d21) * i1) / (sigma * t[3]),
    ])
    return float(sigma), printed


@dataclass(frozen=True)
class StateTrajectory:
    """Sampled 4-vector evolution with its modal decomposition.

    The trajectory is the exact exponential sum
    states(tau) = sum_j weights[j] * e^(rates[j] tau), so its derivative is analytic.
    """

    tau: np.ndarray
    states: np.ndarray
    mode_rates: np.ndarray
    mode_weights: np.ndarray

    def derivative(self) -> np.ndarray:
        """Analytic tau-derivative of the state samples."""
        scaled = self.mode_weights * self.mode_rates[:, None]
        exps = np.exp(np.outer(self.mode_rates, self.tau))
        return (scaled.T @ exps).T


@dataclass(frozen=True, kw_only=True)
class Trajectory(StateTrajectory):
    """State samples plus the circuit currents extracted from them."""

    currents: np.ndarray
    """(I1, I2) as a (2, n) stack, gain circuit first."""

    @property
    def voltages(self) -> np.ndarray:
        """(V1, V2) as a (2, n) view of the states."""
        return self.states[:, :2].T

    @property
    def dvoltages(self) -> np.ndarray:
        """(dV1/dtau, dV2/dtau) as a (2, n) view of the states."""
        return self.states[:, 2:].T


def _modal(start: np.ndarray, rates: np.ndarray, weights: np.ndarray,
           tau_grid) -> StateTrajectory:
    """start + sum_j weights[j] (e^(rates[j] tau) - 1) on the grid, via expm1."""
    tau = np.asarray(tau_grid, dtype=float)
    states = start[None, :] + (weights.T @ np.expm1(np.outer(rates, tau))).T
    return StateTrajectory(tau=tau, states=states, mode_rates=rates, mode_weights=weights)


def _currents(states: np.ndarray, params: CircuitParams, derived: DerivedParams) -> np.ndarray:
    """(I1, I2) as a (2, n) stack: I_j = +-V_j/R - C*omega0*dV_j/dtau."""
    currents = GAIN_LOSS_SIGN * states[:, :2].T
    currents /= params.R
    currents -= params.C * derived.omega0 * states[:, 2:].T
    return currents


def evolve_closed(
    coeffs: np.ndarray,
    pair: BasisPair,
    spec: Spectrum,
    tau_grid,
    params: CircuitParams,
    derived: DerivedParams,
    psi0: np.ndarray | None = None,
) -> Trajectory:
    """Exact solution as the four-term exponential sum over the phi family.

    ``coeffs`` are the weights of :func:`basis.expand`.  When the initial
    state is supplied the sum is anchored there through expm1, so the tau = 0
    sample reproduces it bitwise instead of freezing the basis-reconstruction
    roundoff into every row.
    """
    weights = (pair.phi * coeffs[None, :]).T  # (mode, component)
    start = weights.sum(axis=0) if psi0 is None else psi0
    modal = _modal(start, spec.eigenvalues, weights, tau_grid)
    return Trajectory(**vars(modal), currents=_currents(modal.states, params, derived))


def _compose(later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """(I + later)(I + earlier) - I, for increments or stacks of them.

    Propagators stay in increment form because forming I + (small) would
    round away the low bits of every step.
    """
    out = later @ earlier
    out += later
    out += earlier
    return out


def _power(inc: np.ndarray, n: int) -> np.ndarray:
    """(I + inc)^n - I for n >= 1, by binary powering in increment form."""
    result = None
    while True:
        if n & 1:
            result = inc if result is None else _compose(result, inc)
        n >>= 1
        if not n:
            return result
        inc = _compose(inc, inc)


def evolve_rk4(liouvillian: np.ndarray, psi0: np.ndarray, tau_grid) -> np.ndarray:
    """Classical fourth-order Runge-Kutta oracle for Psi' = L Psi: the (n, 4) states on the grid.

    The target step is h = min(RK4_DEFAULT_STEP, z/r), with r = ||L||_inf,
    which bounds every |eigenvalue| without reading the closed form.  One step
    misses e^{h lambda} by about (h r)^5/120, so the relative error at tau_end
    is about tau_end r (h r)^4/120, and z makes that RK4_TARGET_ERROR.  Each
    interval takes max(1, round(span/h)) steps.  Rounding costs at most a
    factor (1.5)^4 in error, still below 1e-6, where ceil would turn
    0.005/1e-3 = 5.000000000000001 into six steps.  On a linear system one RK4
    step of size h is exactly y <- P(h) y with the Taylor polynomial
    P(h) = I + hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24, so an interval applies
    P(h)^substeps - I.  The distinct spans form one (k, 4, 4) stack, powered by
    binary powering once per distinct substep count.

    The intervals' propagators then compose in blocks of b = ceil(sqrt(m))
    intervals of a chunk of m: first the prefix products D inside every block,
    one batched composition per position in the block; then the state y
    carried across the block ends, one mat-vec per block; then every sample,
    y + D @ y with its block's y, in one batched mat-vec.  The chunks hold
    RK4_SCAN_CHUNK intervals, each starting from the state the previous one
    ended at, so its (chunk, 4, 4) stack bounds the memory.  Python steps: per
    chunk, about 2 sqrt(m) for O(m) compositions, and per distinct substep
    count of the grid, log2(substeps) powering steps; none is per sample.
    """
    tau = np.asarray(tau_grid, dtype=float)
    r, tau_end = float(np.linalg.norm(liouvillian, np.inf)), float(tau[-1])
    h = RK4_DEFAULT_STEP
    if tau_end * r > 0.0:
        h = min(h, (120.0 * RK4_TARGET_ERROR / (tau_end * r)) ** 0.25 / r)
    spans, which = np.unique(np.diff(tau), return_inverse=True)
    n_sub = np.maximum(1.0, np.round(spans / h))  # whole floats: no int64 overflow
    hm = (spans / n_sub)[:, None, None] * liouvillian
    eye = np.eye(4)
    increments = hm @ (eye + hm @ (eye + hm @ (eye + hm / 4.0) / 3.0) / 2.0)  # P(h) - I
    for n in set(n_sub.tolist()):
        increments[n_sub == n] = _power(increments[n_sub == n], int(n))  # P(h)^n - I
    states = np.empty((tau.size, 4))
    states[0] = y = psi0
    for start in range(0, which.size, RK4_SCAN_CHUNK):
        m = min(RK4_SCAN_CHUNK, which.size - start)
        b = math.isqrt(m - 1) + 1
        blocks = -(-m // b)
        # position-major: prefix[k, i] is interval k of block i, and then the
        # product of that block's intervals 0..k
        prefix = increments[np.pad(which[start:start + m], (0, blocks * b - m)).reshape(-1, b).T]
        prefix[m - (blocks - 1) * b:, -1] = 0.0  # the last block's padding: the identity
        for k in range(1, b):
            prefix[k] = _compose(prefix[k], prefix[k - 1])
        carried = np.empty((blocks, 4, 1))  # the state at each block's start
        carried[0, :, 0] = y
        for i in range(1, blocks):
            carried[i] = carried[i - 1] + prefix[-1, i - 1] @ carried[i - 1]
        samples = (carried + prefix @ carried).transpose(1, 0, 2, 3)
        states[start + 1:start + 1 + m] = samples.reshape(-1, 4)[:m]
        y = states[start + m]
    return states


def evolve_adjoint(
    x0: np.ndarray, pair: BasisPair, spec: Spectrum, tau_grid
) -> StateTrajectory:
    """Closed-form solution of X' = L^+ X on the psi family.

    The psi vectors are eigenvectors of the adjoint with the same eigenvalues,
    so the machinery is the modal sum again with weights <phi_kn, x0>.
    """
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


def _circuit_relation_residuals(
    x: np.ndarray, dx: np.ndarray, v_scale: float,
    params: CircuitParams, derived: DerivedParams,
) -> np.ndarray:
    # columns (I1, I2) and (V1, V2); the mutual inductance couples each
    # voltage to the other circuit's current, the swapped column
    w0 = derived.omega0
    i, di = x[:, :2], dx[:, :2]
    v, dv = -x[:, 2:] / v_scale, -dx[:, 2:] / v_scale
    r = np.empty((x.shape[0], 4))
    r[:, :2] = v - params.L * w0 * di - params.M * w0 * di[:, ::-1]
    r[:, 2:] = i - (GAIN_LOSS_SIGN.T * v / params.R - params.C * w0 * dv)
    scales = np.empty_like(r)
    scales[:, :2] = np.abs(v) + params.L * w0 * np.abs(di) + abs(params.M) * w0 * np.abs(di[:, ::-1])
    scales[:, 2:] = np.abs(i) + np.abs(v) / params.R + params.C * w0 * np.abs(dv)
    floor = max(1e-12 * float(np.max(scales)), 1e-300)
    return np.abs(r) / np.maximum(scales, floor)


def adjoint_circuit_map(
    xtraj: StateTrajectory, params: CircuitParams, derived: DerivedParams
) -> tuple[float, float | None]:
    """The largest scaled deviation of the relabeled adjoint trajectory from the circuit relations.

    In normalized units (L = C = 1) the identification is the strict
    (x1, x2, x3, x4) -> (I1, I2, -V1, -V2).  Otherwise it is extended: the
    voltage components are rescaled by C*omega0, the factor forced by the
    circuit relations.  The second value measures the printed "-L*V"
    relabeling in the extended case, and is None in the strict one; it is
    reported, not asserted, because that map is not consistent with the
    circuit relations unless L = C = 1.
    """
    strict = params.L == 1.0 and params.C == 1.0
    x = xtraj.states
    dx = xtraj.derivative()
    v_scale = 1.0 if strict else params.C * derived.omega0
    residual = float(np.max(_circuit_relation_residuals(x, dx, v_scale, params, derived)))
    if strict:
        return residual, None
    return residual, float(np.max(_circuit_relation_residuals(x, dx, params.L, params, derived)))


def evolve_h0(spec: Spectrum, y0: np.ndarray, tau_grid) -> StateTrajectory:
    """Trivial solution of Y' = H0 Y: each component scales by its own exponential."""
    return _modal(y0, spec.shifted_eigenvalues, np.diag(y0), tau_grid)


def quartic_residual(traj: StateTrajectory, derived: DerivedParams) -> np.ndarray:
    """Per-sample relative residual of the uncoupled fourth-order voltage ODE.

    Evaluates v'''' + (2 alpha - gamma^2) v'' + alpha^2 (1 - mu^2) v on both
    voltage components using the analytic modal derivatives, scaled by the
    largest single term contributing at each sample.  Shape (2, n).
    """
    a, g, m = derived.alpha, derived.gamma, derived.mu
    c2 = 2.0 * a - g * g
    c0 = a * a * (1.0 - m * m)
    rates = traj.mode_rates
    quartic = rates**4 + c2 * rates**2 + c0
    magnitude = rates**4 + abs(c2) * rates**2 + abs(c0)
    exps = np.exp(np.outer(rates, traj.tau))  # (mode, sample)
    return np.stack([np.abs((w * quartic) @ exps) / np.maximum((np.abs(w) * magnitude) @ exps, 1e-300)
                     for w in traj.mode_weights[:, :2].T])


def display_series(
    coeffs: np.ndarray,
    spec: Spectrum,
    derived: DerivedParams,
    params: CircuitParams,
    deltas: np.ndarray,
    t: np.ndarray,
    tau_grid,
) -> np.ndarray:
    """The explicit four-term displays, rows (V1, V2, I1, I2), as an alternative path.

    Reconstructs the series from the coefficients and the intertwiner's deltas
    and column scales ``t`` alone (no matrix products), with the current
    weights +-1/R - C*omega0*l attached mode by mode.  Must agree with the
    state-layout extraction when fed the projection coefficients.
    """
    tau = np.asarray(tau_grid, dtype=float)
    rates = spec.eigenvalues
    exps = np.exp(np.outer(rates, tau))
    # V1, V2 per mode; delta * t is finite
    weights = np.stack([coeffs * (deltas * t), coeffs * t])
    # the spectrum sets l1 = -l2 and l3 = -l4 by exact negation, so -C*omega0*l
    # over (l3, l1, l2, l4) is the display's +C*omega0*l4, ..., -C*omega0*l4
    currents = weights * (GAIN_LOSS_SIGN / params.R - params.C * derived.omega0 * rates)
    # one product per row: a (2, 4) @ (4, n) product may sum in another order
    return np.stack([w @ exps for w in (*weights, *currents)])


def trajectory_columns(traj: Trajectory, power, energy) -> dict[str, np.ndarray]:
    """The written series by name, in artifact column order: tau, states, currents, P, E.

    ``power`` and ``energy`` are the trajectory's (2, n) observables.power and
    observables.energy; every value is a view of a stack, not a copy.
    """
    return dict(zip(("tau", "V1", "V2", "V1p", "V2p", "I1", "I2", "P1", "P2", "E1", "E2"),
                    [traj.tau, *traj.voltages, *traj.dvoltages, *traj.currents,
                     *power, *energy]))


def format_float(x: float) -> str:
    """17-significant-digit formatting with negative zero normalized."""
    if x == 0.0:
        return "0"
    return f"{x:.17g}"


#: the characters of one format_floats field: "%.17g" writes at most 24
_FIELD = np.dtype("S24")

# While it is built, a field is three little-endian 64-bit words, held as
# the rows of a (3, n) array: byte i of the text is bits 8(i % 8) of word
# i // 8, so moving text by whole bytes is a shift.
_WORDS = np.dtype("<u8")

#: the decimal exponents of the tables' rows: floor(log10 |x|) of every
#: finite nonzero double lies in [-324, 308], and _round17 may step one past
_E_LOW, _E_HIGH = -325, 309
#: Veltkamp's splitting constant 2^27 + 1 for float64
_SPLIT = 134217729.0
#: 1.5 * 2^52: x + _RINT - _RINT rounds x to an integer, half to even
_RINT = 6755399441055744.0
#: how far from the nearest integer _round17's product may lie before its
#: rounding is in doubt, where that product is not exact (its error is below
#: 4e-15); 0.5 where it is exact
_MIDPOINT_EDGE = 0.5 - 2.0**-46
#: the 17 digits as groups of 4, 4, 4, 4 and 1: each group's divisor and
#: the place of its first digit
_GROUP_SCALE = np.array([[10**13], [10**9], [10**5], [10], [1]])
_GROUP_PLACE = np.array([[0], [4], [8], [12], [16]], np.int8)


def _words(fields: list[bytes]) -> np.ndarray:
    """(3, n) words of n 24-byte fields."""
    return np.frombuffer(b"".join(fields), _WORDS).reshape(-1, 3).T.copy()


def _byte_masks(ends) -> np.ndarray:
    """Per end e, the field whose bytes below e are 0xFF."""
    return _words([b"\xff" * e + b"\0" * (24 - e) for e in ends])


@functools.cache
def _format_tables() -> dict[str, np.ndarray]:
    """format_floats' lookup tables, built on its first call from Python ints
    and bytes, so that building them runs little numpy code."""
    # quads: the four digits of 0..9999, then a last digit "d" at 10000 + d;
    # sig: how many of those digits are left once trailing zeros go, -99 for none
    quad = [b"%04d" % q for q in range(10000)]
    sig = [len(q.rstrip(b"0")) or -99 for q in quad] + [-99] + [1] * 9
    quads = np.frombuffer(b"".join(quad + [b"%d\0\0\0" % d for d in range(10)]), "<u4")
    # one layout per (exponent X in -4..16, negative, decimal point): the
    # sign and "0.000" lead, the shift that puts the digits after them, and
    # the byte where the fraction begins; below X = 0 the point is in the
    # lead, so both point entries are the same
    const, shift, ends = [], [], []
    for x in range(-4, 17):
        lead = b"0." + b"0" * (-x - 1) if x < 0 else b""
        for neg in (0, 1):
            for point in (0, 1):
                text = b"-" * neg + lead
                cut = len(text) + x + 1 if point and x >= 0 else 24
                const.append((text + b"\0" * (cut - len(text)) + b".").ljust(24, b"\0")[:24])
                shift.append(8 * len(text))
                ends.append(cut)
    # one row per decimal exponent e: 10^(16 - e) = scale * (p1 + p2), with
    # scale = 2^t keeping y * scale and p1 normal, p1 the double nearest
    # 10^(16 - e) / 2^t (exact for 0 <= 16 - e <= 22, where p2 is 0) and p2
    # the double nearest the rest, from exact int / int quotients; then the
    # layout X of e's digits: e itself in fixed notation, else 0 followed by
    # the suffix "e-XX" or "e+XXX"
    scale, p1, p1_hi, p2, edge, layout, whole, suffix = ([] for _ in range(8))
    for e in range(_E_LOW, _E_HIGH + 1):
        k = 16 - e
        t = max(-900, min(900, round(k * math.log2(10))))
        num, den = 10 ** max(k, 0) * 2 ** max(-t, 0), 10 ** max(-k, 0) * 2 ** max(t, 0)
        hi = num / den
        a, b = hi.as_integer_ratio()
        lo = (num * b - a * den) / (den * b)
        scale.append(2.0**t)
        p1.append(hi)
        p1_hi.append(_SPLIT * hi - (_SPLIT * hi - hi))
        p2.append(lo)
        edge.append(_MIDPOINT_EDGE if lo else 0.5)
        fixed = -4 <= e <= 16
        layout.append(4 * (e + 4) if fixed else 16)
        whole.append(max(e + 1, 0) if fixed else 1)
        suffix.append(b"" if fixed else b"e%+03d" % e)
    return {
        "quads": quads, "sig": np.array(sig, np.int8), "digits": _byte_masks(range(18)),
        "const": _words(const), "shift": np.array(shift, np.uint64), "low": _byte_masks(ends),
        "scale": np.array(scale), "p1": np.array([p1, p1_hi]), "p2": np.array(p2),
        "edge": np.array(edge), "layout": np.array(layout), "whole": np.array(whole, np.int8),
        "expo": np.array([bool(s) for s in suffix]),
        "suffix": np.frombuffer(b"".join(s.ljust(5, b"\0") for s in suffix),
                                np.uint8).reshape(-1, 5),
    }


def _round17(y: np.ndarray, row: np.ndarray, tables) -> tuple[np.ndarray, ...]:
    """round(y * 10^(16 - e)) half to even, with e = _E_LOW + row, the
    product's distance from it, and the indices where e is one too small (the
    digits reach 1e17) and one too large (the product is below 1e16); y is
    overwritten.

    With 10^(16 - e) = scale * (p1 + p2) from the tables, y * scale is exact,
    and Dekker's product gives hi + lo = y * scale * p1 exactly (numpy applies
    every multiply on its own, never fused).  The tail y * scale * p2, added
    to lo, leaves an error below 4e-15 where p2 is not 0, and none where it
    is.  Where the product lies in [1e16, 1e17), hi >= 2^53 is an even
    integer, so hi + rint(lo) rounds it; adding and taking away 1.5 * 2^52
    is rint for |lo| < 2^51.
    """
    take = functools.partial(np.take, indices=row, axis=-1)
    y *= take(tables["scale"])
    p1, p1_hi = take(tables["p1"])
    hi = y * p1
    p1 -= p1_hi  # its low part
    y_hi = _SPLIT * y
    y_hi -= y_hi - y
    y -= y_hi  # its low part
    lo = y_hi * p1_hi
    lo -= hi
    for a, b in ((y_hi, p1), (y, p1_hi), (y, p1)):
        lo += a * b
    del p1, p1_hi
    y += y_hi  # y * scale again, exactly
    del y_hi
    y *= take(tables["p2"])
    lo += y
    rounded = lo + _RINT
    rounded -= _RINT
    d = hi.astype(np.int64)
    d += rounded.astype(np.int64)
    # |rounded| < 32, so only a product within 32 of 1e16 or 1e17 can be off
    lo -= rounded
    near = np.flatnonzero(np.abs(hi - 5.5e16) >= 4.5e16 - 32.0)
    if not near.size:
        return d, lo, near, near
    up = (hi[near] - 1e17) + rounded[near] >= 0.0
    down = (hi[near] - 1e16) + (lo[near] + rounded[near]) < 0.0
    return d, lo, near[up], near[down]


def _shift_bytes(words: np.ndarray, bits) -> None:
    """Move (3, n) fields ``bits`` (a multiple of 8, below 64) towards their end, in place."""
    carry = words[:2] >> (np.uint64(64) - bits)
    words <<= bits
    words[1:] |= carry


def format_floats(values) -> np.ndarray:
    """format_float of every value, as ASCII bytes of dtype S24.

    "%.17g" writes 17 significant digits, round(|x| * 10^(16 - X)) for the
    decimal exponent X of x (_round17).  For X in [-4, 16] it writes them in
    fixed notation: X + 1 digits before the point, or a "0." lead with -X - 1
    zeros.  Otherwise it writes one digit before the point and the exponent
    after the digits, "e-XX" or "e+XXX".  The digits come from a table of
    4-digit groups, trailing zeros dropped.  Zero gives "0".  Only inf, nan
    and a value whose digits _round17 cannot settle go to format_float one at
    a time.  The last happens only where 10^(16 - X) is not a double: at the
    exact ties |x| = m * 2^-24 (m odd, 3 to 15), 2^-25 and 3 * 2^-25, and at
    a few doubles in 10^14 otherwise.
    """
    tables = _format_tables()
    x = np.asarray(values, dtype=np.float64).ravel()
    y = np.abs(x)
    # zero, inf and nan are formatted as 2, and written over at the end
    special = np.flatnonzero((y == 0.0) | ~np.isfinite(y))
    y[special] = 2.0
    # floor(log10 y) - _E_LOW, or one off at a power of ten
    row = np.log10(y)
    row -= _E_LOW
    row = row.astype(np.intp)
    d, frac, up, down = _round17(y, row, tables)
    del y
    if up.size or down.size:
        # one more try at the right exponent; digits of 1e17 after a step
        # down come from a product just below 1e16, which rounds to 1e16
        row[up] += 1
        row[down] -= 1
        redo = np.concatenate([up, down])
        d[redo], frac[redo], top, _ = _round17(np.abs(x[redo]), row[redo], tables)
        top = redo[top]
        d[top] = 10**16
        row[top] += 1
    expo = np.flatnonzero(np.take(tables["expo"], row))
    unsure = expo[np.abs(frac[expo]) > np.take(tables["edge"], row[expo])] if expo.size else expo
    del frac
    # the groups' digits, each half a word, and how many digits are left once
    # trailing zeros go
    groups = d // _GROUP_SCALE
    del d
    groups[4] -= groups[3] * 10  # each quotient less ten thousand (ten) times the one before
    groups[1:4] -= groups[:3] * 10**4
    groups[4] += 10000
    significant = np.take(tables["sig"], groups)
    significant += _GROUP_PLACE
    significant = significant.max(axis=0)
    quads = np.take(tables["quads"], groups)
    del groups
    words = np.empty((3, x.size), _WORDS)
    halves = words.view("<u4").reshape(3, x.size, 2)
    halves[:2, :, 0] = quads[0:4:2]
    halves[:2, :, 1] = quads[1:4:2]
    halves[2, :, 0] = quads[4]
    halves[2, :, 1] = 0
    del quads, halves
    # the X + 1 integer digits keep their zeros; trailing fraction zeros go,
    # and an exponent follows the digits that are left
    whole = np.take(tables["whole"], row)
    keep = np.maximum(significant, whole)
    words &= np.take(tables["digits"], keep, axis=1)
    if expo.size:
        text = np.ascontiguousarray(words[:, expo].T)
        text.view(np.uint8)[np.arange(expo.size)[:, None], keep[expo, None] + np.arange(5)] = (
            np.take(tables["suffix"], row[expo], axis=0))
        words[:, expo] = text.T
    # shift the digits past the sign and lead, then the fraction one byte
    # further, and lay the sign, lead and point over them
    layout = np.take(tables["layout"], row)
    layout += significant > whole  # a fraction is left
    negative = x < 0
    layout += negative  # twice: a minus sign is 2 layouts further
    layout += negative
    del row, whole, keep, significant, negative
    _shift_bytes(words, np.take(tables["shift"], layout))
    low = np.take(tables["low"], layout, axis=1)
    low &= words
    words ^= low
    _shift_bytes(words, np.uint64(8))
    words |= low
    del low
    words |= np.take(tables["const"], layout, axis=1)
    fields = np.empty((x.size, 3), _WORDS)
    fields[...] = words.T
    del words
    fields = fields.view(_FIELD).ravel()
    if special.size or unsure.size:
        fields[special] = b"0"
        rest = np.concatenate([special[x[special] != 0.0], unsure])
        fields[rest] = [format_float(v) for v in x[rest].tolist()]
    return fields.reshape(np.shape(values))
