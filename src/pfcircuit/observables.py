"""Powers and energies of the two sub-circuits, and asymptotic gain/loss classification.

The power of each sub-circuit is P_j = V_j * I_j; substituting the current
relations gives the equivalent form P_j = ((-1)^(j+1)/R) V_j^2 - C*Vdot_j*V_j,
and both are computed as a mutual consistency check.  The energy is the
definitional E_n = (1/2) C V_n^2 + (1/2) L I_n^2 (a sum of squares, hence
nonnegative); the rewritten closed forms that drop the cross term are
evaluated only as a reported comparison channel.

Asymptotically every populated quantity rides the dominant mode e^{l4 tau}.
The powers carry prefactors proportional to (1/R - C omega0 l4) and
(-1/R - C omega0 l4), so both windows of the classification reduce, in
normalized units, to inequalities between l4, gamma, and sqrt(1 +- gamma^2).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .dynamics import Coefficients, Trajectory
from .errors import ZeroCoupling
from .liouvillian import Spectrum
from .params import CircuitParams, DerivedParams

__all__ = [
    "PowerSeries",
    "EnergySeries",
    "GainLossReport",
    "power",
    "energy",
    "classify_asymptotics",
]

#: fraction of trailing samples used to measure divergence signs
MEASUREMENT_WINDOW = 0.1

#: dominant-mode population threshold for sign measurements
C11_THRESHOLD = 1e-12


@dataclass(frozen=True)
class PowerSeries:
    """Both computation paths for the sub-circuit powers."""

    p1: np.ndarray
    p2: np.ndarray
    p1_identity: np.ndarray
    p2_identity: np.ndarray
    max_relative_deviation: float


def power(traj: Trajectory, params: CircuitParams, derived: DerivedParams) -> PowerSeries:
    """P_j as the V*I product and as the rewritten quadratic form.

    The two are algebraically identical given the trajectory's current
    relations; their deviation measures only floating-point noise and is
    exposed for the consistency check.
    """
    if traj.I1 is None or traj.I2 is None:
        raise ValueError("trajectory has no current series")
    cw = params.C * derived.omega0
    p1 = traj.V1 * traj.I1
    p2 = traj.V2 * traj.I2
    p1_id = traj.V1**2 / params.R - cw * traj.V1p * traj.V1
    p2_id = -traj.V2**2 / params.R - cw * traj.V2p * traj.V2
    scale = np.maximum.reduce([
        np.abs(p1), np.abs(p1_id),
        np.abs(traj.V1) * (np.abs(traj.V1) / params.R + cw * np.abs(traj.V1p)),
    ])
    dev1 = np.abs(p1 - p1_id) / np.maximum(scale, 1e-300)
    scale2 = np.maximum.reduce([
        np.abs(p2), np.abs(p2_id),
        np.abs(traj.V2) * (np.abs(traj.V2) / params.R + cw * np.abs(traj.V2p)),
    ])
    dev2 = np.abs(p2 - p2_id) / np.maximum(scale2, 1e-300)
    zero_mask1 = (p1 == 0.0) & (p1_id == 0.0)
    zero_mask2 = (p2 == 0.0) & (p2_id == 0.0)
    dev1[zero_mask1] = 0.0
    dev2[zero_mask2] = 0.0
    return PowerSeries(
        p1=p1, p2=p2, p1_identity=p1_id, p2_identity=p2_id,
        max_relative_deviation=float(max(np.max(dev1), np.max(dev2))),
    )


@dataclass(frozen=True)
class EnergySeries:
    """Definitional energies plus the rewritten forms as a comparison channel."""

    e1: np.ndarray
    e2: np.ndarray
    e1_rewrite: np.ndarray
    e2_rewrite: np.ndarray
    rewrite_max_relative_deviation: float


def energy(traj: Trajectory, params: CircuitParams) -> EnergySeries:
    """E_n = (1/2) C V_n^2 + (1/2) L I_n^2, the authoritative definition.

    The rewritten closed forms (1/2) L C^2 (V^2 (omega0^2 +- omega_p^2) - Vdot^2)
    drop the V*Vdot cross term and flip the sign of the derivative square; they
    are evaluated verbatim and their deviation reported, never asserted.
    """
    if traj.I1 is None or traj.I2 is None:
        raise ValueError("trajectory has no current series")
    L, C, R = params.L, params.C, params.R
    omega0_sq = 1.0 / (L * C)
    omega_p_sq = 1.0 / (R * C) ** 2
    e1 = 0.5 * C * traj.V1**2 + 0.5 * L * traj.I1**2
    e2 = 0.5 * C * traj.V2**2 + 0.5 * L * traj.I2**2
    # t-derivatives: Vdot = omega0 * dV/dtau
    vdot1 = np.sqrt(omega0_sq) * traj.V1p
    vdot2 = np.sqrt(omega0_sq) * traj.V2p
    e1_rw = 0.5 * L * C * C * (traj.V1**2 * (omega0_sq + omega_p_sq) - vdot1**2)
    e2_rw = 0.5 * L * C * C * (traj.V2**2 * (omega0_sq - omega_p_sq) - vdot2**2)
    scale = np.maximum(np.maximum(np.abs(e1), np.abs(e1_rw)), 1e-300)
    dev = np.abs(e1 - e1_rw) / scale
    scale2 = np.maximum(np.maximum(np.abs(e2), np.abs(e2_rw)), 1e-300)
    dev2 = np.abs(e2 - e2_rw) / scale2
    return EnergySeries(
        e1=e1, e2=e2, e1_rewrite=e1_rw, e2_rewrite=e2_rw,
        rewrite_max_relative_deviation=float(max(np.max(dev), np.max(dev2))),
    )


@dataclass(frozen=True)
class GainLossReport:
    """Window inequalities and predicted/measured divergence behavior.

    ``energy_lower`` is None when omega0^2 - omega_p^2 < 0 (the lower edge of
    the energy window is imaginary, so the corresponding condition holds
    automatically).  Divergence signs refer to the definitional quantities:
    both energies are sums of squares and diverge to +infinity whenever the
    dominant mode is populated; the printed claim that E2 -> -infinity stems
    from the rewritten form and lives in the comparison channel instead.
    """

    l4: float
    power_window_ok: bool
    energy_lower: float | None
    energy_upper: float
    energy_window_ok: bool
    p1_diverges_to: str
    p2_diverges_to: str
    e1_diverges_to: str
    e2_diverges_to: str
    measured_p1_sign: str | None = None
    measured_p2_sign: str | None = None
    measurement_consistent: bool | None = None

    def to_dict(self) -> dict:
        lower = "imaginary" if self.energy_lower is None else self.energy_lower
        return {**asdict(self), "energy_lower": lower}


def _tail_sign(series: np.ndarray) -> str:
    n_tail = max(1, int(round(MEASUREMENT_WINDOW * series.size)))
    return "+" if float(np.mean(series[-n_tail:])) >= 0.0 else "-"


def classify_asymptotics(
    spec: Spectrum,
    derived: DerivedParams,
    params: CircuitParams,
    power_series: PowerSeries | None = None,
    coeffs: Coefficients | None = None,
) -> GainLossReport:
    """Evaluate both asymptotic windows and optionally cross-check a trajectory.

    The dominant-mode power prefactors are (c11 t24 delta24)^2 (1/R - C w0 l4)
    and (c11 t24)^2 (-1/R - C w0 l4), so predicted signs follow those factors.
    With a power series supplied, the measured tail signs must match whenever
    the dominant mode is populated (|c11| above threshold); the comparison is
    recorded in the report.
    """
    if derived.mu == 0.0:
        raise ZeroCoupling("asymptotic classification needs coupled sub-circuits")
    cw = params.C * derived.omega0
    rate_l4 = derived.omega0 * spec.l4
    gain_factor = 1.0 / params.R - cw * spec.l4
    loss_factor = -1.0 / params.R - cw * spec.l4
    power_ok = (gain_factor > 0.0) and (loss_factor < 0.0)
    lower_sq = derived.omega0**2 - derived.omega_p**2
    upper = float(np.sqrt(derived.omega0**2 + derived.omega_p**2))
    energy_lower = None if lower_sq < 0.0 else float(np.sqrt(lower_sq))
    energy_ok = (lower_sq - rate_l4**2 < 0.0) and (
        derived.omega0**2 + derived.omega_p**2 - rate_l4**2 > 0.0
    )
    p1_sign = "+" if gain_factor > 0.0 else "-"
    p2_sign = "+" if loss_factor > 0.0 else "-"
    measured_p1 = measured_p2 = None
    consistent = None
    if power_series is not None:
        measured_p1 = _tail_sign(power_series.p1)
        measured_p2 = _tail_sign(power_series.p2)
        if coeffs is not None and abs(coeffs.c11) > C11_THRESHOLD:
            consistent = (measured_p1 == p1_sign) and (measured_p2 == p2_sign)
    return GainLossReport(
        l4=spec.l4,
        power_window_ok=bool(power_ok),
        energy_lower=energy_lower,
        energy_upper=upper,
        energy_window_ok=bool(energy_ok),
        p1_diverges_to=p1_sign,
        p2_diverges_to=p2_sign,
        e1_diverges_to="+",
        e2_diverges_to="+",
        measured_p1_sign=measured_p1,
        measured_p2_sign=measured_p2,
        measurement_consistent=consistent,
    )
