"""Powers and energies of the two sub-circuits, and asymptotic gain/loss classification.

The power of each sub-circuit is P_j = V_j * I_j; substituting the current
relations gives the equivalent form P_j = ((-1)^(j+1)/R) V_j^2 - C*Vdot_j*V_j,
and verify compares the two as a mutual consistency check.  The energy is the
definitional E_n = (1/2) C V_n^2 + (1/2) L I_n^2 (a sum of squares, hence
nonnegative); the rewritten closed forms that drop the cross term are
evaluated only as a reported comparison channel.

Asymptotically every populated quantity rides the dominant mode e^{l4 tau}.
The powers carry prefactors proportional to (1/R - C omega0 l4) and
(-1/R - C omega0 l4), so both windows of the classification reduce, in
normalized units, to inequalities between l4, gamma, and sqrt(1 +- gamma^2).
:func:`classify_asymptotics` predicts the divergence signs; verify measures them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .dynamics import GAIN_LOSS_SIGN, Trajectory
from .errors import ZeroCoupling
from .liouvillian import Spectrum
from .params import CircuitParams, DerivedParams

__all__ = [
    "GainLossReport",
    "power",
    "power_two_path_deviation",
    "energy",
    "energy_rewrite_deviation",
    "classify_asymptotics",
]


def power(traj: Trajectory) -> np.ndarray:
    """P_j = V_j * I_j of both sub-circuits, a (2, n) stack."""
    return traj.voltages * traj.currents


def power_two_path_deviation(traj: Trajectory, p: np.ndarray, params: CircuitParams,
                             derived: DerivedParams) -> float:
    """Largest relative deviation of the powers ``p`` from the rewritten quadratic form.

    The two are algebraically identical given the trajectory's current
    relations; their deviation measures only floating-point noise and is
    exposed for the consistency check.
    """
    cw = params.C * derived.omega0
    v, vp = traj.voltages, traj.dvoltages
    p_id = GAIN_LOSS_SIGN * v**2 / params.R - cw * vp * v
    dev = linalg.relative_gap(p, p_id, np.abs(v) * (np.abs(v) / params.R + cw * np.abs(vp)))
    dev[(p == 0.0) & (p_id == 0.0)] = 0.0
    return float(np.max(dev))


def energy(traj: Trajectory, params: CircuitParams) -> np.ndarray:
    """E_n = (1/2) C V_n^2 + (1/2) L I_n^2, the authoritative definition, a (2, n) stack."""
    return 0.5 * params.C * traj.voltages**2 + 0.5 * params.L * traj.currents**2


def energy_rewrite_deviation(traj: Trajectory, e: np.ndarray, params: CircuitParams) -> float:
    """Largest relative deviation of the rewritten closed forms from the energies ``e``.

    The rewritten forms (1/2) L C^2 (V^2 (omega0^2 +- omega_p^2) - Vdot^2)
    drop the V*Vdot cross term and flip the sign of the derivative square; they
    are evaluated verbatim and their deviation reported, never asserted.
    """
    L, C, R = params.L, params.C, params.R
    omega0_sq = 1.0 / (L * C)
    omega_p_sq = 1.0 / (R * C) ** 2
    v, vp = traj.voltages, traj.dvoltages
    # t-derivatives: Vdot = omega0 * dV/dtau
    e_rw = 0.5 * L * C * C * (v**2 * (omega0_sq + GAIN_LOSS_SIGN * omega_p_sq)
                              - (np.sqrt(omega0_sq) * vp) ** 2)
    return float(np.max(linalg.relative_gap(e, e_rw)))


@dataclass(frozen=True)
class GainLossReport:
    """Window inequalities and predicted divergence behavior.

    ``energy_lower`` is None when omega0^2 - omega_p^2 < 0 (the lower edge of
    the energy window is imaginary, so the corresponding condition holds
    automatically).  Divergence signs are given for the powers alone: both
    energies are sums of squares and diverge to +infinity whenever the
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

    def to_dict(self) -> dict:
        lower = "imaginary" if self.energy_lower is None else self.energy_lower
        return {**vars(self), "energy_lower": lower}


def classify_asymptotics(
    spec: Spectrum,
    derived: DerivedParams,
    params: CircuitParams,
) -> GainLossReport:
    """Evaluate both asymptotic windows and predict the divergence signs.

    The dominant-mode power prefactors are (c11 t24 delta24)^2 (1/R - C w0 l4)
    and (c11 t24)^2 (-1/R - C w0 l4), so predicted signs follow those factors.
    Only the prediction lives here: verify measures the signs on its own window.
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
    return GainLossReport(
        l4=spec.l4,
        power_window_ok=bool(power_ok),
        energy_lower=energy_lower,
        energy_upper=upper,
        energy_window_ok=bool(energy_ok),
        p1_diverges_to="+" if gain_factor > 0.0 else "-",
        p2_diverges_to="+" if loss_factor > 0.0 else "-",
    )
