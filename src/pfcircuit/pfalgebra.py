"""Fermionic reference structure, the intertwiner, and the deformed operator pairs.

Two constant matrices A1, A2 satisfy the ordinary anticommutation relations
A_j^2 = 0, {A_j, A_k^+} = delta_jk * I on C^4, and the diagonal reference
generator H0 = lambda1 A1^+ A1 + lambda2 A2^+ A2 has the standard basis as
eigenvectors.  An invertible intertwiner T with (L - l3 I) T = T H0 transports
this structure onto the circuit generator:

    a_j = T A_j T^-1,   b_j = T A_j^+ T^-1,   N_j = b_j a_j,

which satisfy the deformed relations {a_j, b_j} = I, a_j^2 = b_j^2 = 0 with
b_j != a_j^+, plus the metric operators S_phi = T T^+ and S_psi = S_phi^-1
that intertwine each N_j with its adjoint.

A note on cross-pair relations: similarity preserves every anticommutator that
stays inside one sandwich, so {a_j, b_k} = 0 and {a_j^+, b_k^+} = 0 for j != k
hold exactly.  The mixed-dagger combinations {a_j, b_k^+} and {a_j^+, b_k} do
NOT vanish unless T is orthogonal; :func:`pf_verify` measures them in a
reported-only channel rather than asserting them.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import linalg
from .errors import GaugeDegenerate, ZeroCoupling
from .liouvillian import Spectrum
from .params import DerivedParams

__all__ = [
    "Gauge",
    "PFSystem",
    "Check",
    "VerificationReport",
    "fermion_generators",
    "build_h0",
    "build_T",
    "build_pf",
    "pf_verify",
    "verify_two_level_pair",
]

GAUGE_MIN = 1e-12


@dataclass(frozen=True)
class Gauge:
    """Free nonzero column scales of the intertwiner.

    The eigenvector equations fix each column of T only up to scale; physical
    trajectories are invariant under this choice.  Unit scales are the default
    because they make det(T) reproducible.
    """

    t21: float = 1.0
    t22: float = 1.0
    t23: float = 1.0
    t24: float = 1.0

    def __post_init__(self) -> None:
        for name, value in asdict(self).items():
            if abs(value) <= GAUGE_MIN:
                raise GaugeDegenerate(f"gauge scale {name} must be nonzero, got {value}")

    def as_array(self) -> np.ndarray:
        return np.array([self.t21, self.t22, self.t23, self.t24])


def fermion_generators() -> tuple[np.ndarray, np.ndarray]:
    """The two constant lowering matrices of the undeformed reference structure."""
    a1 = np.zeros((4, 4))
    a1[0, 1] = 1.0
    a1[2, 3] = 1.0
    a2 = np.zeros((4, 4))
    a2[0, 2] = 1.0
    a2[1, 3] = -1.0
    return a1, a2


def build_h0(spec: Spectrum) -> np.ndarray:
    """Reference generator diag(0, lambda1, lambda2, lambda1 + lambda2)."""
    a1, a2 = fermion_generators()
    return spec.lambda1 * (a1.T @ a1) + spec.lambda2 * (a2.T @ a2)


def build_T(
    spec: Spectrum, derived: DerivedParams, gauge: Gauge = Gauge()
) -> tuple[np.ndarray, np.ndarray]:
    """Assemble the intertwiner and its column parameters.

    Column j of T is an eigenvector of the circuit generator with eigenvalue
    (l3, l1, l2, l4)[j].  Each delta is the first-component scale forced by the
    eigenvector equations; all four divide by 2*alpha*mu, so zero coupling is
    rejected.

    Returns ``(T, deltas)`` with deltas = (delta21, delta22, delta23, delta24).
    """
    if derived.mu == 0.0:
        raise ZeroCoupling("the intertwiner is undefined at mu = 0")
    g = derived.gamma
    sqrt_rho = np.sqrt(spec.rho)
    denom = 2.0 * derived.alpha * derived.mu
    deltas = np.array([
        (g * g + sqrt_rho - 2.0 * g * spec.l4) / denom,
        (g * g - sqrt_rho - 2.0 * g * spec.l2) / denom,
        (g * g - sqrt_rho + 2.0 * g * spec.l2) / denom,
        (g * g + sqrt_rho + 2.0 * g * spec.l4) / denom,
    ])
    t = gauge.as_array()
    ls = spec.eigenvalues
    matrix = np.vstack([
        deltas * t,
        t,
        ls * deltas * t,
        ls * t,
    ])
    return matrix, deltas


@dataclass(frozen=True)
class PFSystem:
    """The full deformed operator system built from one intertwiner."""

    T: np.ndarray
    T_inv: np.ndarray
    deltas: np.ndarray
    """(delta21, delta22, delta23, delta24), the first/second row ratios of T."""
    a1: np.ndarray
    a2: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    N1: np.ndarray
    N2: np.ndarray
    S_phi: np.ndarray
    S_psi: np.ndarray
    n_hat1: np.ndarray
    n_hat2: np.ndarray
    H0: np.ndarray
    spectrum: Spectrum


def build_pf(
    T: np.ndarray, spec: Spectrum, liouvillian: np.ndarray | None = None
) -> PFSystem:
    """Construct every operator of the system from the intertwiner.

    When the independently assembled generator matrix is supplied, the
    reconstruction identity lambda1 N1 + lambda2 N2 + l3 I = L is verified and
    a failure raises ValueError (it indicates a corrupted T).
    """
    T = linalg.as_square(T, 4)
    T_inv = linalg.inverse(T)
    A1, A2 = fermion_generators()
    a1 = T @ A1 @ T_inv
    a2 = T @ A2 @ T_inv
    b1 = T @ A1.T @ T_inv
    b2 = T @ A2.T @ T_inv
    N1 = b1 @ a1
    N2 = b2 @ a2
    S_phi = T @ T.T
    S_psi = T_inv.T @ T_inv
    sqrt_S_psi = linalg.sqrtm_spd(S_psi)
    sqrt_S_phi = linalg.sqrtm_spd(S_phi)  # equals S_psi^{-1/2}
    n_hat1 = sqrt_S_psi @ N1 @ sqrt_S_phi
    n_hat2 = sqrt_S_psi @ N2 @ sqrt_S_phi
    H0 = build_h0(spec)
    system = PFSystem(
        T=T, T_inv=T_inv, deltas=T[0] / T[1],
        a1=a1, a2=a2, b1=b1, b2=b2, N1=N1, N2=N2,
        S_phi=S_phi, S_psi=S_psi, n_hat1=n_hat1, n_hat2=n_hat2,
        H0=H0, spectrum=spec,
    )
    if liouvillian is not None:
        recon = spec.lambda1 * N1 + spec.lambda2 * N2 + spec.l3 * np.eye(4)
        scale = np.linalg.norm(liouvillian, "fro")
        residual = np.linalg.norm(recon - liouvillian, "fro") / max(scale, 1e-300)
        if residual > 1e-9:
            raise ValueError(
                f"generator reconstruction residual {residual:.3e} exceeds 1e-9; "
                "T does not intertwine this generator"
            )
    return system


@dataclass(frozen=True)
class Check:
    """One named identity check.

    Asserted checks carry a tolerance and a pass flag; reported-only channels
    carry ``tolerance=None, passed=None`` and never gate anything.
    """

    residual: float
    tolerance: float | None
    passed: bool | None

    def to_dict(self) -> dict:
        return {"residual": self.residual, "tolerance": self.tolerance, "pass": self.passed}


@dataclass
class VerificationReport:
    """Ordered collection of named checks, JSON-serializable."""

    checks: dict[str, Check] = field(default_factory=dict)

    def add(self, name: str, residual: float, tolerance: float | None) -> None:
        passed = None if tolerance is None else bool(residual <= tolerance)
        self.checks[name] = Check(residual=float(residual), tolerance=tolerance, passed=passed)

    def merge(self, other: "VerificationReport", prefix: str = "") -> None:
        for name, check in other.checks.items():
            self.checks[prefix + name] = check

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks.values() if c.passed is not None)

    def failed(self) -> list[str]:
        return [name for name, c in self.checks.items() if c.passed is False]

    def to_dict(self) -> dict:
        return {name: check.to_dict() for name, check in self.checks.items()}

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _rel(x: np.ndarray, scale: float) -> float:
    return float(np.linalg.norm(x, "fro") / max(scale, 1e-300))


def _anti(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x @ y + y @ x


def pf_verify(
    system: PFSystem, liouvillian: np.ndarray | None = None
) -> VerificationReport:
    """Run every algebraic identity of the operator system, one named check each.

    Residuals are scaled by operand norms (the deltas span ~3 orders of
    magnitude at reference parameters, so absolute tolerances would mislead).
    Checks against the independently assembled generator are included whenever
    it is supplied; they are what localizes a corrupted intertwiner.
    """
    report = VerificationReport()
    eye = np.eye(4)
    s = system
    spec = s.spectrum
    pairs = {"1": (s.a1, s.b1), "2": (s.a2, s.b2)}

    for j, (aj, bj) in pairs.items():
        na = np.linalg.norm(aj, "fro")
        nb = np.linalg.norm(bj, "fro")
        report.add(f"a{j}_squared_zero", _rel(aj @ aj, na * na), 1e-10)
        report.add(f"b{j}_squared_zero", _rel(bj @ bj, nb * nb), 1e-10)
        report.add(f"anticommutator_a{j}_b{j}_is_identity",
                   _rel(_anti(aj, bj) - eye, 1.0), 1e-10)

    # cross-pair independence: the similarity-invariant combinations
    cross_scale = {
        ("1", "2"): np.linalg.norm(s.a1, "fro") * np.linalg.norm(s.b2, "fro"),
        ("2", "1"): np.linalg.norm(s.a2, "fro") * np.linalg.norm(s.b1, "fro"),
    }
    report.add("cross_anticommutator_a1_b2", _rel(_anti(s.a1, s.b2), cross_scale[("1", "2")]), 1e-10)
    report.add("cross_anticommutator_a2_b1", _rel(_anti(s.a2, s.b1), cross_scale[("2", "1")]), 1e-10)
    report.add("cross_anticommutator_a1adj_b2adj",
               _rel(_anti(s.a1.T, s.b2.T), cross_scale[("1", "2")]), 1e-10)
    report.add("cross_anticommutator_a2adj_b1adj",
               _rel(_anti(s.a2.T, s.b1.T), cross_scale[("2", "1")]), 1e-10)
    # mixed-dagger combinations vanish only for orthogonal T: reported, not asserted
    report.add("reported_mixed_dagger_a1_b2adj", _rel(_anti(s.a1, s.b2.T), cross_scale[("1", "2")]), None)
    report.add("reported_mixed_dagger_a1adj_b2", _rel(_anti(s.a1.T, s.b2), cross_scale[("1", "2")]), None)
    report.add("reported_mixed_dagger_a2_b1adj", _rel(_anti(s.a2, s.b1.T), cross_scale[("2", "1")]), None)
    report.add("reported_mixed_dagger_a2adj_b1", _rel(_anti(s.a2.T, s.b1), cross_scale[("2", "1")]), None)

    for j, nj in (("1", s.N1), ("2", s.N2)):
        nn = np.linalg.norm(nj, "fro")
        report.add(f"N{j}_idempotent", _rel(nj @ nj - nj, nn), 1e-10)
    report.add("commutator_N1_N2",
               _rel(s.N1 @ s.N2 - s.N2 @ s.N1,
                    np.linalg.norm(s.N1, "fro") * np.linalg.norm(s.N2, "fro")), 1e-10)

    # ladder eigenvalue relations on the eigenvector columns of T
    occupations_1 = np.array([0.0, 1.0, 0.0, 1.0])
    occupations_2 = np.array([0.0, 0.0, 1.0, 1.0])
    res1 = np.linalg.norm(s.N1 @ s.T - s.T * occupations_1, "fro")
    res2 = np.linalg.norm(s.N2 @ s.T - s.T * occupations_2, "fro")
    t_scale = np.linalg.norm(s.T, "fro")
    report.add("N1_eigenvector_columns", res1 / t_scale, 1e-10)
    report.add("N2_eigenvector_columns", res2 / t_scale, 1e-10)

    # metric operators
    phi_columns = s.T
    outer_sum = phi_columns @ phi_columns.T
    sphi_scale = np.linalg.norm(s.S_phi, "fro")
    report.add("metric_phi_equals_TTadj", _rel(outer_sum - s.S_phi, sphi_scale), 1e-9)
    report.add("metric_phi_symmetric", _rel(s.S_phi - s.S_phi.T, sphi_scale), 1e-12)
    report.add("metric_product_identity", _rel(s.S_phi @ s.S_psi - eye, 1.0), 1e-10)
    w_phi, _ = linalg.jacobi_eigh(s.S_phi)
    report.add("metric_phi_positive", max(0.0, -float(w_phi[0]) / float(w_phi[-1])), 0.0)
    norm_bound_gap = linalg.spectral_norm(s.S_phi) - float(np.sum(s.T**2))
    report.add("metric_phi_norm_bound", max(0.0, norm_bound_gap / sphi_scale), 0.0)

    # intertwining of each number operator with its adjoint through the metrics
    for j, nj in (("1", s.N1), ("2", s.N2)):
        scale_psi = np.linalg.norm(s.S_psi, "fro") * np.linalg.norm(nj, "fro")
        scale_phi = np.linalg.norm(s.S_phi, "fro") * np.linalg.norm(nj, "fro")
        report.add(f"intertwining_Spsi_N{j}",
                   _rel(s.S_psi @ nj - nj.T @ s.S_psi, scale_psi), 1e-9)
        report.add(f"intertwining_Sphi_N{j}adj",
                   _rel(s.S_phi @ nj.T - nj @ s.S_phi, scale_phi), 1e-9)

    # similarity-transported number operators are symmetric with spectrum {0, 1}
    for j, nh in (("1", s.n_hat1), ("2", s.n_hat2)):
        nh_scale = np.linalg.norm(nh, "fro")
        report.add(f"n_hat{j}_symmetric", _rel(nh - nh.T, nh_scale), 1e-9)
        w, _ = linalg.jacobi_eigh((nh + nh.T) / 2.0)
        report.add(f"n_hat{j}_eigenvalues_binary",
                   float(np.max(np.abs(np.sort(w) - np.array([0.0, 0.0, 1.0, 1.0])))), 1e-9)

    if liouvillian is not None:
        liouvillian = linalg.as_square(liouvillian, 4)
        l_scale = np.linalg.norm(liouvillian, "fro")
        recon = spec.lambda1 * s.N1 + spec.lambda2 * s.N2 + spec.l3 * eye
        report.add("generator_reconstruction", _rel(recon - liouvillian, l_scale), 1e-9)
        shifted = liouvillian - spec.l3 * eye
        report.add("intertwining_generator_H0",
                   _rel(shifted @ s.T - s.T @ s.H0,
                        np.linalg.norm(shifted, "fro") * t_scale), 1e-9)
        report.add("crypto_hermiticity",
                   _rel(liouvillian @ s.S_phi - s.S_phi @ liouvillian.T,
                        l_scale * sphi_scale), 1e-9)

    report.add("reported_condition_number_T", float(np.linalg.cond(s.T)), None)
    return report


def verify_two_level_pair(a: np.ndarray, b: np.ndarray) -> VerificationReport:
    """Check the single-pair (two-level) deformed structure for any supplied (a, b).

    Builds the two ladders from the kernels of a and b^+, normalizes the
    vacua so their pairing is 1, and verifies the anticommutation rules, the
    ladder actions, the number operators, biorthonormality, the metric
    operators with their norm bounds and mapping/intertwining relations, and
    self-adjointness of the similarity-transported number operator.
    """
    a = linalg.as_square(a, 2)
    b = linalg.as_square(b, 2)
    report = VerificationReport()
    na = np.linalg.norm(a, "fro")
    nb = np.linalg.norm(b, "fro")
    report.add("a_squared_zero", _rel(a @ a, na * na), 1e-10)
    report.add("b_squared_zero", _rel(b @ b, nb * nb), 1e-10)
    report.add("anticommutator_a_b_is_identity", _rel(_anti(a, b) - np.eye(2), 1.0), 1e-10)

    # vacua from the smallest singular directions of a and b^+
    _, _, vt_a = np.linalg.svd(a)
    phi0 = vt_a[-1]
    _, _, vt_bt = np.linalg.svd(b.T)
    psi0 = vt_bt[-1]
    pairing = float(phi0 @ psi0)
    if abs(pairing) < 1e-12:
        raise ValueError("vacua are orthogonal; the pair is degenerate")
    psi0 = psi0 / pairing
    phi1 = b @ phi0
    psi1 = a.T @ psi0
    report.add("vacuum_annihilated", float(np.linalg.norm(a @ phi0)) / na, 1e-10)
    report.add("dual_vacuum_annihilated", float(np.linalg.norm(b.T @ psi0)) / (nb * np.linalg.norm(psi0)), 1e-10)
    report.add("lowering_returns_vacuum",
               float(np.linalg.norm(a @ phi1 - phi0)), 1e-10)
    report.add("dual_lowering_returns_vacuum",
               float(np.linalg.norm(b.T @ psi1 - psi0) / np.linalg.norm(psi0)), 1e-10)

    n_op = b @ a
    for k, (vec, eig) in enumerate(((phi0, 0.0), (phi1, 1.0))):
        report.add(f"number_operator_on_phi{k}",
                   float(np.linalg.norm(n_op @ vec - eig * vec) / np.linalg.norm(vec)), 1e-10)
    for k, (vec, eig) in enumerate(((psi0, 0.0), (psi1, 1.0))):
        report.add(f"adjoint_number_operator_on_psi{k}",
                   float(np.linalg.norm(n_op.T @ vec - eig * vec) / np.linalg.norm(vec)), 1e-10)

    phis = np.column_stack([phi0, phi1])
    psis = np.column_stack([psi0, psi1])
    report.add("biorthonormality", _rel(phis.T @ psis - np.eye(2), 1.0), 1e-10)

    s_phi = phis @ phis.T
    s_psi = psis @ psis.T
    report.add("metric_product_identity", _rel(s_phi @ s_psi - np.eye(2), 1.0), 1e-10)
    report.add("metric_phi_norm_bound",
               max(0.0, linalg.spectral_norm(s_phi) - float(np.sum(phis**2))), 0.0)
    report.add("metric_psi_norm_bound",
               max(0.0, linalg.spectral_norm(s_psi) - float(np.sum(psis**2))), 0.0)
    report.add("metric_maps_psi_to_phi",
               float(np.linalg.norm(s_phi @ psis - phis, "fro") / np.linalg.norm(phis, "fro")), 1e-10)
    report.add("metric_maps_phi_to_psi",
               float(np.linalg.norm(s_psi @ phis - psis, "fro") / np.linalg.norm(psis, "fro")), 1e-10)
    n_scale = np.linalg.norm(n_op, "fro")
    report.add("intertwining_Spsi_N",
               _rel(s_psi @ n_op - n_op.T @ s_psi, np.linalg.norm(s_psi, "fro") * n_scale), 1e-10)
    report.add("intertwining_Sphi_Nadj",
               _rel(s_phi @ n_op.T - n_op @ s_phi, np.linalg.norm(s_phi, "fro") * n_scale), 1e-10)

    sqrt_s_psi = linalg.sqrtm_spd(s_psi)
    n_hat = sqrt_s_psi @ n_op @ linalg.sqrtm_spd(s_phi)
    report.add("n_hat_symmetric", _rel(n_hat - n_hat.T, np.linalg.norm(n_hat, "fro")), 1e-9)
    return report
