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

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .basis import BasisPair
from .errors import GaugeDegenerate, ZeroCoupling
from .liouvillian import Spectrum
from .params import GAMMA_MAX, DerivedParams

__all__ = [
    "Gauge",
    "PFSystem",
    "VerificationReport",
    "fermion_generators",
    "build_h0",
    "build_T",
    "build_pf",
    "reconstruction_residual",
    "pf_checks",
    "add_n_hat_spectra",
    "pf_verify",
    "verify_two_level_pair",
]

GAUGE_MIN = 1e-12
#: the largest scale at which ||T||_F^4 = (2 scale)^4, all four columns at it, is a double
GAUGE_MAX = GAMMA_MAX / 2.0
#: the tolerance of the generator reconstruction, which ``heisenberg`` reads too
RECONSTRUCTION_TOL = 1e-9


@dataclass(frozen=True)
class Gauge:
    """Free nonzero column scales of the intertwiner, relative to unit-norm columns.

    The eigenvector equations fix each column of T only up to scale; physical
    trajectories are invariant under this choice.  The default keeps every
    column at unit norm, which is within sqrt(4) of the diagonal scaling that
    minimizes the 2-norm condition number of T (van der Sluis, Numer. Math. 14,
    1969).
    """

    t21: float = 1.0
    t22: float = 1.0
    t23: float = 1.0
    t24: float = 1.0

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not GAUGE_MIN < abs(value) <= GAUGE_MAX:
                raise GaugeDegenerate(f"gauge scale {name} must lie in ({GAUGE_MIN:g}, "
                                      f"{GAUGE_MAX!r}] in magnitude, relative to the "
                                      f"unit-norm column; got {value}")

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


def build_T(spec: Spectrum, derived: DerivedParams, gauge: Gauge) -> tuple[np.ndarray, np.ndarray]:
    """Assemble the intertwiner and its column parameters.

    Column j of T is the generator's eigenvector t (delta, 1, l delta, l) for
    l = (l3, l1, l2, l4)[j], at unit norm times the gauge.  Q = diag(P2, -P2), P2
    swapping the sub-circuits, gives Q L Q^-1 = -L and maps the column of l onto
    that of -l with delta -> 1/delta (Schindler et al., PRA 84, 040101(R), 2011),
    so delta21 = 1/delta24, delta22 = 1/delta23, and delta23 and delta24 add
    positive terms.  A coupling at which they overflow, zero included, is rejected.

    Returns ``(T, deltas)`` with deltas = (delta21, delta22, delta23, delta24).
    """
    a, g = derived.alpha, derived.gamma
    with np.errstate(divide="ignore", over="ignore"):
        d23, d24 = (np.float64(l * l + a + g * l) / (a * derived.mu) for l in (spec.l2, spec.l4))
    if not np.isfinite(d24):
        raise ZeroCoupling(f"the intertwiner is undefined at mu = {derived.mu!r}: delta24 = {d24}")
    deltas = np.array([1.0 / d24, 1.0 / d23, d23, d24])
    ls = spec.eigenvalues
    # the unit column is (1, l)/|(1, l)| (x) (delta, 1)/|(delta, 1)|, so no
    # intermediate value overflows where delta is finite
    outer = np.stack([np.ones(4), ls]) / np.hypot(1.0, ls)
    inner = np.stack([deltas, np.ones(4)]) / np.hypot(1.0, deltas)
    matrix = (outer[:, None] * inner).reshape(4, 4) * gauge.as_array()
    return matrix, deltas


@dataclass(frozen=True)
class PFSystem:
    """The full deformed operator system built from one intertwiner."""

    T: np.ndarray
    T_inv: np.ndarray
    a: np.ndarray
    """(a1, a2) as a (2, 4, 4) stack; b and N are stacked in the same mode order."""
    b: np.ndarray
    N: np.ndarray
    S_phi: np.ndarray
    S_psi: np.ndarray
    H0: np.ndarray
    spectrum: Spectrum
    kappa: float

    @cached_property
    def metric_eigh(self) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """The Jacobi decompositions (w, V) of S_phi and of S_psi, taken on first use.

        The verifier's positivity, norm-bound, metric-root and frame-bound
        checks all read these two, so both metrics are decomposed in one call.
        """
        return tuple(zip(*linalg.jacobi_eigh(np.stack([self.S_phi, self.S_psi]))))


def build_pf(pair: BasisPair, spec: Spectrum) -> PFSystem:
    """Construct every operator of the system from the intertwiner's two families.

    T is the phi family and T^-1 the transposed psi family, so no inverse is
    taken here.  Both modes go through one stacked product per operator.
    """
    T, T_inv = pair.phi, pair.psi.T
    A = np.stack(fermion_generators())
    a = T @ A @ T_inv
    b = T @ A.swapaxes(-1, -2) @ T_inv
    return PFSystem(T=T, T_inv=T_inv, a=a, b=b, N=b @ a, S_phi=T @ T.T, S_psi=T_inv.T @ T_inv,
                    H0=build_h0(spec), spectrum=spec, kappa=pair.kappa)


@dataclass
class VerificationReport:
    """Ordered named checks, each held as its JSON record ``{"residual", "tolerance", "pass"}``.

    Asserted checks carry a tolerance and a pass flag; reported-only channels
    carry ``"tolerance": None, "pass": None`` and never gate anything; their
    residual is None where the channel gives no number.
    """

    checks: dict[str, dict] = field(default_factory=dict)

    def add(self, name: str, residual: float | None, tolerance: float | None) -> None:
        """Record a check; a reported-only channel (no tolerance) may carry no residual."""
        self.checks[name] = {"residual": None if residual is None else float(residual),
                             "tolerance": tolerance,
                             "pass": None if tolerance is None else bool(residual <= tolerance)}

    def merge(self, other: "VerificationReport", prefix: str) -> None:
        for name, check in other.checks.items():
            self.checks[prefix + name] = check

    @property
    def all_passed(self) -> bool:
        return all(c["pass"] for c in self.checks.values() if c["pass"] is not None)

    def failed(self) -> list[str]:
        return [name for name, c in self.checks.items() if c["pass"] is False]


def _rel(x: np.ndarray, scale: float) -> float:
    return float(np.linalg.norm(x, "fro") / max(scale, 1e-300))


def _anti(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x @ y + y @ x


def reconstruction_residual(system: PFSystem, liouvillian: np.ndarray) -> float:
    """||lambda1 N1 + lambda2 N2 + l3 I - L||_F / ||L||_F, the residual by which
    the operator system misses the independently assembled generator."""
    spec = system.spectrum
    recon = spec.lambda1 * system.N[0] + spec.lambda2 * system.N[1] + spec.l3 * np.eye(4)
    return _rel(recon - liouvillian, np.linalg.norm(liouvillian, "fro"))


#: the cross-pair anticommutators {x, y} of a_j or its adjoint with b_k or its
#: adjoint, k the other mode: (name, j, x is a_j^+, y is b_k^+).  Similarity
#: keeps the first four at zero; the mixed-dagger four vanish only for
#: orthogonal T, so they are reported, not asserted.
_CROSS_PAIRS = (
    ("cross_anticommutator_a1_b2", 0, False, False),
    ("cross_anticommutator_a2_b1", 1, False, False),
    ("cross_anticommutator_a1adj_b2adj", 0, True, True),
    ("cross_anticommutator_a2adj_b1adj", 1, True, True),
    ("reported_mixed_dagger_a1_b2adj", 0, False, True),
    ("reported_mixed_dagger_a1adj_b2", 0, True, False),
    ("reported_mixed_dagger_a2_b1adj", 1, False, True),
    ("reported_mixed_dagger_a2adj_b1", 1, True, False),
)


def pf_checks(system: PFSystem,
              liouvillian: np.ndarray) -> tuple[VerificationReport, np.ndarray]:
    """Every check of :func:`pf_verify` but the n-hat spectra, and the symmetrized n-hat pair.

    Residuals are scaled by operand norms (the deltas span ~3 orders of
    magnitude at reference parameters, so absolute tolerances would mislead).
    The checks against the independently assembled generator are what
    localizes a corrupted intertwiner.  The self-adjoint n_hat_j =
    S_psi^{1/2} N_j S_phi^{1/2} are built here, their only reader, so the
    metric roots' :class:`NotSPD` can refuse a verification and nothing else.
    Their spectra's keys hold their place in the report with None, which
    :func:`add_n_hat_spectra` replaces once a Jacobi call has decomposed the
    returned (2, 4, 4) pair (n_hat + n_hat^T)/2.
    """
    report = VerificationReport()
    eye = np.eye(4)
    s = system
    # one Frobenius norm per member: a norm over axis=(-2, -1) sums in another order
    na, nb, nn = ([np.linalg.norm(x, "fro") for x in stack] for stack in (s.a, s.b, s.N))

    for j, (aj, bj, naj, nbj) in enumerate(zip(s.a, s.b, na, nb), 1):
        report.add(f"a{j}_squared_zero", _rel(aj @ aj, naj * naj), 1e-10)
        report.add(f"b{j}_squared_zero", _rel(bj @ bj, nbj * nbj), 1e-10)
        report.add(f"anticommutator_a{j}_b{j}_is_identity",
                   _rel(_anti(aj, bj) - eye, 1.0), 1e-10)

    for name, j, x_adj, y_adj in _CROSS_PAIRS:
        x = s.a[j].T if x_adj else s.a[j]
        y = s.b[1 - j].T if y_adj else s.b[1 - j]
        report.add(name, _rel(_anti(x, y), na[j] * nb[1 - j]), 1e-10 if x_adj == y_adj else None)

    for j, (nj, nnj) in enumerate(zip(s.N, nn), 1):
        report.add(f"N{j}_idempotent", _rel(nj @ nj - nj, nnj), 1e-10)
    n1, n2 = s.N
    report.add("commutator_N1_N2", _rel(n1 @ n2 - n2 @ n1, nn[0] * nn[1]), 1e-10)

    # ladder eigenvalue relations on the eigenvector columns of T
    occupations = np.array([[0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]])
    t_scale = np.linalg.norm(s.T, "fro")
    for j, (nj, occupied) in enumerate(zip(s.N, occupations), 1):
        report.add(f"N{j}_eigenvector_columns",
                   np.linalg.norm(nj @ s.T - s.T * occupied, "fro") / t_scale, 1e-10)

    # metric operators
    sphi_scale = np.linalg.norm(s.S_phi, "fro")
    report.add("metric_phi_equals_TTadj", _rel(s.T @ s.T.T - s.S_phi, sphi_scale), 1e-9)
    report.add("metric_phi_symmetric", _rel(s.S_phi - s.S_phi.T, sphi_scale), 1e-12)
    report.add("metric_product_identity", _rel(s.S_phi @ s.S_psi - eye, 1.0), 1e-10)
    eigh_phi, eigh_psi = s.metric_eigh
    w_phi = eigh_phi[0]
    report.add("metric_phi_positive", max(0.0, -float(w_phi[0]) / float(w_phi[-1])), 0.0)
    # ||S_phi||_2 = max |eigenvalue| for the symmetric S_phi
    norm_bound_gap = float(np.max(np.abs(w_phi))) - float(np.sum(s.T**2))
    report.add("metric_phi_norm_bound", max(0.0, norm_bound_gap / sphi_scale), 0.0)

    # intertwining of each number operator with its adjoint through the metrics
    spsi_scale = np.linalg.norm(s.S_psi, "fro")
    for j, (nj, nnj) in enumerate(zip(s.N, nn), 1):
        report.add(f"intertwining_Spsi_N{j}",
                   _rel(s.S_psi @ nj - nj.T @ s.S_psi, spsi_scale * nnj), 1e-9)
        report.add(f"intertwining_Sphi_N{j}adj",
                   _rel(s.S_phi @ nj.T - nj @ s.S_phi, sphi_scale * nnj), 1e-9)

    # similarity-transported number operators are symmetric with spectrum {0, 1}
    sqrt_S_psi = linalg.sqrtm_spd(eigh_psi)
    sqrt_S_phi = linalg.sqrtm_spd(eigh_phi)  # equals S_psi^{-1/2}
    n_hats = sqrt_S_psi @ s.N @ sqrt_S_phi
    for j, nh in zip("12", n_hats):
        report.add(f"n_hat{j}_symmetric", _rel(nh - nh.T, np.linalg.norm(nh, "fro")), 1e-9)
        report.checks[f"n_hat{j}_eigenvalues_binary"] = None

    l_scale = np.linalg.norm(liouvillian, "fro")
    report.add("generator_reconstruction", reconstruction_residual(s, liouvillian),
               RECONSTRUCTION_TOL)
    shifted = liouvillian - s.spectrum.l3 * eye
    report.add("intertwining_generator_H0",
               _rel(shifted @ s.T - s.T @ s.H0,
                    np.linalg.norm(shifted, "fro") * t_scale), 1e-9)
    report.add("crypto_hermiticity",
               _rel(liouvillian @ s.S_phi - s.S_phi @ liouvillian.T,
                    l_scale * sphi_scale), 1e-9)

    report.add("reported_condition_number_T", s.kappa, None)
    return report, (n_hats + np.swapaxes(n_hats, 1, 2)) / 2.0


def add_n_hat_spectra(report: VerificationReport, spectra: np.ndarray) -> None:
    """Fill the n-hat spectrum checks that :func:`pf_checks` left in ``report`` from the
    (2, 4) ascending Jacobi eigenvalues of its n-hat pair; each should read (0, 0, 1, 1)."""
    for j, w in zip("12", spectra):
        report.add(f"n_hat{j}_eigenvalues_binary",
                   float(np.max(np.abs(w - np.array([0.0, 0.0, 1.0, 1.0])))), 1e-9)


def pf_verify(system: PFSystem, liouvillian: np.ndarray) -> VerificationReport:
    """Run every algebraic identity of the operator system, one named check each.

    The checks of :func:`pf_checks`, with the n-hat spectra from their own Jacobi call.
    """
    report, n_hats = pf_checks(system, liouvillian)
    add_n_hat_spectra(report, linalg.jacobi_eigh(n_hats)[0])
    return report


def verify_two_level_pair(a: np.ndarray, b: np.ndarray) -> VerificationReport:
    """Check the single-pair (two-level) deformed structure for any supplied (a, b).

    Builds the two ladders from the kernels of a and b^+, normalizes the
    vacua so their pairing is 1, and verifies the anticommutation rules, the
    ladder actions, the number operators, biorthonormality, the metric
    operators with their norm bounds and mapping/intertwining relations, and
    self-adjointness of the similarity-transported number operator.
    """
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
    eigh_phi, eigh_psi = zip(*linalg.jacobi_eigh(np.stack([s_phi, s_psi])))
    # ||S||_2 = max |eigenvalue| for the symmetric metrics
    for name, (w, _), vectors in (("phi", eigh_phi, phis), ("psi", eigh_psi, psis)):
        report.add(f"metric_{name}_norm_bound",
                   max(0.0, float(np.max(np.abs(w))) - float(np.sum(vectors**2))), 0.0)
    report.add("metric_maps_psi_to_phi",
               float(np.linalg.norm(s_phi @ psis - phis, "fro") / np.linalg.norm(phis, "fro")), 1e-10)
    report.add("metric_maps_phi_to_psi",
               float(np.linalg.norm(s_psi @ phis - psis, "fro") / np.linalg.norm(psis, "fro")), 1e-10)
    n_scale = np.linalg.norm(n_op, "fro")
    report.add("intertwining_Spsi_N",
               _rel(s_psi @ n_op - n_op.T @ s_psi, np.linalg.norm(s_psi, "fro") * n_scale), 1e-10)
    report.add("intertwining_Sphi_Nadj",
               _rel(s_phi @ n_op.T - n_op @ s_phi, np.linalg.norm(s_phi, "fro") * n_scale), 1e-10)

    n_hat = linalg.sqrtm_spd(eigh_psi) @ n_op @ linalg.sqrtm_spd(eigh_phi)
    report.add("n_hat_symmetric", _rel(n_hat - n_hat.T, np.linalg.norm(n_hat, "fro")), 1e-9)
    return report
