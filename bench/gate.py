"""Correctness gate for benchmark ops, built on oracles outside pfcircuit.

Nothing here imports pfcircuit: the circuit generator is assembled from the
paper's equations, propagated with ``scipy.linalg.expm``, and the regime
inequalities are evaluated from their definition.  Each check takes the op's
argv and the text of its outputs and returns ``None`` when the output is
correct, or a one-line reason when it is not.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy.linalg import expm

CSV_COLUMNS = ["tau", "V1", "V2", "V1p", "V2p", "I1", "I2", "P1", "P2", "E1", "E2"]
SWEEP_HEADER = (
    "mu,gamma,rho,condition_rho_positive,condition_gamma_sq_gt_2alpha,"
    "condition_mu_sq_lt_1,coupling_nonzero,accepted,l4,power_window_ok,"
    "energy_lower,energy_upper,energy_window_ok,p1_diverges_to,p2_diverges_to"
)
VERIFY_KEYS = json.loads((Path(__file__).with_name("verify_keys.json")).read_text())

#: relative agreement demanded between a trajectory row and expm(L tau) psi0
TRAJECTORY_RTOL = 1e-8
#: fractions of the tau grid at which rows are compared with the expm oracle
SAMPLED_ROWS = (0.0, 1e-5, 0.13, 0.37, 0.5, 0.71, 0.94, 1.0)


def flag(argv: list[str], name: str, default: str | None = None) -> str | None:
    """Value following ``--name`` in a CLI argv, or ``default``."""
    key = f"--{name}"
    return argv[argv.index(key) + 1] if key in argv else default


def generator(mu: float, gamma: float) -> np.ndarray:
    """Normalized-unit generator on (V1, V2, V1', V2') from the circuit equations."""
    alpha = 1.0 / (1.0 - mu * mu)
    return np.array([
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [-alpha, alpha * mu, gamma, 0.0],
        [alpha * mu, -alpha, 0.0, -gamma],
    ])


def regime_accepted(mu: float, gamma: float) -> bool:
    """The strict regime inequalities: rho > 0, gamma^2 > 2 alpha, mu^2 < 1, mu != 0."""
    if not mu * mu < 1.0:
        return False
    alpha = 1.0 / (1.0 - mu * mu)
    rho = gamma**4 + 4.0 * alpha**2 * mu**2 - 4.0 * alpha * gamma**2
    return rho > 0.0 and gamma * gamma - 2.0 * alpha > 0.0 and mu != 0.0


def _expected_row(L: np.ndarray, gamma: float, i1: float, tau: float) -> np.ndarray:
    v1, v2, v1p, v2p = expm(L * tau) @ np.array([0.0, 0.0, -i1, 0.0])
    c1 = gamma * v1 - v1p  # I = V/R - C dV/dt with R = 1/gamma, C = 1; gain side negated
    c2 = -gamma * v2 - v2p
    return np.array([
        v1, v2, v1p, v2p, c1, c2, v1 * c1, v2 * c2,
        0.5 * (v1 * v1 + c1 * c1), 0.5 * (v2 * v2 + c2 * c2),
    ])


def check_simulate(argv: list[str], csv_text: str, plot_text: str) -> str | None:
    """trajectory.csv against the expm oracle; plot_data.dat against trajectory.csv."""
    samples = int(flag(argv, "samples"))
    mu, gamma = float(flag(argv, "mu")), float(flag(argv, "gamma"))
    i1, tau_max = float(flag(argv, "i1")), float(flag(argv, "tau-max", "5"))
    lines = csv_text.split("\n")
    if lines[0] != ",".join(CSV_COLUMNS):
        return f"trajectory header {lines[0]!r}"
    if len(lines) != samples + 2 or lines[-1] != "":
        return f"trajectory has {len(lines) - 2} rows, expected {samples}"
    if "nan" in csv_text or "inf" in csv_text:
        return "trajectory holds a nonfinite value"
    L = generator(mu, gamma)
    for frac in SAMPLED_ROWS:
        k = round(frac * (samples - 1))
        values = np.array([float(x) for x in lines[1 + k].split(",")])
        if values.size != len(CSV_COLUMNS):
            return f"row {k} has {values.size} fields"
        tau = tau_max * k / (samples - 1)
        if abs(values[0] - tau) > 1e-12 * max(1.0, tau):
            return f"row {k}: tau {values[0]!r}, expected {tau!r}"
        want = _expected_row(L, gamma, i1, tau)
        scale = max(1.0, float(np.linalg.norm(want[:4])))
        scales = np.array([scale] * 6 + [scale * scale] * 4)
        err = float(np.max(np.abs(values[1:] - want) / scales))
        if not err <= TRAJECTORY_RTOL:
            return f"row {k} (tau={tau:.6g}) deviates from expm by {err:.3e}"
    rows = [line.split(",") for line in lines[1:-1]]
    taus = [row[0] for row in rows]
    blocks = []
    for col, name in enumerate(CSV_COLUMNS[1:], start=1):
        body = "\n".join(f"{t},{row[col]}" for t, row in zip(taus, rows))
        blocks.append(f"# series {name}\ntau,{name}\n{body}")
    if plot_text != "\n\n".join(blocks) + "\n":
        return "plot_data.dat does not carry the value strings of trajectory.csv"
    return None


def check_verify_report(report: dict, pinned_keys: bool) -> str | None:
    """Every asserted check passes, re-evaluated from residual and tolerance."""
    if pinned_keys and list(report) != VERIFY_KEYS:
        return "verify report keys differ from the pinned list"
    for name, check in report.items():
        tol, passed = check["tolerance"], check["pass"]
        if tol is None:
            if passed is not None:
                return f"reported-only channel {name} carries a verdict"
            continue
        if passed is not True or not check["residual"] <= tol:
            return f"check {name} failed: residual {check['residual']!r} > {tol!r}"
    return None


def check_sweep(argv: list[str], csv_text: str) -> str | None:
    """Row count, grid values, and the accepted column against the inequalities."""
    mu_lo, mu_hi, mu_n = flag(argv, "mu-range").split(":")
    ga_lo, ga_hi, ga_n = flag(argv, "gamma-range").split(":")
    mus = np.linspace(float(mu_lo), float(mu_hi), int(mu_n))
    gammas = np.linspace(float(ga_lo), float(ga_hi), int(ga_n))
    lines = csv_text.split("\n")
    if lines[0] != SWEEP_HEADER:
        return f"sweep header {lines[0]!r}"
    if len(lines) != mus.size * gammas.size + 2 or lines[-1] != "":
        return f"sweep has {len(lines) - 2} rows, expected {mus.size * gammas.size}"
    row = 1
    for mu in mus:
        for gamma in gammas:
            fields = lines[row].split(",")
            if float(fields[0]) != mu or float(fields[1]) != gamma:
                return f"sweep row {row} is at ({fields[0]}, {fields[1]})"
            want = str(regime_accepted(float(mu), float(gamma)))
            if fields[7] != want:
                return f"sweep row {row}: accepted={fields[7]}, inequalities give {want}"
            row += 1
    return None


def _mutate_digit(text: str, seed: int) -> str:
    """Change one digit in the middle half of ``text``."""
    pos = len(text) // 4 + seed % (len(text) // 2)
    while not text[pos].isdigit():
        pos += 1
    return text[:pos] + str((int(text[pos]) + 1) % 10) + text[pos + 1:]


def self_test(kind: str, argv: list[str], outputs: dict[str, str], seed: int) -> str | None:
    """Confirm the gate refuses a corrupted copy of outputs it has accepted."""
    if kind == "simulate":
        csv_text = _mutate_digit(outputs["trajectory.csv"], seed)
        if check_simulate(argv, csv_text, outputs["plot_data.dat"]) is None:
            return "gate accepted a trajectory.csv with one digit changed"
    elif kind == "verify":
        report = json.loads(outputs["verify_report.json"])
        name = next(k for k, c in report.items() if c["tolerance"] is not None)
        report[name] = {**report[name], "residual": 10.0 * report[name]["tolerance"] + 1e-300,
                        "pass": False}
        if check_verify_report(report, pinned_keys=False) is None:
            return "gate accepted a verify report with one failing check"
    elif kind == "sweep":
        lines = outputs["sweep.csv"].split("\n")
        k = 1 + seed % (len(lines) - 2)
        fields = lines[k].split(",")
        fields[7] = "False" if fields[7] == "True" else "True"
        lines[k] = ",".join(fields)
        if check_sweep(argv, "\n".join(lines)) is None:
            return "gate accepted a sweep with one accepted flag flipped"
    return None
