"""Metamorphic checks: verify's verdicts are invariant under the circuit's exact symmetries.

The dynamics are linear in the initial state, so scaling i1 changes no verdict;
D L(mu) D = L(-mu) with D = diag(1, -1, 1, -1), so the sign of mu changes none;
a physical circuit runs the dynamics of its normalized image; and a uniform
gauge scales T by c and psi by 1/c, so the trajectory moves by roundoff only.
Points are drawn with stdlib ``random`` seeds.
"""

import json
import random
from pathlib import Path

import numpy as np
import pytest

from pfcircuit import CircuitParams, Gauge, Model, derive, normalized
from pfcircuit.cli import EXIT_OK, main
from pfcircuit.verify import run_verification_suite

#: the CLI's default grid
TAU = np.linspace(0.0, 5.0, 1001)
#: the regime grid of ROADMAP item 1
_GRID_MU, _GRID_GAMMA = np.linspace(-0.98, 0.98, 25), np.geomspace(1.2, 200.0, 25)
#: the one residual whose printed numerators attach i1 to only part of each term
_NOT_HOMOGENEOUS = "dynamics/reported_paper_coefficient_deviation"
_KEYS = json.loads((Path(__file__).parents[1] / "bench" / "verify_keys.json").read_text())
#: c of the gap between two simulate runs under c*u*kappa(T): each is within n = 4 times its
#: three operations on T (psi's closed form, the projection psi^T psi0 and the modal sum
#: T e^{Lambda tau} c) of the exact states, so two of them are within 2 * 12
_UNIFORM_GAUGE_C = 24.0


def _report(params, gauge=Gauge()):
    return run_verification_suite(Model(params, gauge), TAU)


def _verdict(params):
    """Each asserted check's name and pass flag in report order, or the refusal's class name."""
    try:
        report = _report(params)
    except ValueError as exc:
        return type(exc).__name__
    return [(name, check.passed) for name, check in report.checks.items()
            if check.passed is not None]


def _physical(i1):
    return CircuitParams(L=2.0, C=0.5, R=0.2, M=0.7, i1=i1)


@pytest.mark.parametrize(("point", "gauge"), [
    (lambda i1: normalized(0.5, 3.0, i1=i1), Gauge()),
    (lambda i1: normalized(0.5, 3.0, i1=i1), Gauge(2.0, 0.5, 3.0, 1.0)),
    (_physical, Gauge())], ids=["reference", "gauge", "physical"])
@pytest.mark.parametrize("exponent", [-40, 40])
def test_power_of_two_initial_current_keeps_every_residual(point, gauge, exponent):
    # a power of two scales every state, path and weight exactly, so every
    # relative residual keeps its bits
    base, scaled = (_report(point(i1), gauge).checks for i1 in (1.0, 2.0**exponent))
    assert list(scaled) == list(base)
    assert [c.passed for c in scaled.values()] == [c.passed for c in base.values()]
    assert all(scaled[name].passed is not False for name in scaled)
    differ = [name for name in base if scaled[name].residual != base[name].residual]
    assert differ in ([], [_NOT_HOMOGENEOUS])


@pytest.mark.parametrize("args", [
    *(["--mu", "0.5", "--gamma", "3", "--i1", i1] for i1 in ("1e-13", "1e9", "1e12")),
    ["--mu", "0.5", "--gamma", "3", "--i1", "1e150", "--tau-max", "1e-300"]],
    ids=lambda args: "-".join(args[1::2]))
def test_verify_passes_at_any_initial_current(tmp_path, args):
    # the floors and the dominant-mode threshold were absolute in units of i1:
    # 1e-13 dropped three keys, 1e9 and 1e12 failed the display check, and the
    # asymptotic window of the last started at negative times
    assert main(["verify", *args, "--output", str(tmp_path)]) == EXIT_OK
    report = json.loads((tmp_path / "verify_report.json").read_text())
    if "--tau-max" not in args:
        assert list(report) == _KEYS


def test_sign_of_the_coupling_keeps_every_verdict():
    rng = random.Random(20261020)
    points = rng.sample([(mu, gamma) for mu in _GRID_MU[13:].tolist()
                         for gamma in _GRID_GAMMA.tolist()], 20)
    for mu, gamma in points:
        assert _verdict(normalized(-mu, gamma)) == _verdict(normalized(mu, gamma)), (mu, gamma)


def test_physical_circuit_and_its_normalized_image_agree():
    rng = random.Random(20261021)
    for _ in range(20):
        mu = rng.uniform(0.05, 0.9)
        # gamma a random factor above the regime threshold 2 alpha (1 + sqrt(1 - mu^2))
        gamma = (2.0 * (1.0 + (1.0 - mu * mu) ** 0.5) / (1.0 - mu * mu)
                 * rng.uniform(1.2, 4.0)) ** 0.5
        L, C = 10.0 ** rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-3.0, 3.0)
        physical = CircuitParams(L=L, C=C, R=(L / C) ** 0.5 / gamma, M=mu * L)
        derived = derive(physical)
        image = normalized(derived.mu, derived.gamma)
        assert _verdict(physical) == _verdict(image), (L, C, mu, gamma)


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 3.0, 1e6])
def test_uniform_gauge_moves_simulate_by_roundoff_only(tmp_path, scale):
    rows = []
    for gauge in ([1.0] * 4, [scale] * 4):
        out = tmp_path / repr(gauge[0])
        assert main(["simulate", "--mu", "0.5", "--gamma", "3", "--gauge",
                     ",".join(map(repr, gauge)), "--output", str(out)]) == EXIT_OK
        data = np.genfromtxt(out / "trajectory.csv", delimiter=",", names=True)
        rows.append(np.stack([data[name] for name in ("V1", "V2", "V1p", "V2p")], axis=1))
    gap = np.linalg.norm(rows[1] - rows[0], axis=1) / np.linalg.norm(rows[0], axis=1)
    kappa = Model(normalized(0.5, 3.0)).pair.kappa  # no uniform gauge changes it
    assert np.max(gap) <= _UNIFORM_GAUGE_C * 2.0**-53 * kappa, np.max(gap)
