"""Command-line interface: commands, artifacts, exit codes, determinism."""

import json
import warnings

import numpy as np
import pytest

from pfcircuit import derive, normalized, spectrum, validate
from pfcircuit.cli import EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_OK, EXIT_REGIME, main
from pfcircuit.errors import NotSPD, SingularMatrix


def run(tmp_path, *args):
    return main([*args, "--output", str(tmp_path)])


def test_validate_accepts_reference(tmp_path):
    assert run(tmp_path, "validate", "--mu", "0.5", "--gamma", "3") == EXIT_OK
    payload = json.loads((tmp_path / "regime.json").read_text())
    assert payload["accepted"] is True
    assert payload["rho"] == pytest.approx(313.0 / 9.0, rel=1e-12)


def test_validate_rejects_bad_regime(tmp_path):
    assert run(tmp_path, "validate", "--mu", "0.5", "--gamma", "2") == EXIT_REGIME
    payload = json.loads((tmp_path / "regime.json").read_text())
    assert payload["accepted"] is False


def test_validate_rejects_zero_coupling(tmp_path):
    assert run(tmp_path, "validate", "--mu", "0", "--gamma", "3") == EXIT_REGIME


def test_spectrum_matches_library(tmp_path):
    assert run(tmp_path, "spectrum", "--mu", "0.5", "--gamma", "3") == EXIT_OK
    payload = json.loads((tmp_path / "spectrum.json").read_text())
    spec = spectrum(derive(normalized(0.5, 3.0)))
    for key, value in spec.to_dict().items():
        assert payload[key] == pytest.approx(value, rel=1e-15)


def test_spectrum_regime_exit(tmp_path):
    assert run(tmp_path, "spectrum", "--mu", "0.5", "--gamma", "2") == EXIT_REGIME


def test_simulate_golden_row_and_columns(tmp_path):
    assert run(tmp_path, "simulate", "--mu", "0.5", "--gamma", "3",
               "--i1", "1", "--samples", "11") == EXIT_OK
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "tau,V1,V2,V1p,V2p,I1,I2,P1,P2,E1,E2"
    first = lines[1].split(",")
    assert first[:7] == ["0", "0", "0", "-1", "0", "1", "0"]
    assert float(first[9]) == 0.5  # E1(0) = L i1^2 / 2
    plot = (tmp_path / "plot_data.dat").read_text()
    for name in ("V1", "V2", "I1", "I2", "P1", "P2", "E1", "E2"):
        assert f"# series {name}" in plot


def test_simulate_json_format(tmp_path):
    assert run(tmp_path, "simulate", "--mu", "0.5", "--gamma", "3",
               "--samples", "5", "--format", "json") == EXIT_OK
    payload = json.loads((tmp_path / "trajectory.json").read_text())
    assert list(payload) == ["tau", "V1", "V2", "V1p", "V2p", "I1", "I2",
                             "P1", "P2", "E1", "E2"]
    assert len(payload["tau"]) == 5


def test_simulate_determinism(tmp_path):
    first_dir = tmp_path / "a"
    second_dir = tmp_path / "b"
    for out in (first_dir, second_dir):
        assert main(["simulate", "--mu", "0.5", "--gamma", "3",
                     "--samples", "101", "--output", str(out)]) == EXIT_OK
    for name in ("trajectory.csv", "plot_data.dat"):
        assert (first_dir / name).read_bytes() == (second_dir / name).read_bytes()


def test_simulate_zero_coupling_exit(tmp_path):
    assert run(tmp_path, "simulate", "--mu", "0", "--gamma", "3") == EXIT_REGIME


def test_verify_reference(tmp_path):
    assert run(tmp_path, "verify", "--mu", "0.5", "--gamma", "3",
               "--samples", "201") == EXIT_OK
    payload = json.loads((tmp_path / "verify_report.json").read_text())
    asserted = {k: v for k, v in payload.items() if v["pass"] is not None}
    reported = {k: v for k, v in payload.items() if v["pass"] is None}
    assert all(v["pass"] for v in asserted.values())
    assert len(asserted) >= 40
    # the reported-only channels are present and carry no verdict
    assert "dynamics/reported_paper_coefficient_deviation" in reported
    assert "heisenberg/reported_norm_N1_initial" in reported
    assert "observables/reported_energy_rewrite_deviation" in reported


def test_verify_exit_is_pure_function_of_residuals(tmp_path, monkeypatch):
    import pfcircuit.cli as cli_mod

    real_suite = cli_mod.run_verification_suite

    def failing_suite(model, tau, rk4_step, seed=0):
        report = real_suite(model, tau, rk4_step, seed=seed)
        report.add("injected_failure", 1.0, 1e-12)
        return report

    monkeypatch.setattr(cli_mod, "run_verification_suite", failing_suite)
    assert run(tmp_path, "verify", "--mu", "0.5", "--gamma", "3",
               "--samples", "51") == EXIT_CHECK_FAILED


@pytest.mark.parametrize("error", [SingularMatrix("matrix is numerically singular", 0.0),
                                   NotSPD("matrix is not positive definite", -1.0)],
                         ids=["SingularMatrix", "NotSPD"])
def test_numerical_refusal_exit(tmp_path, monkeypatch, capsys, error):
    import pfcircuit.cli as cli_mod

    def refusing_suite(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli_mod, "run_verification_suite", refusing_suite)
    assert run(tmp_path, "verify", "--mu", "0.5", "--gamma", "3") == EXIT_REGIME
    assert type(error).__name__ in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "adjoint", "h0"])
def test_overflow_refused_before_writing(tmp_path, capsys, command):
    # e^{l4 tau} leaves the double range well before tau = 400 at this point
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--mu", "0.5", "--gamma", "3", "--tau-max", "400",
                     "--samples", "11", "--output", str(out)])
    assert code == EXIT_REGIME
    err = capsys.readouterr().err
    assert err.startswith("numerical refusal: SeriesOverflow: ") and "overflow" in err
    assert not out.exists()


def test_adjoint_artifacts(tmp_path):
    assert run(tmp_path, "adjoint", "--mu", "0.5", "--gamma", "3",
               "--samples", "21") == EXIT_OK
    lines = (tmp_path / "adjoint.csv").read_text().splitlines()
    assert lines[0] == "tau,x1,x2,x3,x4"
    assert len(lines) == 22
    payload = json.loads((tmp_path / "adjoint_report.json").read_text())
    assert payload["max_identification_residual"] < 1e-8
    assert payload["metric_route_max_residual"] < 1e-8


def test_adjoint_metric_route_matches_verify(tmp_path):
    assert run(tmp_path, "adjoint", "--mu", "0.5", "--gamma", "3",
               "--samples", "201") == EXIT_OK
    assert run(tmp_path, "verify", "--mu", "0.5", "--gamma", "3",
               "--samples", "201") == EXIT_OK
    adjoint = json.loads((tmp_path / "adjoint_report.json").read_text())
    verify = json.loads((tmp_path / "verify_report.json").read_text())
    assert adjoint["metric_route_max_residual"] \
        == verify["dynamics/adjoint_metric_route"]["residual"]


def test_adjoint_ill_conditioned_metric(tmp_path):
    # S_phi fails the determinant regularity test here; the route solves with it
    assert run(tmp_path, "adjoint", "--mu", "0.8", "--gamma", "7") == EXIT_OK
    payload = json.loads((tmp_path / "adjoint_report.json").read_text())
    assert payload["metric_route_max_residual"] < 1e-8


def test_h0_artifacts(tmp_path):
    assert run(tmp_path, "h0", "--mu", "0.5", "--gamma", "3",
               "--samples", "11") == EXIT_OK
    lines = (tmp_path / "h0.csv").read_text().splitlines()
    assert lines[0] == "tau,y1,y2,y3,y4"
    assert lines[1].split(",") == ["0", "1", "1", "1", "1"]


def test_heisenberg_artifacts(tmp_path):
    assert run(tmp_path, "heisenberg", "--mu", "0.5", "--gamma", "3") == EXIT_OK
    lines = (tmp_path / "heisenberg.csv").read_text().splitlines()
    assert lines[0] == "tau,normN1,normN2,ratio1,ratio2"
    payload = json.loads((tmp_path / "heisenberg_report.json").read_text())
    assert payload["two_path_deviation_N1"] < 1e-8
    assert payload["printed_order_deviation_N1"] > 1e-2
    assert np.isfinite(payload["bound_constant_1"])


def test_sweep_matches_direct_evaluation(tmp_path):
    assert run(tmp_path, "sweep", "--mu-range", "0.1:0.9:5",
               "--gamma-range", "1:5:5") == EXIT_OK
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(lines) == 26
    header = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        mu, gamma = float(row["mu"]), float(row["gamma"])
        report = validate(derive(normalized(mu, gamma)))
        assert row["accepted"] == str(report.accepted)
        assert float(row["rho"]) == pytest.approx(report.rho, rel=1e-12)
        if report.accepted:
            spec = spectrum(derive(normalized(mu, gamma)))
            assert float(row["l4"]) == pytest.approx(spec.l4, rel=1e-12)
            assert row["power_window_ok"] == "True"
        else:
            assert row["l4"] == ""


def test_sweep_requires_ranges(tmp_path):
    assert run(tmp_path, "sweep", "--mu", "0.5", "--gamma", "3") == EXIT_CONFIG


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "mode": "normalized", "mu": 0.5, "gamma": 3.0, "i1": 1.0,
        "samples": 7, "tau_max": 2.0,
    }))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--samples", "9",
                 "--output", str(out)]) == EXIT_OK
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 10  # flag overrides the config file's 7 samples
    assert float(lines[-1].split(",")[0]) == 2.0  # tau_max from the file


def test_config_errors(tmp_path):
    assert run(tmp_path, "simulate", "--mu", "0.5") == EXIT_CONFIG  # missing gamma
    assert run(tmp_path, "simulate", "--mu", "0.5", "--gamma", "3",
               "--samples", "1") == EXIT_CONFIG
    assert run(tmp_path, "simulate", "--mode", "physical",
               "--mu", "0.5", "--gamma", "3") == EXIT_CONFIG
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(tmp_path, "simulate", "--config", str(bad)) == EXIT_CONFIG
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"mu": 0.5, "gamma": 3.0, "bogus": 1}))
    assert run(tmp_path, "simulate", "--config", str(unknown)) == EXIT_CONFIG


def test_physical_mode(tmp_path):
    assert run(tmp_path, "simulate", "--mode", "physical", "--L", "1",
               "--C", "1", "--R", "0.3333333333333333", "--M", "0.5",
               "--samples", "5") == EXIT_OK


def test_gauge_flag(tmp_path):
    base = tmp_path / "base"
    scaled = tmp_path / "scaled"
    assert main(["simulate", "--mu", "0.5", "--gamma", "3", "--samples", "21",
                 "--output", str(base)]) == EXIT_OK
    assert main(["simulate", "--mu", "0.5", "--gamma", "3", "--samples", "21",
                 "--gauge", "2,0.5,3,1", "--output", str(scaled)]) == EXIT_OK
    a = np.genfromtxt(base / "trajectory.csv", delimiter=",", names=True)
    b = np.genfromtxt(scaled / "trajectory.csv", delimiter=",", names=True)
    np.testing.assert_allclose(a["V1"], b["V1"], atol=1e-10 * np.max(np.abs(a["V1"])))
