"""Command-line interface: commands, artifacts, exit codes, determinism."""

import hashlib
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import pfcircuit
from pfcircuit import (Gauge, Model, derive, energy, normalized, number_evolution, power,
                       spectrum, validate)
from pfcircuit import cli as cli_mod
from pfcircuit import dynamics as dyn
from pfcircuit.cli import EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_OK, EXIT_REGIME, main
from pfcircuit.errors import NearDegenerate, NotSPD, SingularMatrix, ZeroSigma


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
    traj = Model(normalized(0.5, 3.0, i1=1.0)).evolve(np.linspace(0.0, 5.0, 5))
    np.testing.assert_array_equal(payload["V1p"], traj.V1p)


def _plot_text(tau, series):
    """plot_data.dat as the contract states it: per series, its name, `tau,NAME`, the rows."""
    blocks = [f"# series {name}\ntau,{name}\n" + "\n".join(map(",".join, zip(tau, values)))
              for name, values in series.items()]
    return "\n\n".join(blocks) + "\n"


def test_plot_data_repeats_csv_strings(tmp_path):
    # 301 samples span three formatting blocks, the last one partial
    assert run(tmp_path, "simulate", "--mu", "0.5", "--gamma", "3", "--samples", "301") == EXIT_OK
    header, *rows = (tmp_path / "trajectory.csv").read_text().splitlines()
    names = header.split(",")
    columns = list(zip(*(row.split(",") for row in rows)))
    assert len(columns[0]) == 301
    expected = _plot_text(columns[0], dict(zip(names[1:], columns[1:])))
    assert (tmp_path / "plot_data.dat").read_text() == expected


def test_plot_data_formats_json_values(tmp_path):
    assert run(tmp_path, "simulate", "--mu", "0.5", "--gamma", "3", "--samples", "301",
               "--format", "json") == EXIT_OK
    payload = json.loads((tmp_path / "trajectory.json").read_text())
    strings = {name: [dyn.format_float(v) for v in values] for name, values in payload.items()}
    tau = strings.pop("tau")
    assert (tmp_path / "plot_data.dat").read_text() == _plot_text(tau, strings)


def _joined_artifacts(samples, gauge):
    """trajectory.csv, trajectory.json and plot_data.dat at (0.5, 3), each joined whole."""
    model = Model(normalized(0.5, 3.0, i1=1.0), Gauge(*gauge))
    traj = model.evolve(np.linspace(0.0, 5.0, samples))
    columns = dyn.trajectory_columns(traj, power(traj, model.params, model.derived),
                                     energy(traj, model.params))
    strings = {name: [dyn.format_float(v) for v in c.tolist()] for name, c in columns.items()}
    tau = strings.pop("tau")
    return {
        "trajectory.csv": ",".join(columns) + "\n" + dyn.csv_text([tau, *strings.values()]),
        "trajectory.json": json.dumps({name: c.tolist() for name, c in columns.items()},
                                      indent=2),
        "plot_data.dat": _plot_text(tau, strings),
    }


@pytest.mark.parametrize(("samples", "gauge"),
                         [(n, (1.0, 1.0, 1.0, 1.0)) for n in (2, 127, 128, 129, 257, 5001)]
                         + [(301, (2.0, 0.5, 3.0, 1.0))])
def test_streamed_artifacts_equal_the_joined_texts(tmp_path, samples, gauge):
    # block edges at 128 rows: one short block, exactly one, one plus a row, two plus a row
    want = _joined_artifacts(samples, gauge)
    for fmt in ("csv", "json"):
        out = tmp_path / fmt
        assert main(["simulate", "--mu", "0.5", "--gamma", "3", "--i1", "1",
                     "--samples", str(samples), "--gauge", ",".join(map(str, gauge)),
                     "--format", fmt, "--output", str(out)]) == EXIT_OK
        for name in (f"trajectory.{fmt}", "plot_data.dat"):
            assert (out / name).read_text() == want[name], name


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_simulate_peak_memory_below_its_output(tmp_path, fmt):
    # a 20,001-sample op writes 11.5 MB (csv) or 12.4 MB (json); joining either
    # file whole before writing it took the traced peak to 28.6 or 39.7 MB
    args = ["simulate", "--mu", "0.5", "--gamma", "3", "--format", fmt]
    assert run(tmp_path / "warm-up", *args, "--samples", "301") == EXIT_OK
    out = tmp_path / "op"
    tracemalloc.start()
    try:
        assert run(out, *args, "--samples", "20001") == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    written = sum(f.stat().st_size for f in out.iterdir())
    assert peak < written


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_simulate_formats_each_value_once(tmp_path, monkeypatch, fmt):
    # 11 written series of 101 samples: tau, 4 states, 2 currents, 2 powers, 2 energies
    calls = []
    real = dyn.format_float

    def counting(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(dyn, "format_float", counting)
    monkeypatch.setattr(cli_mod, "_fmt", counting)
    assert run(tmp_path, "simulate", "--mu", "0.5", "--gamma", "3", "--samples", "101",
               "--format", fmt) == EXIT_OK
    assert len(calls) == 11 * 101


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
    pinned = Path(__file__).parents[1] / "bench" / "verify_keys.json"
    assert list(payload) == json.loads(pinned.read_text())
    asserted = {k: v for k, v in payload.items() if v["pass"] is not None}
    reported = {k: v for k, v in payload.items() if v["pass"] is None}
    assert all(v["pass"] for v in asserted.values())
    assert len(asserted) >= 40
    # the reported-only channels are present and carry no verdict
    assert "dynamics/reported_paper_coefficient_deviation" in reported
    assert "heisenberg/reported_norm_N1_initial" in reported
    assert "observables/reported_energy_rewrite_deviation" in reported


def test_verify_zero_initial_current(tmp_path):
    # the zero trajectory satisfies every identity; no relative residual may divide by 0
    assert run(tmp_path, "verify", "--mu", "0.5", "--gamma", "3", "--i1", "0",
               "--samples", "201") == EXIT_OK


def test_verify_refuses_a_slope_tail_of_one_sample(tmp_path, capsys):
    # tau >= 0.8 * 5 holds only tau = 5 of [0, 2.5, 5]: polyfit warned twice and
    # the slope checks read 2.7; pytest's filterwarnings = error catches a warning
    out = tmp_path / "out"
    assert main(["verify", "--mu", "0.5", "--gamma", "3", "--samples", "3",
                 "--output", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: verify fits its log slopes on tau >= 0.8*tau_max")
    assert "holds 1 of 3 samples" in err and "--samples 6" in err
    assert not out.exists()
    assert main(["verify", "--mu", "0.5", "--gamma", "3", "--samples", "6",
                 "--output", str(out)]) in (EXIT_OK, EXIT_CHECK_FAILED)


_COMMAND_ARGS = {name: ["--mu-range", "0.1:0.9:3", "--gamma-range", "1:5:3"] if name == "sweep"
                 else ["--mu", "0.5", "--gamma", "3"] for name in cli_mod._COMMANDS}


@pytest.mark.parametrize("command", list(_COMMAND_ARGS))
def test_command_leaves_numpy_random_unloaded(tmp_path, command):
    # a fresh interpreter, because these tests themselves import numpy.random
    src = Path(__file__).resolve().parents[1] / "src"
    script = ("import sys\nfrom pfcircuit.cli import main\n"
              f"code = main({[command, *_COMMAND_ARGS[command], '--output', str(tmp_path)]!r})\n"
              "print(code, 'numpy.random' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert done.stdout.splitlines()[-1] == "0 False"


def test_verify_exit_is_pure_function_of_residuals(tmp_path, monkeypatch):
    import pfcircuit.cli as cli_mod

    real_suite = cli_mod.run_verification_suite

    def failing_suite(model, tau, seed=0):
        report = real_suite(model, tau, seed=seed)
        report.add("injected_failure", 1.0, 1e-12)
        return report

    monkeypatch.setattr(cli_mod, "run_verification_suite", failing_suite)
    assert run(tmp_path, "verify", "--mu", "0.5", "--gamma", "3",
               "--samples", "51") == EXIT_CHECK_FAILED


@pytest.mark.parametrize("error", [SingularMatrix("matrix is numerically singular", 0.0),
                                   NotSPD("matrix is not positive definite", -1.0),
                                   ZeroSigma("printed denominator sigma = C * 0.0")],
                         ids=["SingularMatrix", "NotSPD", "ZeroSigma"])
def test_numerical_refusal_exit(tmp_path, monkeypatch, capsys, error):
    import pfcircuit.cli as cli_mod

    def refusing_suite(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli_mod, "run_verification_suite", refusing_suite)
    assert run(tmp_path, "verify", "--mu", "0.5", "--gamma", "3") == EXIT_REGIME
    assert type(error).__name__ in capsys.readouterr().err


def test_verify_small_capacitance_physical_point(tmp_path):
    # mu = 0.5, gamma = 3 in physical units: sigma = C * 449 is far below 1e-12
    # here, yet the printed denominator is not zero
    assert run(tmp_path, "verify", "--mode", "physical", "--L", "1e-6", "--C", "1e-15",
               "--R", "10540.925533894598", "--M", "0.5e-6", "--i1", "1") == EXIT_OK
    payload = json.loads((tmp_path / "verify_report.json").read_text())
    assert 0.0 < payload["dynamics/reported_paper_sigma"]["residual"] < 1e-12


def _count_calls(monkeypatch, targets):
    """Count calls of each ``module.function`` in ``targets``, under every name bound to it.

    ``from x import f`` copies are wrapped too, so a call is counted whichever
    binding it goes through.
    """
    counts = dict.fromkeys(targets, 0)
    wrappers = {}
    for target in targets:
        module_name, name = target.split(".")
        fn = getattr(importlib.import_module(f"pfcircuit.{module_name}"), name)

        def counting(*args, _fn=fn, _target=target, **kwargs):
            counts[_target] += 1
            return _fn(*args, **kwargs)

        wrappers[fn] = counting
    modules = [pfcircuit] + [importlib.import_module(f"pfcircuit.{info.name}")
                             for info in pkgutil.iter_modules(pfcircuit.__path__)]
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                monkeypatch.setattr(module, attr, wrappers[obj])
    return counts


def test_intertwiner_built_and_inverted_once_per_model(tmp_path, monkeypatch):
    # verify builds two Models: the run's own and its second-gauge copy
    counts = _count_calls(monkeypatch, ["pfalgebra.build_T", "linalg.inverse",
                                        "basis.build_bases", "pfalgebra.build_pf",
                                        "params.validate", "linalg.jacobi_eigh"])
    assert run(tmp_path, "verify", "--mu", "0.5", "--gamma", "3",
               "--samples", "201") == EXIT_OK
    # inverses: T in each build_bases only; S_psi = S_phi^-1 is read from the model.
    # Jacobi: the verifier's two metric roots, four metric and n-hat spectra, two
    # frame-bound norms, and one stacked call for the N1 and N2 norm stacks together
    assert counts == {"pfalgebra.build_T": 2, "linalg.inverse": 2, "basis.build_bases": 2,
                      "pfalgebra.build_pf": 1, "params.validate": 2,
                      "linalg.jacobi_eigh": 9}


def test_heisenberg_evolves_both_operators_in_one_pass(tmp_path, monkeypatch):
    counts = _count_calls(monkeypatch, ["heisenberg.number_evolution",
                                        "heisenberg.evolve_observable", "linalg.jacobi_eigh"])
    assert run(tmp_path, "heisenberg", "--mu", "0.5", "--gamma", "3") == EXIT_OK
    # Jacobi: one stacked call that norms N1(tau) and N2(tau) together; the metric
    # roots are taken by the verifier only
    assert counts == {"heisenberg.number_evolution": 1, "heisenberg.evolve_observable": 1,
                      "linalg.jacobi_eigh": 1}


def test_heisenberg_checks_the_regime_once(tmp_path, monkeypatch):
    counts = _count_calls(monkeypatch, ["params.validate"])
    assert run(tmp_path, "heisenberg", "--mu", "0.5", "--gamma", "3") == EXIT_OK
    assert counts == {"params.validate": 1}


@pytest.mark.parametrize(("command", "tau_max"),
                         [("simulate", "400"), ("adjoint", "400"), ("h0", "400"),
                          ("verify", "400"), ("verify", "143.5")],
                         ids=["simulate", "adjoint", "h0", "verify", "verify-143.5"])
def test_overflow_refused_before_writing(tmp_path, capsys, command, tau_max):
    # e^{l4 tau} leaves the double range well before tau = 400 at this point;
    # at 143.5 the states are finite but their squares (row norms, energies) are not
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--mu", "0.5", "--gamma", "3", "--tau-max", tau_max,
                     "--samples", "11", "--output", str(out)])
    assert code == EXIT_REGIME
    err = capsys.readouterr().err
    assert err.startswith("numerical refusal: SeriesOverflow: ") and "overflow" in err
    assert not out.exists()


@pytest.mark.parametrize(("command", "mu"),
                         [("heisenberg", "0.98"), ("verify", "0.98"), ("verify", "-0.98")])
def test_heisenberg_norm_overflow_refused(tmp_path, capsys, command, mu):
    # l4 is large enough here that the evolved number operators leave the
    # double range before tau = 3, the end of the Heisenberg grid
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--mu", mu, "--gamma", "68.88820038093009",
                     "--output", str(out)])
    assert code == EXIT_REGIME
    err = capsys.readouterr().err
    assert err.startswith("numerical refusal: SeriesOverflow: ") and "overflow" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "heisenberg"])
def test_reconstruction_failure_refused_by_name(tmp_path, capsys, command):
    # the gauge is 1/||T[:, j]||; lambda1 N1 + lambda2 N2 + l3 I then misses the
    # generator by 1.3e-9, from cancellation in the closed forms at large gamma
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--mu", "0.1", "--gamma", "180",
                     "--gauge", "0.00555564,0.998731,0.0500604,8.66039e-09",
                     "--output", str(out)])
    assert code == EXIT_REGIME
    err = capsys.readouterr().err
    assert err.startswith("numerical refusal: ReconstructionFailure: "
                          "generator reconstruction residual ")
    assert not out.exists()


#: the 25 x 25 regime grid of the ROADMAP, and 8 accepted points on it at large
#: gamma: in the column-equilibrated gauge mu = +-0.0817 and +-0.1633 give
#: reconstruction residuals above 1e-9, mu = +-0.245 (gamma 200) 5e-11
_GRID_MU, _GRID_GAMMA = np.linspace(-0.98, 0.98, 25), np.geomspace(1.2, 200.0, 25)
_RECONSTRUCTION_POINTS = [(float(_GRID_MU[12 + sign * k]), float(_GRID_GAMMA[i]))
                          for sign in (-1, 1) for k, i in ((1, 23), (1, 24), (2, 24), (3, 24))]


def test_regime_grid_ends_without_a_traceback(tmp_path, capsys):
    # every accepted point ends in a pass, failed checks or a named refusal, in
    # the unit gauge and with T's columns scaled to unit norm; failed checks
    # (exit 1) are still allowed, from the slope and conditioning checks
    coarse = [(float(mu), float(gamma)) for mu in np.linspace(-0.98, 0.98, 6)
              for gamma in np.geomspace(1.2, 200.0, 5)]  # an even mu count skips 0
    runs = 0
    for mu, gamma in coarse + _RECONSTRUCTION_POINTS:
        model = Model(normalized(mu, gamma))
        if not validate(model.derived).accepted:
            continue
        equilibrated = (1.0 / np.linalg.norm(model.T, axis=0)).tolist()
        for gauge in ([1.0] * 4, equilibrated):
            for command in ("verify", "heisenberg"):
                args = [command, "--mu", repr(mu), "--gamma", repr(gamma), "--samples", "11",
                        "--gauge", ",".join(map(repr, gauge)), "--output", str(tmp_path)]
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    try:
                        code = main(args)
                    except Exception as exc:  # report which run raised
                        pytest.fail(f"{' '.join(args)} raised {exc!r}")
                assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_REGIME), args
                runs += 1
    capsys.readouterr()
    assert runs == 4 * (22 + len(_RECONSTRUCTION_POINTS))


def test_gauge_check_relative_to_the_run_gauge(tmp_path):
    # in the column-equilibrated gauge, the fixed second gauge (2, 0.5, 3, 1) made
    # T singular here; scaled relative to the run's gauge it stays regular
    mu, gamma = -0.245, 23.72792075861588
    gauge = 1.0 / np.linalg.norm(Model(normalized(mu, gamma)).T, axis=0)
    assert run(tmp_path, "verify", "--mu", repr(mu), "--gamma", repr(gamma), "--samples", "11",
               "--gauge", ",".join(map(repr, gauge.tolist()))) == EXIT_OK


def test_rk4_oracle_refines_its_step_at_large_l4(tmp_path):
    # l4 = 44.95: a fixed step of 1e-3 misses by 7.4e-6, so the oracle must
    # refine its step to stay near its 1e-7 target
    mu, gamma = 0.245, 44.977
    gauge = 1.0 / np.linalg.norm(Model(normalized(mu, gamma)).T, axis=0)
    assert run(tmp_path, "verify", "--mu", repr(mu), "--gamma", repr(gamma),
               "--gauge", ",".join(map(repr, gauge.tolist()))) == EXIT_OK
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["dynamics/closed_vs_rk4_max_rel"]["residual"] <= 2e-7


def test_physical_point_with_ill_conditioned_metric_verifies(tmp_path):
    # kappa(T) ~ 5e3: S_phi = T T^+ fails the inversion test, its inverse S_psi
    # taken from T^-1 does not need one
    assert run(tmp_path, "verify", "--mode", "physical", "--L", "2", "--C", "0.5",
               "--R", "0.2", "--M", "0.7") == EXIT_OK


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
    assert len(lines) == 61 + 1  # the norm series caps the default 1001 samples at 61
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    model = Model(normalized(0.5, 3.0))
    norm0 = number_evolution(model.pf, np.array([0.0])).generic.norms[0, 0]
    assert float(first[1]) == pytest.approx(norm0, rel=1e-15)
    payload = json.loads((tmp_path / "heisenberg_report.json").read_text())
    assert payload["two_path_deviation_N1"] < 1e-8
    assert payload["printed_order_deviation_N1"] > 1e-2
    assert np.isfinite(payload["bound_constant_1"])


#: sha256 of each artifact and of stdout, written with ``--output .``; recorded
#: with numpy 2.4.6, so an intended byte change (or another numpy) updates them
_PINNED_SHA256 = {
    ("reference", "heisenberg"): {
        "heisenberg.csv": "1317039f69dda14a321e7e47bce69553d1e298158d5194ad8b16430376f7184b",
        "heisenberg_report.json":
            "ef6efe1921c4a05cac75c095c9309bf01cc61c67b572054b843a4f10a42e0051",
        "stdout": "a57ca95d1ab6db615d7ac07c4f2b9fde7decb91e5340f50d9f18bde6b15e0835"},
    ("reference", "verify"): {
        "verify_report.json": "e644ba0a587347067dc723310aafca7182487e390ae0663ade7ae5cbcdfcc9d0",
        "stdout": "bc10b9cd9a2b9284a5c63213be0554fadac1898e5db8369cf7a0e9ff696c4db4"},
    ("gauge", "heisenberg"): {
        "heisenberg.csv": "ef3865f927ab58da441c252ce31614a0d87e13d4ac6543bd3a4378041b525f1f",
        "heisenberg_report.json":
            "68f5eee533a6c3b740bb0b9787ce9900a3571bac11017b54cc093d7b26f7625f",
        "stdout": "a57ca95d1ab6db615d7ac07c4f2b9fde7decb91e5340f50d9f18bde6b15e0835"},
    ("gauge", "verify"): {
        "verify_report.json": "71a55e230ec205854927ab53b9949f20ddb83b7755c8fe37e160a11e65e254e1",
        "stdout": "bc10b9cd9a2b9284a5c63213be0554fadac1898e5db8369cf7a0e9ff696c4db4"},
    ("physical", "heisenberg"): {
        "heisenberg.csv": "541f697da018352bc243af157777ced9b5b3d9ff500beb44c7b2ae1fd3fb650a",
        "heisenberg_report.json":
            "5ac5d32c22cc4eeb449f3e6896a27f93ab09ecf6cd0fc0b4d5e01e44cd58b750",
        "stdout": "d323ceabedc40bcd91d1844c67e726ff57eaa60a887a546d090ecd47c8167d0a"},
    ("physical", "verify"): {
        "verify_report.json": "ae67c444521ffa180b92244ea1dc58210fb1aca899f617e81b695b1ea7d7c2ea",
        "stdout": "bc10b9cd9a2b9284a5c63213be0554fadac1898e5db8369cf7a0e9ff696c4db4"},
    ("reference", "adjoint"): {
        "adjoint.csv": "9ec912ec06372aaf69012c0e4348b4b2fe0a62838fbda06da0f42b0f39f73bac",
        "adjoint_report.json": "f72145cf432cbf2c4b3f9c07ebc19aad1d8faa5171a2ba5b020662c4226ef8e5",
        "stdout": "2047b24b4e23e2a6f9bff6ca4200865311af1c55fa2615280540d40c3c3438a4"},
    ("gauge", "adjoint"): {
        "adjoint.csv": "d3c695022ca0e30230221013477a3778bc194b30afe1e33bd2f8bf166bbccbdf",
        "adjoint_report.json": "b1d181448a74a83efcd98f3bc416f69b3bac6f2d2b3b9fa03c338759513e9bc1",
        "stdout": "0a985bfc000a8937fa40cc9da481c7d4ea9f3aff488473547d9f5404831bd2a8"},
    ("physical", "adjoint"): {
        "adjoint.csv": "aa3fbea166a1363f684434a0994f52f9b880635804baadd23eaf5da909c00a57",
        "adjoint_report.json": "77555ad02df0fa9493d274b19918283b1708e5a30166f23add402f24aa2cddf3",
        "stdout": "6aa5c57f0078fc8aafe8560699f03e1822eaa8b6f5e17e94530bb6a2a9103586"},
}

_PINNED_POINTS = {
    "reference": ["--mu", "0.5", "--gamma", "3"],
    "gauge": ["--mu", "0.5", "--gamma", "3", "--gauge", "2,0.5,3,1"],
    "physical": ["--mode", "physical", "--L", "2", "--C", "0.5", "--R", "0.2", "--M", "0.7"],
}


@pytest.mark.parametrize(("point", "command"), list(_PINNED_SHA256),
                         ids=[f"{p}-{c}" for p, c in _PINNED_SHA256])
def test_artifact_bytes_pinned(tmp_path, monkeypatch, capsys, point, command):
    monkeypatch.chdir(tmp_path)
    assert main([command, *_PINNED_POINTS[point], "--output", "."]) == EXIT_OK
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in _PINNED_SHA256[point, command] if name != "stdout"}
    digests["stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == _PINNED_SHA256[point, command]


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


def test_sweep_keeps_refused_points(tmp_path):
    # above gamma ~ 1.4e4 the spectrum is refused as near-degenerate (or l1
    # cancels); those points keep validate's columns and leave the rest blank
    assert run(tmp_path, "sweep", "--mu-range", "0.05:0.95:10",
               "--gamma-range", "1:20000:10") == EXIT_OK
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(lines) == 101
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    refused = [row for row in rows if row["accepted"] == "True" and row["l4"] == ""]
    assert len(refused) == 25
    for row in refused:
        with pytest.raises(NearDegenerate):
            spectrum(derive(normalized(float(row["mu"]), float(row["gamma"]))))
        assert row["rho"] != "" and all(row[name] == "" for name in header[8:])


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


def test_config_errors(tmp_path, capsys):
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
    capsys.readouterr()
    # sweep ranges give no parameter point to the commands that need one
    ranges = tmp_path / "ranges.json"
    ranges.write_text(json.dumps({"mu_range": "0.1:0.9:3", "gamma_range": "1:5:3"}))
    for command in ("verify", "simulate"):
        assert run(tmp_path, command, "--config", str(ranges)) == EXIT_CONFIG
        assert capsys.readouterr().err \
            == "configuration error: normalized mode requires mu and gamma\n"
    # malformed values are refused by name, whether a flag or the file carries them
    for flags in (["--gauge", "a,1,1,1"], ["--tau-max", "inf"]):
        assert run(tmp_path, "simulate", "--mu", "0.5", "--gamma", "3", *flags) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("configuration error: ")
    for entry in ({"samples": "many"}, {"tau_max": None}, {"gauge": ["x", 1, 1, 1]}):
        config = tmp_path / "entry.json"
        config.write_text(json.dumps({"mu": 0.5, "gamma": 3.0, **entry}))
        assert run(tmp_path, "simulate", "--config", str(config)) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("configuration error: ")
    # the RK4 oracle picks its own step, so no flag or field sets it
    step = tmp_path / "step.json"
    step.write_text(json.dumps({"mu": 0.5, "gamma": 3.0, "rk4_step": 1e-3}))
    assert run(tmp_path, "verify", "--config", str(step)) == EXIT_CONFIG
    assert capsys.readouterr().err \
        == "configuration error: unknown config fields: ['rk4_step']\n"
    # a number given as a string is read as its flag would be
    text_gamma = tmp_path / "text_gamma.json"
    text_gamma.write_text(json.dumps({"mu": 0.5, "gamma": "3", "samples": 5}))
    assert run(tmp_path / "text", "simulate", "--config", str(text_gamma)) == EXIT_OK
    assert run(tmp_path / "flag", "simulate", "--mu", "0.5", "--gamma", "3",
               "--samples", "5") == EXIT_OK
    assert (tmp_path / "text" / "trajectory.csv").read_bytes() \
        == (tmp_path / "flag" / "trajectory.csv").read_bytes()


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


def _parser_one_flag_set_per_command():
    """The CLI as it was declared before its flags moved onto shared parent parsers."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="pfcircuit",
        description="Loss-gain circuit simulator and identity-verification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in cli_mod._COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--mode", choices=["normalized", "physical"])
        for flag in ("mu", "gamma", "L", "C", "R", "M", "i1", "tau-max", "samples"):
            p.add_argument(f"--{flag}")
        p.add_argument("--gauge", help="four comma-separated column scales")
        p.add_argument("--output", dest="output_dir", metavar="DIR", help="output directory")
        p.add_argument("--format", choices=["csv", "json"])
        if name == "sweep":
            p.add_argument("--mu-range", help="MIN:MAX:STEPS")
            p.add_argument("--gamma-range", help="MIN:MAX:STEPS")
    return parser


@pytest.mark.parametrize("command", [None, *cli_mod._COMMANDS])
def test_help_text_unchanged_by_shared_flags(capsys, command):
    argv = ["--help"] if command is None else [command, "--help"]
    texts = []
    for parse in (main, _parser_one_flag_set_per_command().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1] and texts[0].startswith("usage: pfcircuit")


def test_parsed_flags_unchanged_by_shared_flags():
    argv = ["sweep", "--mode", "physical", "--L", "2", "--C", "1", "--R", "0.3", "--M", "0.5",
            "--gauge", "1,2,3,4", "--output", "out", "--mu-range", "0.1:0.9:3"]
    assert vars(cli_mod._make_parser().parse_args(argv)) == vars(
        _parser_one_flag_set_per_command().parse_args(argv))


def test_range_flags_only_on_sweep(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--mu", "0.5", "--gamma", "3", "--mu-range", "0:1:2"])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --mu-range" in capsys.readouterr().err
