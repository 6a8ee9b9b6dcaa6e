"""Command-line interface: commands, artifacts, exit codes, determinism."""

import hashlib
import importlib
import inspect
import io
import json
import math
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
from pfcircuit import errors
from pfcircuit.cli import EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_OK, EXIT_REGIME, main
from pfcircuit.errors import (NearDegenerate, NotACircuit, NotSPD, NumericalRefusal,
                              RegimeRefusal, SingularMatrix, ZeroSigma)
from pfcircuit.verify import run_verification_suite


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
    # gamma^4 is still a double here; the spectrum is near-degenerate
    assert run(tmp_path, "spectrum", "--mu", "0.5", "--gamma", "1e77") == EXIT_REGIME


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
        "trajectory.csv": "".join(",".join(row) + "\n"
                                  for row in [list(columns), *zip(tau, *strings.values())]),
        "trajectory.json": json.dumps({name: c.tolist() for name, c in columns.items()},
                                      indent=2),
        "plot_data.dat": _plot_text(tau, strings),
    }


#: rows per formatted block and written piece of the 11-column trajectory,
#: the 5-column adjoint, h0 and heisenberg tables and the 2-column plot sections
_EDGE11, _EDGE5, _EDGE2 = (cli_mod._BLOCK_CELLS // cols for cols in (11, 5, 2))
#: one short piece, exactly one and one plus a row, for each table width
_EDGE_ROWS = [edge + d for edge in (_EDGE11, _EDGE5, _EDGE2) for d in (-1, 0, 1)]


@pytest.mark.parametrize(("samples", "gauge"),
                         [(n, (1.0, 1.0, 1.0, 1.0)) for n in (2, 127, 128, 129, 257, 5001)]
                         + [(301, (2.0, 0.5, 3.0, 1.0))]
                         + [(n, (1.0, 1.0, 1.0, 1.0))
                            for n in (_EDGE11 - 1, _EDGE11, 2 * _EDGE11 + 1, *_EDGE_ROWS[3:])])
def test_streamed_artifacts_equal_the_joined_texts(tmp_path, samples, gauge):
    # at every piece edge of an 11-, 5- or 2-column table: one short piece,
    # exactly one, one plus a row (257 for 11 columns is among the sizes
    # above), two plus a row
    want = _joined_artifacts(samples, gauge)
    for fmt in ("csv", "json"):
        out = tmp_path / fmt
        assert main(["simulate", "--mu", "0.5", "--gamma", "3", "--i1", "1",
                     "--samples", str(samples), "--gauge", ",".join(map(str, gauge)),
                     "--format", fmt, "--output", str(out)]) == EXIT_OK
        for name in (f"trajectory.{fmt}", "plot_data.dat"):
            assert (out / name).read_text() == want[name], name


#: fields of every width from 1 to 24 bytes: powers of ten, 17-digit values
#: in fixed and exponent notation, inf, nan, and a 24-byte field with no NUL
_WIDTH_VALUES = [0.0, math.inf, -math.inf, math.nan, 1e-4, 99999999999999984.0,
                 -1.2345678901234567e-100,
                 *(s * 10.0**k for k in range(17) for s in (1, -1)),
                 *(s * 1.2345678901234567 * 10.0**k for k in range(-8, 20) for s in (1, -1))]


def _rows_written(fields):
    handle = io.BytesIO()
    cli_mod._write_rows(handle, fields)
    return handle.getvalue().decode("ascii")


@pytest.mark.parametrize("rows", _EDGE_ROWS)
def test_row_writer_joins_format_float(rows):
    # each row takes the values from a different offset, so every field width
    # meets every column and the row's end
    assert {len(dyn.format_float(v)) for v in _WIDTH_VALUES} == set(range(1, 25))
    pool = np.array(_WIDTH_VALUES)
    values = pool[(np.arange(rows)[:, None] + 7 * np.arange(5)) % pool.size]
    fields = dyn.format_floats(values)
    expected = ["".join(",".join(map(dyn.format_float, row)) + "\n" for row in rows_of)
                for rows_of in (values.tolist(), values[:, [0, 3]].tolist())]
    assert _rows_written(fields) == expected[0]
    # two columns of a wider array, selected as a view as plot_data.dat's sections are
    assert _rows_written(fields[:, 0:4:3]) == expected[1]


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
    # 11 written series of 101 samples: tau, 4 states, 2 currents, 2 powers, 2 energies.
    # format_floats writes each value once, and every finite one itself, in
    # %.17g's fixed and exponent notation alike
    handed, fallback = [], []
    real_floats, real_float = dyn.format_floats, dyn.format_float

    def counting_floats(values):
        handed.extend(np.ravel(values).tolist())
        return real_floats(values)

    def counting_float(x):
        fallback.append(x)
        return real_float(x)

    monkeypatch.setattr(dyn, "format_floats", counting_floats)
    monkeypatch.setattr(dyn, "format_float", counting_float)
    assert run(tmp_path, "simulate", "--mu", "0.5", "--gamma", "3", "--samples", "101",
               "--format", fmt) == EXIT_OK
    assert len(handed) == 11 * 101
    assert not [v for v in fallback if math.isfinite(v)]
    assert [v for v in handed if 0.0 < abs(v) < 1e-4]  # 9 values in exponent notation


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


#: each refusal category, with the exit code and stderr prefix main gives it
_CATEGORIES = {NotACircuit: (EXIT_CONFIG, "configuration error: "),
               RegimeRefusal: (EXIT_REGIME, "regime rejected: "),
               NumericalRefusal: (EXIT_REGIME, "numerical refusal: ")}


def test_every_refusal_in_exactly_one_category():
    refusals = [cls for cls in vars(errors).values() if isinstance(cls, type)
                and issubclass(cls, ValueError) and cls not in _CATEGORIES]
    assert errors.SlopeFitFailure in refusals and errors.GridEmpty in refusals
    for cls in refusals:
        expected = 0 if cls is errors.GridEmpty else 1
        assert sum(issubclass(cls, category) for category in _CATEGORIES) == expected, cls


@pytest.mark.parametrize("category", list(_CATEGORIES), ids=lambda c: c.__name__)
def test_main_maps_each_refusal_category(tmp_path, monkeypatch, capsys, category):
    # a new member of the category, which cli names nowhere
    injected = type("InjectedRefusal", (category,), {})

    def refusing_command(cfg):
        raise injected("the injected message")

    monkeypatch.setitem(cli_mod._COMMANDS, "validate", refusing_command)
    code, prefix = _CATEGORIES[category]
    assert run(tmp_path, "validate", "--mu", "0.5", "--gamma", "3") == code
    name = "InjectedRefusal: " if category is NumericalRefusal else ""
    assert capsys.readouterr().err == f"{prefix}{name}the injected message\n"


@pytest.mark.parametrize(("tau_max", "code"),
                         [("1e-300", EXIT_REGIME), ("1e-200", EXIT_REGIME),
                          ("1e-150", EXIT_CHECK_FAILED)])
def test_verify_refuses_a_slope_fit_that_fails_in_floating_point(tmp_path, capsys, tau_max, code):
    # below about tau_max 1e-154 the squared tail taus underflow in polyfit's
    # column scaling: a divide-by-zero warning, then LinAlgError from the SVD
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", "--mu", "0.5", "--gamma", "3", "--tau-max", tau_max,
                     "--output", str(out)]) == code
    err = capsys.readouterr().err
    if code == EXIT_REGIME:
        assert err.startswith("numerical refusal: SlopeFitFailure: log-slope fit on the tail "
                              f"tau in [{0.8 * float(tau_max):.6g}, {float(tau_max):.6g}] failed")
        assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "adjoint", "heisenberg", "verify"])
@pytest.mark.parametrize("point", [["--mu", "1e-300", "--gamma", "3"],
                                   ["--mu", "0.5", "--gamma", "3", "--gauge", "1e300,1,1,1"]],
                         ids=["mu-1e-300", "gauge-1e300"])
def test_singular_matrix_refused_without_a_warning(tmp_path, capsys, command, point):
    # det(T) and ||T||_F^4 overflow here; the overflow reads as inf and is refused
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(tmp_path, command, *point) == EXIT_REGIME
    err = capsys.readouterr().err
    assert err.startswith("numerical refusal: SingularMatrix: matrix is numerically singular (det=")


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
    # Jacobi: three stacked calls, one each for S_phi and S_psi (which the
    # positivity, norm-bound, metric-root and frame-bound checks all read), for
    # the two n-hat spectra, and for the N1 and N2 norm stacks
    assert counts == {"pfalgebra.build_T": 2, "linalg.inverse": 2, "basis.build_bases": 2,
                      "pfalgebra.build_pf": 1, "params.validate": 2,
                      "linalg.jacobi_eigh": 3}


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


def test_sweep_checks_the_regime_once_per_point(tmp_path, monkeypatch):
    # 25 circuits, 20 of them accepted: one validate per point, which spectrum reads
    counts = _count_calls(monkeypatch, ["params.validate", "liouvillian.spectrum"])
    assert run(tmp_path, "sweep", "--mu-range", "0.05:0.95:5",
               "--gamma-range", "1:20:5") == EXIT_OK
    assert counts == {"params.validate": 25, "liouvillian.spectrum": 20}


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


def test_in_process_model_defaults_to_the_cli_initial_current():
    # normalized(mu, gamma), CircuitParams and the CLI share one i1 default, so
    # an in-process verify checks the excited trajectory and fits its slopes
    assert normalized(0.5, 3.0).i1 == cli_mod.RunConfig().i1 == 1.0
    assert cli_mod._model(cli_mod.RunConfig(mu=0.5, gamma=3.0)).params == normalized(0.5, 3.0)
    report = run_verification_suite(Model(normalized(0.5, 3.0)), np.linspace(0.0, 5.0, 1001))
    for name in ("observables/power_tail_signs_match_prediction",
                 "observables/power_log_slope_error", "observables/energy_log_slope_error"):
        assert report.checks[name].passed, name


#: sha256 over every verify outcome on a slice of the regime grid (rows mu[0]
#: and mu[11], every fourth gamma), with the CLI's defaults i1 = 1, tau_max 5
#: and 1,001 samples, in the unit and the column-equilibrated gauge: a
#: report's JSON text, or "Class: message" for a refusal; recorded with numpy
#: 2.4.6 before the gain/loss twins were stacked into one axis
_GRID_SLICE_SHA256 = "d6856a9f00915991b275fc378df16799ec5c913cddbbba05a34908ee521548a2"


def test_verify_outcomes_pinned_on_a_grid_slice():
    tau = np.linspace(0.0, 5.0, 1001)
    digest, outcomes = hashlib.sha256(), set()
    for mu in _GRID_MU[[0, 11]].tolist():
        for gamma in _GRID_GAMMA[::4].tolist():
            model = Model(normalized(mu, gamma, i1=1.0))
            if not validate(model.derived).accepted:
                continue
            for gauge in ([1.0] * 4, (1.0 / np.linalg.norm(model.T, axis=0)).tolist()):
                try:
                    report = run_verification_suite(Model(model.params, Gauge(*gauge)), tau)
                    text, outcome = json.dumps(report.to_dict(), indent=2), "report"
                except ValueError as exc:
                    text, outcome = f"{type(exc).__name__}: {exc}", type(exc).__name__
                outcomes.add(outcome)
                digest.update(f"{mu!r} {gamma!r} {gauge!r}\n{text}\n".encode())
    assert outcomes == {"report", "SingularMatrix", "SeriesOverflow", "ReconstructionFailure"}
    assert digest.hexdigest() == _GRID_SLICE_SHA256


#: sha256 of each artifact and of stdout, written with ``--output .``; recorded
#: with numpy 2.4.6, so an intended byte change (or another numpy) updates them
_PINNED_SHA256 = {
    ("reference", "heisenberg"): {
        "heisenberg.csv": "1317039f69dda14a321e7e47bce69553d1e298158d5194ad8b16430376f7184b",
        "heisenberg_report.json":
            "ef6efe1921c4a05cac75c095c9309bf01cc61c67b572054b843a4f10a42e0051",
        "stdout": "a57ca95d1ab6db615d7ac07c4f2b9fde7decb91e5340f50d9f18bde6b15e0835"},
    ("reference", "verify"): {
        "verify_report.json": "e8a9b6d363ec4eb7dd497a3c932e1d3d981750fb629d87090853120d8dc6156b",
        "stdout": "bc10b9cd9a2b9284a5c63213be0554fadac1898e5db8369cf7a0e9ff696c4db4"},
    ("gauge", "heisenberg"): {
        "heisenberg.csv": "ef3865f927ab58da441c252ce31614a0d87e13d4ac6543bd3a4378041b525f1f",
        "heisenberg_report.json":
            "68f5eee533a6c3b740bb0b9787ce9900a3571bac11017b54cc093d7b26f7625f",
        "stdout": "a57ca95d1ab6db615d7ac07c4f2b9fde7decb91e5340f50d9f18bde6b15e0835"},
    ("gauge", "verify"): {
        "verify_report.json": "564ad2c973de776597fc2c5fe5de8be1e903ebd090e2b0cb114de4b8e35b7727",
        "stdout": "bc10b9cd9a2b9284a5c63213be0554fadac1898e5db8369cf7a0e9ff696c4db4"},
    ("physical", "heisenberg"): {
        "heisenberg.csv": "541f697da018352bc243af157777ced9b5b3d9ff500beb44c7b2ae1fd3fb650a",
        "heisenberg_report.json":
            "5ac5d32c22cc4eeb449f3e6896a27f93ab09ecf6cd0fc0b4d5e01e44cd58b750",
        "stdout": "d323ceabedc40bcd91d1844c67e726ff57eaa60a887a546d090ecd47c8167d0a"},
    ("physical", "verify"): {
        "verify_report.json": "5b656ac8f8f4c3e095d270b3022556a2a85469dbe01aa9c0ed1f319dae72ce97",
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
    ("reference", "simulate"): {
        "trajectory.csv": "de449ef45beccecefb03ce373e0b8c1a147b3d1cd70fffdef7af3821095da1ef",
        "plot_data.dat": "50a85ca7c9cc725d0efa767d30d8857c6780e1e5494f7a08b3c53006800361fa",
        "stdout": "315b16a5ce1600cbc662bd7957a247a0011a7652be0d085243cf59bdd4e2c07c"},
    ("gauge", "simulate"): {
        "trajectory.csv": "47dc6099c7eb0fc1f9e1e296f58ec0463decd1b5b5abfcc2e5a112848882acc5",
        "plot_data.dat": "feeb0bd46fe8c390201d84c948ea090f04e386423bd1fde0f85bd56e656ba670",
        "stdout": "315b16a5ce1600cbc662bd7957a247a0011a7652be0d085243cf59bdd4e2c07c"},
    ("physical", "simulate"): {
        "trajectory.csv": "e7c77bc8fad362a5dad920a92068397aa1dae501069ec7c34c76e6e889b03c28",
        "plot_data.dat": "654f78bf3cdd1fcfdffd91f3b9dddbfdebc6391323fec6f07ed26108943fea15",
        "stdout": "315b16a5ce1600cbc662bd7957a247a0011a7652be0d085243cf59bdd4e2c07c"},
    ("reference", "simulate-json"): {
        "trajectory.json": "7bcbd456e76280dd3a447ba21e6f6b5b89b21bb90c1dbea87d34165fbf9ed1e0",
        "plot_data.dat": "50a85ca7c9cc725d0efa767d30d8857c6780e1e5494f7a08b3c53006800361fa",
        "stdout": "7cb5df3e73a23daa008e3706f706851f0625450ac739b1d325247ca6496f045b"},
    ("gauge", "simulate-json"): {
        "trajectory.json": "62868758fffcb4c6eadd660760f0c02a1490fb2d9b201981b5cb7505b77fc443",
        "plot_data.dat": "feeb0bd46fe8c390201d84c948ea090f04e386423bd1fde0f85bd56e656ba670",
        "stdout": "7cb5df3e73a23daa008e3706f706851f0625450ac739b1d325247ca6496f045b"},
    ("physical", "simulate-json"): {
        "trajectory.json": "ba4984a6f3d2dadc6d92ca899fb75e62be92baa957a2a6cdd7194b15c5b2a153",
        "plot_data.dat": "654f78bf3cdd1fcfdffd91f3b9dddbfdebc6391323fec6f07ed26108943fea15",
        "stdout": "7cb5df3e73a23daa008e3706f706851f0625450ac739b1d325247ca6496f045b"},
    ("reference", "h0"): {
        "h0.csv": "1cc50e32e5fbbcc2788e084036e6dbd499343898e0483138fe8d70685d6c0004",
        "stdout": "fad924da5b4efb3e4114225968a70d2d847f0aeb10c8493a693c97f1debcacaa"},
    ("gauge", "h0"): {
        "h0.csv": "1cc50e32e5fbbcc2788e084036e6dbd499343898e0483138fe8d70685d6c0004",
        "stdout": "fad924da5b4efb3e4114225968a70d2d847f0aeb10c8493a693c97f1debcacaa"},
    ("physical", "h0"): {
        "h0.csv": "dc95524497db1718c412e856b8848404bce636306d97fe07a3a00f64c29d4f2d",
        "stdout": "afc0603bca20ac9d6cd909b4d68dd896c021f70ead0d4e2119151144a09d9590"},
    ("reference", "validate"): {
        "regime.json": "e28f8648863c6ef12933e553d550536fa566acce8d1c8eeb6172f50b7f7c744f",
        "stdout": "6da3ce903f88823f73afa8cc044dc12eef95cc9f9b9a7765b1e99d85d82e9f16"},
    ("gauge", "validate"): {
        "regime.json": "e28f8648863c6ef12933e553d550536fa566acce8d1c8eeb6172f50b7f7c744f",
        "stdout": "6da3ce903f88823f73afa8cc044dc12eef95cc9f9b9a7765b1e99d85d82e9f16"},
    ("physical", "validate"): {
        "regime.json": "6f33b818c118049231571009e123123055d39395215daf92478609a4d660ba0e",
        "stdout": "a0e6fefcb4762105dac5c0992746774053fe1bdfa4be24710845190b8755dbc9"},
    ("reference", "spectrum"): {
        "spectrum.json": "ff0f000612077fffdfe020850fb4695949516319acc0f5b040b0ec5ebd883737",
        "stdout": "1162e3c38abd819f1190631ab859c96a9891cab809607f43dc9c05f734911c3d"},
    ("gauge", "spectrum"): {
        "spectrum.json": "ff0f000612077fffdfe020850fb4695949516319acc0f5b040b0ec5ebd883737",
        "stdout": "1162e3c38abd819f1190631ab859c96a9891cab809607f43dc9c05f734911c3d"},
    ("physical", "spectrum"): {
        "spectrum.json": "2805ee1be94ac7e3c33a5a7fa2d9a8115cc11f3b290504f551579195fe3422f1",
        "stdout": "353022ba724790ca2aeb4d41bb86c015eed0e95096523962253843ebc61a4877"},
    ("grid", "sweep"): {
        "sweep.csv": "c792c313f583e38647acdfb933bc831ee287b2e52cc64da74a1f1d4fe21306e9",
        "stdout": "1bd320b9b0a24ed570175db996f361624f044dfe615296a7ca1f0019f9b725b6"},
    ("large-gamma", "sweep"): {
        "sweep.csv": "ffbdaa4a855a9a3a2e9c06000a5edce79c98e2a373ac57598ac640f1525e17fa",
        "stdout": "994f197b2f72fe3138302a0b3fe06dcee5531527886189c4b065185c63284f53"},
}

_PINNED_POINTS = {
    "reference": ["--mu", "0.5", "--gamma", "3"],
    "gauge": ["--mu", "0.5", "--gamma", "3", "--gauge", "2,0.5,3,1"],
    "physical": ["--mode", "physical", "--L", "2", "--C", "0.5", "--R", "0.2", "--M", "0.7"],
    # sweep grids: 16 points that are not circuits (|mu| >= 1 or gamma <= 0)
    # and mu = 0 exactly; 25 accepted points whose spectrum is refused
    "grid": ["--mu-range=-1.2:1.2:5", "--gamma-range=-2:6:5"],
    "large-gamma": ["--mu-range", "0.05:0.95:10", "--gamma-range", "1:20000:10"],
}

#: argv of a pinned command whose key is not the command's own name
_PINNED_ARGV = {"simulate-json": ["simulate", "--format", "json"]}


@pytest.mark.parametrize(("point", "command"), list(_PINNED_SHA256),
                         ids=[f"{p}-{c}" for p, c in _PINNED_SHA256])
def test_artifact_bytes_pinned(tmp_path, monkeypatch, capsys, point, command):
    monkeypatch.chdir(tmp_path)
    argv = _PINNED_ARGV.get(command, [command])
    assert main([*argv, *_PINNED_POINTS[point], "--output", "."]) == EXIT_OK
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


_GAMMA_1E80 = {"normalized": ["--mu", "0.5", "--gamma", "1e80"],
               "physical": ["--mode", "physical", "--L", "1", "--C", "1", "--R", "1e-80",
                            "--M", "0.5"]}


@pytest.mark.parametrize("point", list(_GAMMA_1E80))
@pytest.mark.parametrize("command", [name for name in cli_mod._COMMANDS if name != "sweep"])
def test_gamma_beyond_the_double_range_refused_by_name(tmp_path, capsys, command, point):
    # gamma^4 in validate's rho raised OverflowError, a traceback with exit 1
    out = tmp_path / "out"
    assert main([command, *_GAMMA_1E80[point], "--output", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        "configuration error: gamma = sqrt(L/C)/R must be <= 1.1579208923731618e+77")
    assert not out.exists()


#: L*C underflows to 0 (omega0 = 1/sqrt(LC) divided by zero) or overflows (omega0 = 0)
_RATE_OUT_OF_RANGE = {"underflow": ["--mode", "physical", "--L", "1e-200", "--C", "1e-200",
                                    "--R", "1", "--M", "0.5e-200"],
                      "overflow": ["--mode", "physical", "--L", "1e200", "--C", "1e200",
                                   "--R", "1", "--M", "0.5e200"]}


@pytest.mark.parametrize("point", list(_RATE_OUT_OF_RANGE))
@pytest.mark.parametrize("command", [name for name in cli_mod._COMMANDS if name != "sweep"])
def test_rate_out_of_range_refused_by_name(tmp_path, capsys, command, point):
    # validate raised ZeroDivisionError in params.derive, simulate in initial_state
    out = tmp_path / "out"
    assert main([command, *_RATE_OUT_OF_RANGE[point], "--output", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        "configuration error: omega0 = 1/sqrt(L*C) must be a finite nonzero double")
    assert not out.exists()


def test_sweep_writes_a_gamma_beyond_the_double_range_as_no_circuit(tmp_path):
    assert run(tmp_path, "sweep", "--mu-range", "0.5:0.5:1",
               "--gamma-range", "1:1e80:3") == EXIT_OK
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[1].startswith("0.5,1,-2.5555555555555554,False,False,True,True,False,")
    assert lines[2:] == [f"0.5,{gamma},,False,False,False,False,False,,,,,,,"
                         for gamma in ("5e+79", "1e+80")]


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
    # so are non-finite range ends, before linspace writes nan or inf cells
    for mu_range, gamma_range in (("nan:1:2", "1:inf:2"), ("0.1:0.9:3", "1:inf:2")):
        out = tmp_path / "ranges"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sweep", "--mu-range", mu_range, "--gamma-range", gamma_range,
                         "--output", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert not out.exists()
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
