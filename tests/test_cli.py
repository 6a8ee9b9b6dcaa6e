"""Command-line interface: commands, artifacts, exit codes, determinism."""

import errno
import hashlib
import importlib
import inspect
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
from pfcircuit import Gauge, Model, derive, energy, normalized, power, validate
from pfcircuit import cli as cli_mod
from pfcircuit import dynamics as dyn
from pfcircuit import basis, errors, heisenberg, linalg, pfalgebra
from pfcircuit import verify as verify_mod
from pfcircuit.cli import (EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_OK, EXIT_OUTPUT, EXIT_REGIME,
                           main)
from pfcircuit.errors import (IllConditioned, NotACircuit, NotSPD, NumericalRefusal,
                              RegimeRefusal)
from pfcircuit.verify import run_verification_suite

#: verify's key set, which the report of every normalized point writes in this order
_KEYS = json.loads((Path(__file__).parents[1] / "bench" / "verify_keys.json").read_text())
#: the checks that read the dominant mode, and what each writes where it is unpopulated
_ASYMPTOTIC = ["observables/power_tail_signs_match_prediction",
               "observables/power_log_slope_error", "observables/energy_log_slope_error"]
_NULL = {"residual": None, "tolerance": None, "pass": None}


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
    spec = Model(normalized(0.5, 3.0)).spec
    for key, value in spec.to_dict().items():
        assert payload[key] == pytest.approx(value, rel=1e-15)


def test_spectrum_regime_exit(tmp_path):
    assert run(tmp_path, "spectrum", "--mu", "0.5", "--gamma", "2") == EXIT_REGIME
    # gamma^4 is still a double here; the spectrum is near-degenerate but
    # accurate (l2 = sqrt(alpha)/l4), and no gap test refuses it
    for gamma in ("2e4", "1e77"):
        assert run(tmp_path, "spectrum", "--mu", "0.5", "--gamma", gamma) == EXIT_OK
        payload = json.loads((tmp_path / "spectrum.json").read_text())
        assert payload["l2"] == pytest.approx(math.sqrt(4.0 / 3.0) / payload["l4"], rel=1e-15)


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
    np.testing.assert_array_equal(payload["V1p"], traj.dvoltages[0])


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
    columns = dyn.trajectory_columns(traj, power(traj), energy(traj, model.params))
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
    return b"".join(cli_mod._rows(fields)).decode("ascii")


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
    assert list(payload) == _KEYS
    asserted = {k: v for k, v in payload.items() if v["pass"] is not None}
    reported = {k: v for k, v in payload.items() if v["pass"] is None}
    assert all(v["pass"] for v in asserted.values())
    assert len(asserted) >= 40
    # the reported-only channels are present and carry no verdict
    assert "dynamics/reported_paper_coefficient_deviation" in reported
    assert "heisenberg/reported_norm_N1_initial" in reported
    assert "observables/reported_energy_rewrite_deviation" in reported


def test_verify_zero_initial_current(tmp_path):
    # the zero trajectory satisfies every identity; no relative residual may divide by 0,
    # and the checks of the unpopulated dominant mode write null, not nothing
    assert run(tmp_path, "verify", "--mu", "0.5", "--gamma", "3", "--i1", "0",
               "--samples", "201") == EXIT_OK
    payload = json.loads((tmp_path / "verify_report.json").read_text())
    assert list(payload) == _KEYS
    assert [payload[name] for name in _ASYMPTOTIC] == [_NULL] * 3


@pytest.mark.parametrize("args", [
    *(["--mu", "0.5", "--gamma", "3", "--tau-max", t]
      for t in ("0.3", "1", "2", "3", "1e-150", "1e-200", "1e-300")),
    *(["--mu", "0.5", "--gamma", "3", "--samples", n] for n in ("2", "3")),
    ["--mu", "0.3", "--gamma", "2.5"],
    ["--mode", "physical", "--L", "2", "--C", "2", "--R", "0.4", "--M", "0.7"]],
    ids=lambda args: "-".join(args[1::2]))
def test_verify_asymptotics_do_not_depend_on_the_grid(tmp_path, args):
    # the slope and tail-sign checks read the closed form on their own window:
    # on the tail tau >= 0.8 tau_max the slopes failed at every tau_max <= 3,
    # at (0.3, 2.5) and at the physical point, a tail of one sample was refused
    # (exit 2), and below tau_max 1e-154 polyfit failed in floating point
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(tmp_path, "verify", *args) == EXIT_OK
    report = json.loads((tmp_path / "verify_report.json").read_text())
    for name in ("observables/power_tail_signs_match_prediction",
                 "observables/power_log_slope_error", "observables/energy_log_slope_error"):
        assert report[name]["pass"] is True, name


def test_unexpected_exception_exits_70_with_its_traceback(tmp_path, monkeypatch, capsys):
    # a defect is neither failed checks (exit 1) nor a refusal
    def crashing(cfg):
        raise RuntimeError("an injected defect")

    monkeypatch.setitem(cli_mod._COMMANDS, "validate", crashing)
    out = tmp_path / "out"
    assert main(["validate", "--mu", "0.5", "--gamma", "3", "--output", str(out)]) \
        == cli_mod.EXIT_SOFTWARE == 70
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith("Traceback (most recent call last):\n")
    assert err.endswith("RuntimeError: an injected defect\n")
    assert not out.exists()


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


#: the helper that makes each command's last bytes: its JSON report, its
#: formatted fields or its sweep rows
_LAST_STEP = {**dict.fromkeys(["validate", "spectrum", "adjoint", "heisenberg", "verify"],
                              "_json_text"),
              "simulate": "_fields", "h0": "_fields", "sweep": "_sweep_row"}


@pytest.mark.parametrize("command", list(_COMMAND_ARGS))
def test_no_file_written_before_the_command_returns(tmp_path, monkeypatch, capsys, command):
    def refusing(*args):
        raise NumericalRefusal(f"refused in {_LAST_STEP[command]}")

    monkeypatch.setattr(cli_mod, _LAST_STEP[command], refusing)
    out = tmp_path / "out"
    assert main([command, *_COMMAND_ARGS[command], "--output", str(out)]) == EXIT_REGIME
    assert capsys.readouterr() == ("", f"numerical refusal: NumericalRefusal: refused in "
                                       f"{_LAST_STEP[command]}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", list(_COMMAND_ARGS))
@pytest.mark.parametrize("output", ["file", "file/sub"], ids=["file", "through-file"])
def test_unwritable_output_refused_by_name(tmp_path, capsys, command, output):
    # an --output that is a regular file, or a path through one, cannot hold
    # the artifacts: a named refusal with its own exit code, not a traceback
    (tmp_path / "file").write_bytes(b"kept")
    code = main([command, *_COMMAND_ARGS[command], "--output", str(tmp_path / output)])
    assert code == EXIT_OUTPUT
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("cannot write output: [Errno ")
    assert (tmp_path / "file").read_bytes() == b"kept"
    assert [path.name for path in tmp_path.iterdir()] == ["file"]


#: the commands whose artifacts are one piece in all
_ONE_PIECE = ("validate", "spectrum", "verify", "sweep")


@pytest.mark.parametrize("command", list(_COMMAND_ARGS))
def test_failed_write_leaves_no_file(tmp_path, monkeypatch, capsys, command):
    # an I/O error in the middle of the first artifact, after half of its
    # second piece (its only one, for four commands) is written
    write, calls = cli_mod._write, []

    def failing(handle, text):
        calls.append(len(text))
        if len(calls) == (1 if command in _ONE_PIECE else 2):
            write(handle, bytes(text)[:len(text) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")
        write(handle, text)

    monkeypatch.setattr(cli_mod, "_write", failing)
    out = tmp_path / "out"
    assert main([command, *_COMMAND_ARGS[command], "--output", str(out)]) == EXIT_OUTPUT
    assert capsys.readouterr() == ("", "cannot write output: [Errno 28] No space left on "
                                       "device\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", list(_COMMAND_ARGS))
def test_rewrite_replaces_each_artifact_whole(tmp_path, command):
    # a second run over the same directory leaves the same files, and neither
    # leaves a temporary file
    out = tmp_path / "out"
    argv = [command, *_COMMAND_ARGS[command], "--output", str(out)]
    assert main(argv) == EXIT_OK
    first = {path.name: path.read_bytes() for path in out.iterdir()}
    assert not any(name.startswith(".") for name in first)
    assert main(argv) == EXIT_OK
    assert {path.name: path.read_bytes() for path in out.iterdir()} == first


def test_verify_exit_is_pure_function_of_residuals(tmp_path, monkeypatch):
    import pfcircuit.cli as cli_mod

    real_suite = cli_mod.run_verification_suite

    def failing_suite(model, tau):
        report = real_suite(model, tau)
        report.add("injected_failure", 1.0, 1e-12)
        return report

    monkeypatch.setattr(cli_mod, "run_verification_suite", failing_suite)
    assert run(tmp_path, "verify", "--mu", "0.5", "--gamma", "3",
               "--samples", "51") == EXIT_CHECK_FAILED


@pytest.mark.parametrize("error", [IllConditioned("S_phi = T T^+ is singular in double (kappa(T)=1e9)"),
                                   NotSPD("matrix is not positive definite", -1.0)],
                         ids=["IllConditioned", "NotSPD"])
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
    assert errors.ReconstructionFailure in refusals
    for cls in refusals:
        assert sum(issubclass(cls, category) for category in _CATEGORIES) == 1, cls


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


@pytest.mark.parametrize("command", ["simulate", "adjoint", "heisenberg", "verify"])
@pytest.mark.parametrize("point", [["--mu", "0.5", "--gamma", "3", "--gauge", "1e300,1,1,1"],
                                   ["--mu", "0.5", "--gamma", "3", "--gauge", "1e100,1e100,1e100,1e100"]],
                         ids=["gauge-1e300", "gauge-1e100-uniform"])
def test_singular_matrix_refused_without_a_warning(tmp_path, capsys, command, point):
    # ||T||_F^4 leaves the double range at a gauge scale above GAUGE_MAX; a
    # uniform 1e100 leaves kappa(T) alone, and verify wrote nan residuals there
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, *point, "--output", str(out)]) == EXIT_REGIME
    err = capsys.readouterr().err
    assert err.startswith("regime rejected: gauge scale t21 must lie in (1e-12, "
                          "5.789604461865809e+76] in magnitude")
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "adjoint", "heisenberg", "verify"])
def test_uniform_gauge_up_to_the_bound_runs(tmp_path, command):
    # 1e76 on every column: ||T||_F^4 = 1.6e305 is a double, and kappa(T) is
    # that of the default gauge
    assert pfalgebra.Gauge(*[pfalgebra.GAUGE_MAX] * 4).t24 == pfalgebra.GAUGE_MAX
    with pytest.raises(errors.GaugeDegenerate):
        pfalgebra.Gauge(1.0, 1.0, 1.0, math.nextafter(pfalgebra.GAUGE_MAX, math.inf))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(tmp_path, command, "--mu", "0.5", "--gamma", "3", "--samples", "101",
                   "--gauge", "1e76,1e76,1e76,1e76") == EXIT_OK


def _refuse_nonfinite_constant(name):
    raise AssertionError(f"nonfinite JSON constant {name}")


@pytest.mark.parametrize("command", ["simulate", "adjoint", "heisenberg", "verify"])
@pytest.mark.parametrize("mu", ["1e-4", "1e-16", "1e-150", "1e-155", "1e-160", "1e-300",
                                "1e-307", "5e-324"], ids=lambda mu: f"mu-{mu}")
def test_small_coupling_passes_or_is_refused_by_name(tmp_path, capsys, command, mu):
    # delta24 ~ 15.7/mu at gamma 3: it overflows below mu ~ 8.7e-308, and the
    # printed sigma's products of deltas (verify only) below mu ~ 1e-154,
    # where its two reported-only channels read null
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--mu", mu, "--gamma", "3", "--samples", "101",
                     "--output", str(out)])
    err = capsys.readouterr().err
    if mu == "5e-324":
        assert code == EXIT_REGIME, err
        assert err.startswith("regime rejected: the intertwiner is undefined at mu = 5e-324")
        assert not out.exists()
        return
    assert code == EXIT_OK, err
    if command == "verify":
        payload = json.loads((out / "verify_report.json").read_text())
        assert list(payload) == _KEYS
        printed = [payload[f"dynamics/reported_paper_{name}"]["residual"]
                   for name in ("coefficient_deviation", "sigma")]
        assert (printed == [None, None]) == (float(mu) < 1e-154), printed
        # the dominant weight is about 0.028 mu ||psi0|| here, below C11_THRESHOLD at 1e-16
        asymptotic = [payload[name] for name in _ASYMPTOTIC]
        assert (asymptotic == [_NULL] * 3) == (float(mu) < 1e-4), asymptotic
    for path in out.iterdir():
        text = path.read_text()
        if path.suffix == ".json":
            json.loads(text, parse_constant=_refuse_nonfinite_constant)
        else:
            assert "inf" not in text and "nan" not in text, path.name


def test_verify_writes_null_where_the_printed_sigma_gives_no_number(tmp_path, monkeypatch):
    # the channels are reported-only: the asserted suite alone decides the exit
    monkeypatch.setattr(dyn, "_paper_sigma", lambda *args: math.inf)
    assert run(tmp_path, "verify", "--mu", "0.5", "--gamma", "3") == EXIT_OK
    payload = json.loads((tmp_path / "verify_report.json").read_text())
    assert list(payload) == _KEYS
    for name in ("coefficient_deviation", "sigma"):
        assert payload[f"dynamics/reported_paper_{name}"] == _NULL


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


def test_intertwiner_built_once_per_model_and_never_inverted(tmp_path, monkeypatch):
    # verify builds two Models: the run's own and its second-gauge copy
    counts = _count_calls(monkeypatch, ["pfalgebra.build_T", "basis.build_bases",
                                        "pfalgebra.build_pf", "params.validate",
                                        "linalg.jacobi_eigh"])
    for name in ("cond", "inv"):
        def counting(*args, _fn=getattr(np.linalg, name), _name=f"np.linalg.{name}"):
            counts[_name] = counts.get(_name, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(np.linalg, name, counting)
    assert run(tmp_path, "verify", "--mu", "0.5", "--gamma", "3.2",
               "--samples", "201") == EXIT_OK
    # kappa(T): once in each build_bases, which reported_condition_number_T
    # reads; psi is built in closed form, and S_psi = S_phi^-1 is read from the
    # model.  Jacobi: two stacked calls, one for S_phi and S_psi (which the
    # positivity, norm-bound, metric-root and frame-bound checks all read), and
    # one for the two n-hat spectra with the N1 and N2 norm stacks; at (0.5, 3.2),
    # inside verify-ref's box, this is the benchmark's linalg.jacobi_eigh.calls
    assert counts == {"pfalgebra.build_T": 2, "basis.build_bases": 2,
                      "pfalgebra.build_pf": 1, "params.validate": 2,
                      "linalg.jacobi_eigh": 2, "np.linalg.cond": 2}


@pytest.mark.parametrize("gauge", [Gauge(1.0, 1.0, 1.0, 1.0), Gauge(2.0, 0.5, 3.0, 1.0)],
                         ids=["unit", "2,0.5,3,1"])
def test_verify_merged_jacobi_call_matches_separate_calls(monkeypatch, gauge):
    # verify decomposes the n-hat pair and the N1, N2 norm stacks in one Jacobi call;
    # each member must keep the bits of pf_verify's and the heisenberg command's own calls
    model = Model(normalized(0.5, 3.0), gauge)
    tau = np.linspace(0.0, heisenberg.TAU_END, 31)
    seen = {}
    number_paths, growth_bound_report = heisenberg.number_paths, heisenberg.growth_bound_report

    def capturing_paths(pf, grid, x):
        seen["paths"] = grid, x
        return number_paths(pf, grid, x)

    def capturing_growth(norms, grid, spec):
        seen["growth"] = norms, grid
        return growth_bound_report(norms, grid, spec)

    monkeypatch.setattr(heisenberg, "number_paths", capturing_paths)
    monkeypatch.setattr(heisenberg, "growth_bound_report", capturing_growth)
    report = run_verification_suite(model, np.linspace(0.0, 5.0, 1001)).checks
    separate = pfalgebra.pf_verify(model.pf, model.generator).checks
    for j in "12":
        name = f"n_hat{j}_eigenvalues_binary"
        assert report[f"pfalgebra/{name}"] == separate[name]
    (tau_paths, x), (norms, tau_growth) = seen["paths"], seen["growth"]
    x_alone = heisenberg.sandwich(model.pf.N, model.pf, tau)
    norms_alone = linalg.spectral_norm(x_alone.reshape(-1, 4, 4)).reshape(2, -1)
    assert tau_paths.tobytes() == tau_growth.tobytes() == tau.tobytes()
    assert x.tobytes() == x_alone.tobytes()
    assert norms.tobytes() == norms_alone.tobytes()
    one_by_one = [linalg.spectral_norm(a) for a in x_alone.reshape(-1, 4, 4)]
    assert norms.tobytes() == np.array(one_by_one).reshape(2, -1).tobytes()
    for j, norm in enumerate(norms_alone[:, 0], 1):
        assert report[f"heisenberg/reported_norm_N{j}_initial"]["residual"] == norm


@pytest.mark.parametrize("command", list(_COMMAND_ARGS))
def test_no_command_inverts_the_intertwiner(tmp_path, monkeypatch, command):
    def refusing(*args, **kwargs):
        raise AssertionError("np.linalg.inv called")

    monkeypatch.setattr(np.linalg, "inv", refusing)
    assert main([command, *_COMMAND_ARGS[command], "--output", str(tmp_path)]) == EXIT_OK


def test_heisenberg_evolves_both_operators_in_one_pass(tmp_path, monkeypatch):
    steps = ["heisenberg.sandwich", "linalg.spectral_norm", "heisenberg.number_paths",
             "heisenberg.growth_bound_report"]
    counts = _count_calls(monkeypatch, [*steps, "linalg.jacobi_eigh"])
    assert run(tmp_path, "heisenberg", "--mu", "0.5", "--gamma", "3") == EXIT_OK
    # Jacobi: one stacked call that norms N1(tau) and N2(tau) together; the metric
    # roots are taken by the verifier only
    assert counts == {**dict.fromkeys(steps, 1), "linalg.jacobi_eigh": 1}


def test_heisenberg_checks_the_regime_once(tmp_path, monkeypatch):
    counts = _count_calls(monkeypatch, ["params.validate"])
    assert run(tmp_path, "heisenberg", "--mu", "0.5", "--gamma", "3") == EXIT_OK
    assert counts == {"params.validate": 1}


@pytest.mark.parametrize(("point", "gauge"), [(("0.5", "3"), "1,1,1,1"),
                                              (("0.5", "3"), "2,0.5,3,1"),
                                              (("-0.7", "2.9"), "1,1,1,1")])
def test_heisenberg_and_verify_agree(tmp_path, point, gauge):
    # heisenberg on 31 samples of [0, 3] runs verify's grid linspace(0, TAU_END, 31)
    # through the same steps, so every shared number is the same double
    mu, gamma = point
    args = ["--mu", mu, "--gamma", gamma, "--gauge", gauge]
    assert run(tmp_path, "heisenberg", *args, "--tau-max", "3", "--samples", "31") == EXIT_OK
    assert run(tmp_path, "verify", *args) == EXIT_OK
    command = json.loads((tmp_path / "heisenberg_report.json").read_text())
    checks = json.loads((tmp_path / "verify_report.json").read_text())
    for j in (1, 2):
        for ours, theirs in [(f"two_path_deviation_N{j}", f"number_two_path_N{j}"),
                             (f"printed_order_deviation_N{j}",
                              f"reported_printed_order_deviation_N{j}"),
                             (f"bound_constant_{j}", f"reported_growth_constant_N{j}"),
                             (f"norm_N{j}_initial", f"reported_norm_N{j}_initial")]:
            value = checks[f"heisenberg/{theirs}"]["residual"]
            assert command[ours].hex() == value.hex(), (ours, command[ours], value)


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
def test_reconstruction_failure_refused_by_name(tmp_path, capsys, monkeypatch, command):
    # a fault injected into T: lambda1 N1 + lambda2 N2 + l3 I then misses the
    # generator by far more than 1e-9, which the kappa^2 bound does not reach;
    # heisenberg refuses it by name, and verify fails the check (at (0.1, 180)
    # its dynamics overflow before the check is read)
    build_T = pfalgebra.build_T

    def faulty_build_T(*args, **kwargs):
        T, deltas = build_T(*args, **kwargs)
        corrupted = T.copy()
        corrupted[0, 0] += 1e-3
        return corrupted, deltas

    monkeypatch.setattr(pfalgebra, "build_T", faulty_build_T)
    out = tmp_path / "out"
    if command == "verify":
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--mu", "0.5", "--gamma", "3", "--output", str(out)])
        assert code == EXIT_CHECK_FAILED
        assert "  FAIL pfalgebra/generator_reconstruction: residual " in capsys.readouterr().out
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--mu", "0.1", "--gamma", "180", "--output", str(out)])
    assert code == EXIT_REGIME
    err = capsys.readouterr().err
    assert err.startswith("numerical refusal: ReconstructionFailure: "
                          "generator reconstruction residual ")
    assert not out.exists()


#: the 25 x 25 regime grid of the ROADMAP, and 8 accepted points on it at large
#: gamma, where closed forms that subtract lose the most: mu = +-0.0817 and
#: +-0.1633 gave reconstruction residuals above 1e-9, mu = +-0.245 (gamma 200) 5e-11
_GRID_MU, _GRID_GAMMA = np.linspace(-0.98, 0.98, 25), np.geomspace(1.2, 200.0, 25)
_RECONSTRUCTION_POINTS = [(float(_GRID_MU[12 + sign * k]), float(_GRID_GAMMA[i]))
                          for sign in (-1, 1) for k, i in ((1, 23), (1, 24), (2, 24), (3, 24))]


def test_regime_grid_ends_without_a_traceback(tmp_path, capsys):
    # every accepted point ends in a pass or a named refusal, in the default
    # gauge and in a deliberately bad relative one, where kappa(T) is 1e6..2e7;
    # past gamma 1.5e4, where a gap test refused, on a short grid.  No check
    # fails (exit 1): the slope checks failed here while they read the tail of
    # the 11-sample grid
    coarse = [(float(mu), float(gamma)) for mu in np.linspace(-0.98, 0.98, 6)
              for gamma in np.geomspace(1.2, 200.0, 5)]  # an even mu count skips 0
    runs = 0
    for mu, gamma in coarse + _RECONSTRUCTION_POINTS + [(0.5, 2e4)]:
        model = Model(normalized(mu, gamma))
        if not validate(model.derived).accepted:
            continue
        for gauge in ([1e3, 1e-3, 1.0, 1.0], [1.0] * 4):
            for command in ("verify", "heisenberg", "simulate", "adjoint"):
                args = [command, "--mu", repr(mu), "--gamma", repr(gamma), "--samples", "11",
                        "--gauge", ",".join(map(repr, gauge)), "--output", str(tmp_path)]
                if gamma > 1.5e4:
                    args += ["--tau-max", "0.01"]
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    try:
                        code = main(args)
                    except Exception as exc:  # report which run raised
                        pytest.fail(f"{' '.join(args)} raised {exc!r}")
                assert code in (EXIT_OK, EXIT_REGIME), args
                runs += 1
    capsys.readouterr()
    assert runs == 8 * (22 + len(_RECONSTRUCTION_POINTS) + 1)


def _first_accepted_gamma(mu: float) -> float:
    """The least double gamma past the exceptional point that validate accepts."""
    alpha = 1.0 / (1.0 - mu * mu)
    gamma = math.sqrt(2.0 * alpha * (1.0 + math.sqrt(1.0 - mu * mu))) * (1.0 - 1e-15)
    while not validate(derive(normalized(mu, gamma))).accepted:
        gamma = math.nextafter(gamma, math.inf)
    return gamma


@pytest.mark.parametrize("command", ["simulate", "adjoint", "heisenberg", "verify"])
@pytest.mark.parametrize("mu", [-0.98, 0.98, -0.5, 0.01, 0.05, 0.3, 0.7])
def test_exceptional_point_refused_as_ill_conditioned(tmp_path, capsys, command, mu):
    # at the first accepted gamma kappa(T) is 1e8..8e8, so u*kappa^2 >= 1 and
    # S_phi = T T^+ is singular in double
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--mu", repr(mu), "--gamma", repr(_first_accepted_gamma(mu)),
                     "--samples", "11", "--output", str(out)])
    assert code == EXIT_REGIME
    err = capsys.readouterr().err
    assert err.startswith("numerical refusal: IllConditioned: S_phi = T T^+ is singular in "
                          "double: u*kappa(T)^2 >= 1 (kappa(T)=")
    assert 2.0**-53 * float(err.split("kappa(T)=")[1].rstrip(")\n")) ** 2 >= 1.0
    assert not out.exists()


#: c of simulate's error model c*u*kappa(T): n = 4 times its three operations
#: on T, psi's closed form, the projection psi^T psi0 and the modal sum T e^{Lambda tau} c
_SIMULATE_C = 12.0


def test_simulate_near_the_exceptional_point_within_its_error_model(tmp_path, capsys):
    # 3 to 2,049 ulps past gamma_EP at mu = 0.5, kappa(T) from 9.2e7 down to 3.1e6
    scipy_linalg = pytest.importorskip("scipy.linalg")
    gamma_ep = 2.2307101433008207
    for k in range(1, 12):
        gamma = gamma_ep
        for _ in range(2**k + 1):
            gamma = math.nextafter(gamma, math.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["simulate", "--mu", "0.5", "--gamma", repr(gamma), "--samples", "11",
                         "--output", str(tmp_path)])
        assert code in (EXIT_OK, EXIT_REGIME), gamma
        if code != EXIT_OK:
            assert "IllConditioned" in capsys.readouterr().err
            continue
        model = Model(normalized(0.5, gamma))
        data = np.genfromtxt(tmp_path / "trajectory.csv", delimiter=",", names=True)
        states = np.stack([data[name] for name in ("V1", "V2", "V1p", "V2p")], axis=1)
        exact = np.stack([scipy_linalg.expm(model.generator * t) @ model.psi0
                          for t in data["tau"]])
        error = np.linalg.norm(states - exact, axis=1) / np.linalg.norm(exact, axis=1)
        assert np.max(error) <= _SIMULATE_C * 2.0**-53 * model.pair.kappa, (gamma, error)
    capsys.readouterr()


#: the near-EP rays: gamma = gamma_first*(1 + 10^-k), k = 2..15, on 8 couplings,
#: where kappa(T) runs from about 10 to the kappa refusal at 9.49e7
_EP_RAYS = [(mu, k) for mu in (0.5, 0.7, -0.98, 0.05, 0.01, 0.3, -0.5, 0.9)
            for k in range(2, 16)]


def test_near_the_exceptional_point_only_kappa_refuses(tmp_path, capsys):
    # with psi = inv(T)^T, 73 verify and 73 heisenberg runs here were refused
    # ReconstructionFailure; with psi in closed form the reconstruction residual
    # keeps to its kappa^2 model, so a refusal is IllConditioned.  On the tail
    # of the user's grid the slope checks failed at 24 of these points (exit 1).
    # Every point whose dominant mode is populated has a slope window, so kappa
    # is the only refusal left
    first = {mu: _first_accepted_gamma(mu) for mu, _ in _EP_RAYS}
    passed = 0
    for mu, k in _EP_RAYS:
        gamma = first[mu] * (1.0 + 10.0**-k)
        for command in ("verify", "heisenberg"):
            args = [command, "--mu", repr(mu), "--gamma", repr(gamma), "--output", str(tmp_path)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    code = main(args)
                except Exception as exc:  # report which run raised
                    pytest.fail(f"{' '.join(args)} raised {exc!r}")
            err = capsys.readouterr().err
            if code == EXIT_REGIME:
                assert err.startswith("numerical refusal: IllConditioned: "), (args, err)
            else:
                assert code == EXIT_OK, args
                passed += command == "verify"
    assert passed == 24


#: c of the Gram residual's error model c*u*kappa(T): n = 4 times its two
#: operations on T, psi's closed form and the product psi^T T, times sqrt(n) = 2
#: for its Frobenius norm
_GRAM_C = 16.0


@pytest.mark.parametrize("gauge", [(1.0, 1.0, 1.0, 1.0), (2.0, 0.5, 3.0, 1.0),
                                   (1e3, 1e-3, 1.0, 1.0)])
def test_near_the_exceptional_point_residuals_keep_to_their_error_models(gauge):
    # with psi = inv(T)^T the reconstruction read up to 1.1e5*u*kappa^2 and the
    # Gram residual 1.7e6*u*kappa on these rays
    u = 2.0**-53
    c_reconstruction = verify_mod.KAPPA2_C["pfalgebra/generator_reconstruction"]
    first = {mu: _first_accepted_gamma(mu) for mu, _ in _EP_RAYS}
    read = 0
    for mu, k in _EP_RAYS:
        model = Model(normalized(mu, first[mu] * (1.0 + 10.0**-k)), Gauge(*gauge))
        kappa = float(np.linalg.cond(model.T))
        if not u * kappa**2 < 1.0:
            continue  # refused by build_bases
        read += 1
        assert pfalgebra.reconstruction_residual(model.pf, model.generator) \
            <= c_reconstruction * u * kappa**2, (mu, k)
        assert basis.gram_residual(model.pair) <= _GRAM_C * u * kappa, (mu, k)
    assert read >= 20


#: the kappa^2 checks audited against their bounds c*u*kappa(T)^2.  The four n-hat checks
#: of KAPPA2_C are left out: they read up to 1.5e4 times their bounds on the rays (FOUND 70
#: in CHANGES.md), until the polar-factor oracle of ROADMAP item 20 replaces their model
_AUDITED_KAPPA2 = ["pfalgebra/metric_product_identity", "basis/metric_maps_max",
                   "dynamics/adjoint_metric_route", "pfalgebra/generator_reconstruction"]


@pytest.mark.parametrize("gauge", [(1.0, 1.0, 1.0, 1.0), (1e3, 1e-3, 1.0, 1.0)])
def test_kappa_squared_checks_keep_to_their_error_models(monkeypatch, gauge):
    # with the refusals off, every residual must still lie within its c*u*kappa^2: a
    # refusal then only ever names conditioning.  The worst ratios read here are 0.23,
    # 0.30, 0.13 and 0.12 of the bound, in _AUDITED_KAPPA2's order
    monkeypatch.setattr(verify_mod, "refuse_ill_conditioned", lambda *args: None)
    first = {mu: _first_accepted_gamma(mu) for mu, _ in _EP_RAYS}
    points = [(mu, first[mu] * (1.0 + 10.0**-k)) for mu, k in _EP_RAYS]
    points += [(mu, gamma) for mu in _GRID_MU[[0, 11]].tolist()
               for gamma in _GRID_GAMMA[::4].tolist()
               if validate(derive(normalized(mu, gamma))).accepted]
    tau = np.linspace(0.0, 5.0, 1001)
    read = 0
    for mu, gamma in points:
        model = Model(normalized(mu, gamma), Gauge(*gauge))
        try:
            report = run_verification_suite(model, tau)
        except (IllConditioned, errors.SeriesOverflow):
            continue  # build_bases refuses either gauge's T, or the run leaves the doubles
        read += 1
        bound = 2.0**-53 * model.pair.kappa**2
        for name in _AUDITED_KAPPA2:
            residual = report.checks[name]["residual"]
            assert residual <= verify_mod.KAPPA2_C[name] * bound, (mu, gamma, name, residual)
    assert read >= 16


def test_verify_second_gauge_refusal_names_the_runs_kappa(tmp_path, capsys):
    # only the second T of dynamics/gauge_invariance, the run's gauge times (2, 0.5, 3, 1),
    # has u*kappa^2 >= 1 here; its refusal named that T's kappa as if it were the run's
    args = ["--mu", "0.5", "--gamma", "2.230710143300824", "--output", str(tmp_path)]
    kappa = Model(normalized(0.5, 2.230710143300824)).pair.kappa
    assert f"{kappa:.6e}" == "5.613766e+07"
    for command in ("heisenberg", "verify"):
        assert main([command, *args]) == EXIT_REGIME
        err = capsys.readouterr().err
        assert err.startswith("numerical refusal: IllConditioned: "), err
        assert err.count("kappa(T)=") == 1 and "kappa(T)=5.613766e+07" in err, err
    assert "dynamics/gauge_invariance's second gauge" in err and "1.533777e+08" in err, err


@pytest.mark.parametrize("scale", ["2e76", "1.5e-12"])
def test_verify_second_gauge_stays_inside_the_gauge_bounds(tmp_path, capsys, scale):
    # a uniform gauge that simulate runs: verify's second gauge divides a column by its factor
    # where multiplying would leave (GAUGE_MIN, GAUGE_MAX], so verify runs it too
    gauge = ",".join([scale] * 4)
    for command in ("simulate", "verify"):
        assert run(tmp_path, command, "--mu", "0.5", "--gamma", "3", "--gauge", gauge) == EXIT_OK
    assert capsys.readouterr().out.endswith("58 asserted checks, 0 failed\n")
    # a refusal of that second gauge names the factors it used
    assert run(tmp_path, "verify", "--mu", "0.5", "--gamma", "2.230710143300824",
               "--gauge", "2e76,2e76,2e76,2e76") == EXIT_REGIME
    assert "second gauge (the run's times 2, 0.5, 1/3, 1)" in capsys.readouterr().err


_BAD_GAUGE = "1e3,1e-3,1,1"


@pytest.mark.parametrize("point", [(0.5, 3.2), (0.3, 2.5), (-0.7, 2.9), (0.9, 40.0)])
def test_bad_gauge_moves_simulate_by_roundoff_only(tmp_path, point):
    # kappa(T) is 1e6..2e7 in this gauge; the trajectory is kappa-linear
    rows = []
    for gauge in ("1,1,1,1", _BAD_GAUGE):
        out = tmp_path / gauge
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--mu", repr(point[0]), "--gamma", repr(point[1]),
                         "--samples", "101", "--gauge", gauge, "--output", str(out)]) == EXIT_OK
        rows.append(np.genfromtxt(out / "trajectory.csv", delimiter=",", skip_header=1))
    deviation = np.max(np.abs(rows[1] - rows[0]), axis=1) / np.max(np.abs(rows[0]), axis=1)
    assert np.max(deviation) <= 1e-15


@pytest.mark.parametrize("command", ["verify", "adjoint"])
def test_bad_gauge_kappa_squared_failure_refused(tmp_path, capsys, command):
    # the metric checks fail here by far, and c*u*kappa^2 reaches their
    # tolerances; heisenberg, which is kappa-linear, passes
    out = tmp_path / "out"
    point = ["--mu", "0.5", "--gamma", "3.2", "--gauge", _BAD_GAUGE, "--samples", "101"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, *point, "--output", str(out)]) == EXIT_REGIME
        assert run(tmp_path, "heisenberg", *point) == EXIT_OK
    err = capsys.readouterr().err
    name = ("pfalgebra/metric_product_identity" if command == "verify"
            else "dynamics/adjoint_metric_route")
    assert err.startswith(f"numerical refusal: IllConditioned: {name} residual ")
    assert "which its bound c*u*kappa^2 = " in err and "(kappa(T)=" in err
    assert not out.exists()


def test_passing_check_not_refused_by_its_bound(tmp_path):
    # kappa(T) = 311 near the exceptional point: c*u*kappa^2 reaches the
    # tolerance of metric_product_identity, whose residual passes, so the run
    # passes
    model = Model(normalized(0.5, 2.2308))
    bound = verify_mod.KAPPA2_C["pfalgebra/metric_product_identity"] * 2.0**-53 \
        * model.pair.kappa**2
    assert 300 < model.pair.kappa < 320 and bound > 1e-10
    assert run(tmp_path, "verify", "--mu", "0.5", "--gamma", "2.2308") == EXIT_OK
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["pfalgebra/metric_product_identity"]["pass"] is True


@pytest.mark.parametrize("name", list(verify_mod.KAPPA2_C))
def test_kappa_squared_failure_beyond_its_bound_fails(tmp_path, monkeypatch, capsys, name):
    # a failure that c*u*kappa^2 does not reach is a defect, not conditioning:
    # exit 1, with the check named
    suite = cli_mod.run_verification_suite

    def faulty_suite(model, tau):
        add = pfalgebra.VerificationReport.add

        def adding(report, check, residual, tolerance):
            add(report, check, 1.0 if name.endswith(check) and tolerance else residual,
                tolerance)
        monkeypatch.setattr(pfalgebra.VerificationReport, "add", adding)
        return suite(model, tau)

    monkeypatch.setattr(cli_mod, "run_verification_suite", faulty_suite)
    assert run(tmp_path, "verify", "--mu", "0.5", "--gamma", "3", "--samples", "101") \
        == EXIT_CHECK_FAILED
    assert f"  FAIL {name}: residual 1.000e+00" in capsys.readouterr().out


@pytest.mark.parametrize("gamma", ["200", "400", "1e4"])
def test_verify_semigroup_check_stays_on_a_short_grid(tmp_path, capsys, gamma):
    # the semigroup check evolved to tau = 2.2 whatever tau_max was: e^{2.2 l4}
    # overflowed with warnings, and at 1e4 its state reached the projection as
    # inf; the fixed Heisenberg grid (tau up to 3) is refused by name
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify", "--mu", "0.5", "--gamma", gamma, "--tau-max", "0.01",
                     "--output", str(out)])
    assert code == EXIT_REGIME
    assert capsys.readouterr().err.startswith("numerical refusal: SeriesOverflow: ")
    assert not out.exists()


def test_verify_semigroup_times_shrink_onto_the_grid():
    # steps of 1.3 and 0.9 at tau_max >= 2.2, scaled by tau_max / 2.2 below it
    for tau_max in (5.0, 0.5, 1e-3):
        report = run_verification_suite(Model(normalized(0.5, 3.0)),
                                        np.linspace(0.0, tau_max, 101))
        assert report.checks["dynamics/semigroup"]["pass"], tau_max


def test_gauge_check_relative_to_the_run_gauge(tmp_path):
    # verify's second gauge is the run's times (2, 0.5, 3, 1); as fixed absolute
    # column scales, (2, 0.5, 3, 1) made T singular here
    mu, gamma = -0.245, 23.72792075861588
    assert run(tmp_path, "verify", "--mu", repr(mu), "--gamma", repr(gamma),
               "--samples", "11") == EXIT_OK


def test_rk4_oracle_refines_its_step_at_large_l4(tmp_path):
    # l4 = 44.95: a fixed step of 1e-3 misses by 7.4e-6, so the oracle must
    # refine its step to stay near its 1e-7 target
    mu, gamma = 0.245, 44.977
    assert run(tmp_path, "verify", "--mu", repr(mu), "--gamma", repr(gamma)) == EXIT_OK
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["dynamics/closed_vs_rk4_max_rel"]["residual"] <= 2e-7


def test_physical_point_with_ill_conditioned_metric_verifies(tmp_path):
    # unscaled columns give kappa(T) ~ 5e3 here, and S_phi = T T^+ then fails
    # the inversion test that S_psi, taken from the psi family, does not need; with
    # unit-norm columns kappa(T) is 1.6 and every check passes with margin
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
    # with unscaled columns S_phi failed the old determinant test here; the
    # route solves with it
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
    norm0 = linalg.spectral_norm(model.pf.N[0])
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
        assert report.checks[name]["pass"], name


#: sha256 over every verify outcome on a slice of the regime grid (rows mu[0]
#: and mu[11], every fourth gamma), with the CLI's defaults i1 = 1, tau_max 5
#: and 1,001 samples, in the default gauge, verify's second gauge and a
#: deliberately bad one: a report's JSON text, or "Class: message" for a
#: refusal; recorded with numpy 2.4.6
_GRID_SLICE_SHA256 = "38afbdef1cbe55459bdbfcd4c4b584e5b6d50f52c2d489dd64ac302c9d04c493"


def test_verify_outcomes_pinned_on_a_grid_slice():
    tau = np.linspace(0.0, 5.0, 1001)
    digest, outcomes = hashlib.sha256(), set()
    for mu in _GRID_MU[[0, 11]].tolist():
        for gamma in _GRID_GAMMA[::4].tolist():
            model = Model(normalized(mu, gamma, i1=1.0))
            if not validate(model.derived).accepted:
                continue
            for gauge in ([1.0] * 4, [2.0, 0.5, 3.0, 1.0], [1e3, 1e-3, 1.0, 1.0]):
                try:
                    report = run_verification_suite(Model(model.params, Gauge(*gauge)), tau)
                    text, outcome = json.dumps(report.checks, indent=2), "report"
                except ValueError as exc:
                    text, outcome = f"{type(exc).__name__}: {exc}", type(exc).__name__
                outcomes.add(outcome)
                digest.update(f"{mu!r} {gamma!r} {gauge!r}\n{text}\n".encode())
    assert outcomes == {"report", "IllConditioned", "SeriesOverflow"}
    assert digest.hexdigest() == _GRID_SLICE_SHA256


def test_verify_key_set_is_the_same_in_two_relative_gauges():
    # the dominant-mode threshold reads |c11 * t24| relative to ||psi0||, which
    # no gauge changes; c11 alone falls below it once every column is scaled by 1e13
    tau = np.linspace(0.0, 5.0, 1001)
    keys = [list(run_verification_suite(Model(normalized(0.5, 3.0), Gauge(*[scale] * 4)),
                                        tau).checks) for scale in (1.0, 1e13)]
    assert "observables/power_log_slope_error" in keys[0]
    assert keys[0] == keys[1]


@pytest.mark.parametrize("scale", [1e-6, 1e6])
def test_n_hat_checks_pass_under_a_uniform_gauge(scale):
    # S_psi's norm scales like 1/scale^2; an absolute Jacobi threshold stopped
    # its rotations early, and the n-hat residuals read up to 6.3e-4
    tau = np.linspace(0.0, 5.0, 1001)
    report = run_verification_suite(Model(normalized(0.5, 3.0), Gauge(*[scale] * 4)), tau)
    n_hat = {name: check for name, check in report.checks.items() if "/n_hat" in name}
    assert len(n_hat) == 4 and all(check["pass"] for check in n_hat.values()), n_hat


#: sha256 of each artifact and of stdout, written with ``--output .``; recorded
#: with numpy 2.4.6, so an intended byte change (or another numpy) updates them
_PINNED_SHA256 = {
    ("reference", "heisenberg"): {
        "heisenberg.csv": "4d09b676fe206b0ba9bf5df58c8ca7ca618182b41a89ceaa758f1b7f8d057f86",
        "heisenberg_report.json":
            "c627de351491715d157853bdabbcdfb8eb8591bf0726efda480cd5662fc1e2ad",
        "stdout": "a57ca95d1ab6db615d7ac07c4f2b9fde7decb91e5340f50d9f18bde6b15e0835"},
    ("reference", "verify"): {
        "verify_report.json": "9f4c2c712d740561c77a1dc7f0f333a9ffecf9d0fc306eacdbe333e4e0cbdf61",
        "stdout": "bc10b9cd9a2b9284a5c63213be0554fadac1898e5db8369cf7a0e9ff696c4db4"},
    ("gauge", "heisenberg"): {
        "heisenberg.csv": "b7ef10c129fab80a74b9d28042a24667cb06fda55828347a4a9e9de8bfde7da1",
        "heisenberg_report.json":
            "cd0cc19360aefd6385f7d4b0d7e54cd31c66f4ed87f5b2c74a7c936701c99f4b",
        "stdout": "a57ca95d1ab6db615d7ac07c4f2b9fde7decb91e5340f50d9f18bde6b15e0835"},
    ("gauge", "verify"): {
        "verify_report.json": "f5965c5bb79d145f30e928eb0ebc2fb014bfc9fe030a4f9a2da14a0c2284b6b9",
        "stdout": "bc10b9cd9a2b9284a5c63213be0554fadac1898e5db8369cf7a0e9ff696c4db4"},
    ("physical", "heisenberg"): {
        "heisenberg.csv": "729ea032da3206780b072a565980714a43bfa675d95bc603feda5bb4fe3bc945",
        "heisenberg_report.json":
            "0c867da49fe01f81eba8800b282181a6a1ecc513fcfbdf87c0d3bf30a67963f4",
        "stdout": "d323ceabedc40bcd91d1844c67e726ff57eaa60a887a546d090ecd47c8167d0a"},
    ("physical", "verify"): {
        "verify_report.json": "b3344540aed5f77a01239901cfd729a18f69c7d1ac724d38d92d262e4b137f3b",
        "stdout": "bc10b9cd9a2b9284a5c63213be0554fadac1898e5db8369cf7a0e9ff696c4db4"},
    ("reference", "adjoint"): {
        "adjoint.csv": "87d2e8ce3bac021d758fa757bc1ae9f61caa66a027cc73553666a8a725bb469d",
        "adjoint_report.json": "e341a239105bc5db85f0eb15883ef383721b43ad03aa2e941d43feaec6b8c468",
        "stdout": "c847fbbf801c310056f85ec218b0b1d7db97b63b85d7a47a9387f20d13620a4e"},
    ("gauge", "adjoint"): {
        "adjoint.csv": "71ce8e5bb53c55346e9685bf8658c22fad7e5892f7dae839cbac56b124ab6d83",
        "adjoint_report.json": "554571a99c670e62d2bbf87b9f03563bca029024a199c1ca7d4ced076dd84ef4",
        "stdout": "02953f9d8c04cb7fd1db833db69dc41b276efdf698c3f83c933008f4698e513f"},
    ("physical", "adjoint"): {
        "adjoint.csv": "432d1e25ca5970ea2bb0443e0d5fa1b3c19d32713bfd8dc81fa7cafeb97d2f91",
        "adjoint_report.json": "c5d5f5a534894743ca10f7de7ac4f13069302693b180d3f425b964ab0bb828a4",
        "stdout": "3fa491f3aca0da42d33104a5ddf0d1281ddff7ad15774a1e0a79c501acc7e12a"},
    ("reference", "simulate"): {
        "trajectory.csv": "51f5de893e6d3e0923b58761b01cbb4eaa413bf4b830d01d3e813e64ae06209a",
        "plot_data.dat": "cc595bf494edfdb56aad078b7f07b488c2220a186a4b25bdfaa94f46a1e5020a",
        "stdout": "315b16a5ce1600cbc662bd7957a247a0011a7652be0d085243cf59bdd4e2c07c"},
    ("gauge", "simulate"): {
        "trajectory.csv": "60f51893748a9a0c80f5ed0b9a57c1a2b8786699c4f9a42a9c73e5696c9d4322",
        "plot_data.dat": "8f1a7ed137d81360547cb4c6a2e6add2c6686a7a6cb45aa877597c4e9dc9513f",
        "stdout": "315b16a5ce1600cbc662bd7957a247a0011a7652be0d085243cf59bdd4e2c07c"},
    ("physical", "simulate"): {
        "trajectory.csv": "36ed704585697ec0f3b5c3d566ddc8e15d5d1e9e148117dd806b491d0c94a4e5",
        "plot_data.dat": "695930dd010aeffa41901020f9a90f096b40677a5189c613ae1e0f1c467b0a33",
        "stdout": "315b16a5ce1600cbc662bd7957a247a0011a7652be0d085243cf59bdd4e2c07c"},
    ("reference", "simulate-json"): {
        "trajectory.json": "bc8839388d1563cdf9c023ed56a86f98aeb24700aa562c454c080170c910dcb5",
        "plot_data.dat": "cc595bf494edfdb56aad078b7f07b488c2220a186a4b25bdfaa94f46a1e5020a",
        "stdout": "7cb5df3e73a23daa008e3706f706851f0625450ac739b1d325247ca6496f045b"},
    ("gauge", "simulate-json"): {
        "trajectory.json": "5c44f1cd10ac13b0242a7c3f29c24916e778bec94822068e96d4a587ec36e9c5",
        "plot_data.dat": "8f1a7ed137d81360547cb4c6a2e6add2c6686a7a6cb45aa877597c4e9dc9513f",
        "stdout": "7cb5df3e73a23daa008e3706f706851f0625450ac739b1d325247ca6496f045b"},
    ("physical", "simulate-json"): {
        "trajectory.json": "bf8c3be49786f43990f87adcad20f06675f2a4f0ede58242157b4f7ff3c061b8",
        "plot_data.dat": "695930dd010aeffa41901020f9a90f096b40677a5189c613ae1e0f1c467b0a33",
        "stdout": "7cb5df3e73a23daa008e3706f706851f0625450ac739b1d325247ca6496f045b"},
    ("reference", "h0"): {
        "h0.csv": "08ccc3f59b538e568ca524b441b3382ff8ec05bff1630d4c5f4686ca9f14fdf0",
        "stdout": "e560a5e990287eee078461b06adb6d82b2c1453a55544bf2a06a70203fe96c27"},
    ("gauge", "h0"): {
        "h0.csv": "08ccc3f59b538e568ca524b441b3382ff8ec05bff1630d4c5f4686ca9f14fdf0",
        "stdout": "e560a5e990287eee078461b06adb6d82b2c1453a55544bf2a06a70203fe96c27"},
    ("physical", "h0"): {
        "h0.csv": "84b6a4187b96f8dd7572b7c564353611b7a346a0aa4e9b061309fbcea90c8574",
        "stdout": "060c37fea71aa74be680948d2c479d2c39be3f04e4cb90544d5b42650e4b2c50"},
    ("reference", "validate"): {
        "regime.json": "1835d2ab69c594567e919cebc647eecf86b17888ff9eac09816ca601cc8a0fba",
        "stdout": "6da3ce903f88823f73afa8cc044dc12eef95cc9f9b9a7765b1e99d85d82e9f16"},
    ("gauge", "validate"): {
        "regime.json": "1835d2ab69c594567e919cebc647eecf86b17888ff9eac09816ca601cc8a0fba",
        "stdout": "6da3ce903f88823f73afa8cc044dc12eef95cc9f9b9a7765b1e99d85d82e9f16"},
    ("physical", "validate"): {
        "regime.json": "b59e92b8eb2033151246a2bf9c6a4dee61d2461e355d47965c57d814c7aad40b",
        "stdout": "a0e6fefcb4762105dac5c0992746774053fe1bdfa4be24710845190b8755dbc9"},
    ("reference", "spectrum"): {
        "spectrum.json": "ce0b07dfb11ab081d31c70af1fc0b4078c1d776062bfda64008a701a49ea32a3",
        "stdout": "1162e3c38abd819f1190631ab859c96a9891cab809607f43dc9c05f734911c3d"},
    ("gauge", "spectrum"): {
        "spectrum.json": "ce0b07dfb11ab081d31c70af1fc0b4078c1d776062bfda64008a701a49ea32a3",
        "stdout": "1162e3c38abd819f1190631ab859c96a9891cab809607f43dc9c05f734911c3d"},
    ("physical", "spectrum"): {
        "spectrum.json": "72e39da5c1c1af86adea2c9defb88120269e891550238b78381f921db542d5de",
        "stdout": "353022ba724790ca2aeb4d41bb86c015eed0e95096523962253843ebc61a4877"},
    ("grid", "sweep"): {
        "sweep.csv": "c792c313f583e38647acdfb933bc831ee287b2e52cc64da74a1f1d4fe21306e9",
        "stdout": "1bd320b9b0a24ed570175db996f361624f044dfe615296a7ca1f0019f9b725b6"},
    ("large-gamma", "sweep"): {
        "sweep.csv": "c319261da092ce0b16d447e7df571cf0a226749037805007f8c1596ee7e4d4a7",
        "stdout": "994f197b2f72fe3138302a0b3fe06dcee5531527886189c4b065185c63284f53"},
}

_PINNED_POINTS = {
    "reference": ["--mu", "0.5", "--gamma", "3"],
    "gauge": ["--mu", "0.5", "--gamma", "3", "--gauge", "2,0.5,3,1"],
    "physical": ["--mode", "physical", "--L", "2", "--C", "0.5", "--R", "0.2", "--M", "0.7"],
    # sweep grids: 16 points that are not circuits (|mu| >= 1 or gamma <= 0)
    # and mu = 0 exactly; 23 accepted points whose spectrum is refused
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
            spec = Model(normalized(mu, gamma)).spec
            assert float(row["l4"]) == pytest.approx(spec.l4, rel=1e-12)
            assert row["power_window_ok"] == "True"
        else:
            assert row["l4"] == ""


def test_sweep_keeps_refused_points(tmp_path):
    # above gamma ~ 1.5e4 (at mu = 0.5) a gap test refused 23 of these spectra,
    # where kappa(T) is below 2; every accepted point now fills its row
    assert run(tmp_path, "sweep", "--mu-range", "0.05:0.95:10",
               "--gamma-range", "1:20000:10") == EXIT_OK
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(lines) == 101
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    accepted = [row for row in rows if row["accepted"] == "True"]
    assert len(accepted) == 90
    for row in accepted:
        assert all(row[name] != "" for name in header), row
        spec = Model(normalized(float(row["mu"]), float(row["gamma"]))).spec
        assert float(row["l4"]) == spec.l4


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
    # a config file is UTF-8 (RFC 8259), so Latin-1 bytes are refused, not a traceback
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"mu": 0.5, "gamma": 3, "\u00e9": 1}'.encode("latin-1"))
    capsys.readouterr()
    assert run(tmp_path, "simulate", "--config", str(latin1)) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        f"configuration error: cannot read config file {latin1}: 'utf-8' codec can't decode")
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
    # malformed values are refused by name by every command that takes a point,
    # whether a flag or the file carries them, before any file is written: the
    # layers below take their arrays as given
    nan_literal = tmp_path / "nan.json"
    nan_literal.write_text('{"mu": 0.5, "gamma": NaN}')  # json.loads accepts NaN
    point = ["--mu", "0.5", "--gamma", "3"]
    physical = ["--mode", "physical", "--L", "2", "--C", "2", "--R", "0.4", "--M", "0.7"]
    malformed = [[*point, "--gauge", "a,1,1,1"], [*point, "--tau-max", "inf"],
                 ["--mu", "nan", "--gamma", "3"], ["--mu", "0.5", "--gamma", "nan"],
                 [*point, "--i1", "nan"], [*point, "--tau-max", "nan"],
                 *([*point, "--gauge", ",".join(["1"] * j + ["nan"] + ["1"] * (3 - j))]
                   for j in range(4)),
                 *([*physical[:i], "nan", *physical[i + 1:]] for i in (3, 5, 7, 9)),
                 ["--config", str(nan_literal)]]
    out = tmp_path / "malformed"
    for command in ("validate", "spectrum", "simulate", "verify", "adjoint", "h0", "heisenberg"):
        for flags in malformed:
            assert main([command, *flags, "--output", str(out)]) == EXIT_CONFIG, (command, flags)
            assert capsys.readouterr().err.startswith("configuration error: "), (command, flags)
            assert not out.exists(), (command, flags)
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


def test_config_file_read_as_utf8_under_the_c_locale(tmp_path):
    # the C locale's preferred encoding is ASCII: a UTF-8 file read in it
    # ended in a UnicodeDecodeError traceback and exit 1
    config = tmp_path / "run.json"
    config.write_bytes('{"mu": 0.5, "gamma": 3, "\u00b5": 1}'.encode())
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-X", "utf8=0", "-m", "pfcircuit.cli", "validate",
         "--config", str(config), "--output", str(tmp_path / "out")],
        capture_output=True, text=True, encoding="utf-8", errors="replace",
        env={**os.environ, "PYTHONPATH": str(src), "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"})
    assert done.returncode == EXIT_CONFIG, done.stderr
    assert done.stderr.startswith("configuration error: unknown config fields: ")


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


def test_negative_gauge_scales_write_the_same_bytes(tmp_path):
    # a column's sign drops out of every written series; a negative scale
    # needs the = form, since argparse takes "-2,0.5,-3,1" for a flag
    for name, gauge in (("negative", ["--gauge=-2,0.5,-3,1"]),
                        ("positive", ["--gauge", "2,0.5,3,1"])):
        assert main(["simulate", "--mu", "0.5", "--gamma", "3", "--samples", "301", *gauge,
                     "--output", str(tmp_path / name)]) == EXIT_OK
    for artifact in ("trajectory.csv", "plot_data.dat"):
        assert (tmp_path / "negative" / artifact).read_bytes() \
            == (tmp_path / "positive" / artifact).read_bytes()


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


def test_parser_built_once_gives_the_outputs_of_fresh_parsers(tmp_path, capsys):
    # a bad flag exits 2 from argparse between runs that succeed or are refused
    argvs = [["validate", "--mu", "0.5", "--gamma", "3"],
             ["simulate", "--mu", "0.5", "--gamma", "3", "--bogus", "1"],
             ["spectrum", "--mu", "0.5", "--gamma", "2"],
             ["simulate", "--mu", "0.5", "--gamma", "3", "--samples", "5"],
             ["sweep", "--mu-range", "0.1:0.9:3", "--gamma-range", "1:5:3"],
             ["verify", "--mu", "0.5", "--gamma", "3", "--samples", "3"]]
    outputs = []
    for fresh in (True, False):
        results = []
        for k, argv in enumerate(argvs):
            if fresh:
                cli_mod._make_parser.cache_clear()
            try:
                code = main([*argv, "--output", str(tmp_path / f"{fresh}-{k}")])
            except SystemExit as exc:
                code = ("exit", exc.code)
            out, err = capsys.readouterr()
            results.append((code, out.replace(f"{fresh}-{k}", ""), err))
        outputs.append(results)
    assert outputs[0] == outputs[1]
    assert [r[0] for r in outputs[1]] == [0, ("exit", 2), 3, 0, 0, 0]
    assert cli_mod._make_parser() is cli_mod._make_parser()
    for k, argv in enumerate(argvs):
        fresh, cached = (sorted(p.name for p in (tmp_path / f"{f}-{k}").glob("*"))
                         if (tmp_path / f"{f}-{k}").exists() else None for f in (True, False))
        assert fresh == cached
        for name in fresh or []:
            assert (tmp_path / f"True-{k}" / name).read_bytes() \
                == (tmp_path / f"False-{k}" / name).read_bytes()


@pytest.mark.parametrize("point", ["reference", "gauge", "physical"])
def test_json_writer_matches_json_dumps(tmp_path, monkeypatch, point):
    payloads = []

    def recording(payload):
        payloads.append(payload)
        return writer(payload)

    writer = cli_mod._json_text
    monkeypatch.setattr(cli_mod, "_json_text", recording)
    for command in ("validate", "spectrum", "adjoint", "heisenberg", "verify"):
        assert main([command, *_PINNED_POINTS[point], "--output", str(tmp_path)]) == EXIT_OK
    assert len(payloads) == 5
    synthetic = {"plain": 1.5, "inf": math.inf, "-inf": -math.inf, "nan": math.nan,
                 "none": None, "true": True, "false": False, "int": -7, "big": 10**30,
                 "zero": -0.0, "tiny": 5e-324, 'q"uote\\ é☃\n\t': "a,\n\"{}\"",
                 "empty": {}, "nested": {"r": 2.5e-300, "t": None, "p": True, "{}\n": "}},\n"}}
    for payload in [*payloads, synthetic, {}, {"only": {}}]:
        assert writer(payload) == json.dumps(payload, indent=2) + "\n"
