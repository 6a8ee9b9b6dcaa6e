"""Command-line entry point: configuration, simulation, verification, sweeps.

Commands
--------
validate    emit the regime report; exit 0 iff the parameter set is accepted
spectrum    emit the closed-form spectrum
simulate    emit the trajectory with power/energy columns plus plot data
verify      run the full identity suite; exit 0 iff all asserted checks pass
adjoint     simulate the adjoint system and emit the identification residuals
h0          emit the trivial diagonal-system trajectories
heisenberg  emit the number-operator norm series and the growth-bound report
sweep       grid over (mu, gamma); regime + gain/loss report rows in one CSV

Exit codes: 0 success, 1 failed asserted checks, 2 configuration errors and
points that are not a circuit, 3 refusals, 4 output that cannot be written,
70 an unexpected exception, with its traceback (EX_SOFTWARE, BSD sysexits.h).
Each refusal in pfcircuit.errors subclasses one category, which main maps to
the exit code: NotACircuit exits 2 (gamma above params.GAMMA_MAX, say; a sweep
writes such a point's conditions as False); RegimeRefusal exits 3 where the
command requires acceptance (a sweep fills every row that validate accepts);
NumericalRefusal exits 3 at an accepted point: an intertwiner too
ill-conditioned for the metric or for a failed kappa^2 check
(IllConditioned), a non-positive-definite metric, a heisenberg generator
reconstruction that fails beyond its kappa^2 bound (ReconstructionFailure, a
defect), or a series that overflows on the tau grid.
Each command returns its files as bytes pieces, with its stdout lines and exit
code, and main alone writes them once the command has returned, so every
refusal comes before any file is written.  A file is moved into place from a
temporary name after its last piece, and an OSError exits 4 ("cannot write
output"), leaving no temporary file.
verify writes a check that gives no number as null (a reported-only channel,
or an asymptotic check where the dominant mode is unpopulated), its RK4
oracle picks its own step from the generator (see dynamics.evolve_rk4), and
its asymptotic checks pick their own window from the model (see verify).
All outputs are deterministic: fixed float formatting, fixed key and row ordering.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
import traceback
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import dynamics as dyn
from . import heisenberg as heis
from . import observables as obs
from . import pfalgebra
from .dynamics import format_float as _fmt
from .errors import (NotACircuit, NumericalRefusal, ReconstructionFailure, RegimeRefusal,
                     SeriesOverflow)
from .model import Model
from .params import CircuitParams, normalized
from .verify import ADJOINT_METRIC_TOL, refuse_ill_conditioned, run_verification_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_REGIME = 3
EXIT_OUTPUT = 4
EXIT_SOFTWARE = 70  # an unexpected exception: EX_SOFTWARE of BSD sysexits.h


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Resolved run configuration; `build_config` reads each field from a flag or the file."""

    mode: str = "normalized"
    mu: float | None = None
    gamma: float | None = None
    L: float | None = None
    C: float | None = None
    R: float | None = None
    M: float | None = None
    i1: float = CircuitParams.i1
    gauge: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    tau_max: float = 5.0
    samples: int = 1001
    output_dir: str = "."
    format: str = "csv"
    mu_range: tuple[float, float, int] | None = None
    gamma_range: tuple[float, float, int] | None = None

    def check(self) -> None:
        if self.mode not in ("normalized", "physical"):
            raise ConfigError(f"mode must be 'normalized' or 'physical', got {self.mode!r}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be 'csv' or 'json', got {self.format!r}")
        if self.samples < 2:
            raise ConfigError(f"samples must be >= 2, got {self.samples}")
        if not (self.tau_max > 0.0 and math.isfinite(self.tau_max)):
            raise ConfigError(f"tau_max must be finite and > 0, got {self.tau_max}")
        if not all(math.isfinite(g) for g in self.gauge):
            raise ConfigError(f"gauge scales must be finite, got {self.gauge}")
        for name in ("mu_range", "gamma_range"):
            value = getattr(self, name)
            if value is not None and value[2] < 1:
                raise ConfigError(f"{name} steps must be >= 1, got {value[2]}")
            if value is not None and not all(map(math.isfinite, value[:2])):
                raise ConfigError(f"{name} ends must be finite, got {value[0]}:{value[1]}")
        if self.mode == "normalized":
            if any(v is not None for v in (self.L, self.C, self.R, self.M)):
                raise ConfigError("normalized mode does not accept L/C/R/M")
        else:
            if any(v is None for v in (self.L, self.C, self.R, self.M)):
                raise ConfigError("physical mode requires L, C, R, and M")
            if self.mu is not None or self.gamma is not None:
                raise ConfigError("physical mode does not accept mu/gamma")


def _load_config_file(path: str) -> dict:
    try:
        # JSON text exchanged between systems is UTF-8 (RFC 8259, section 8.1)
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return data


_CONFIG_FIELDS = {f.name for f in fields(RunConfig)}

#: how each field is read: a parser of its text, or for a tuple field the
#: separator of its flag text and one parser per element
_FIELD_PARSERS = {
    "mode": str, "format": str, "output_dir": str, "samples": int,
    **dict.fromkeys(("mu", "gamma", "L", "C", "R", "M", "i1", "tau_max"), float),
    "gauge": (",", (float,) * 4),
    "mu_range": (":", (float, float, int)),
    "gamma_range": (":", (float, float, int)),
}


def _text(value) -> str:
    """A flag's text, or a config-file string or number as the text its flag would carry."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValueError(value)
    return str(value)


def _coerce(name: str, value):
    """Field ``name`` read from a flag's text or a config-file value, one way for both.

    A config number is read from its text as the flag is: 3 and "3" give the
    same gamma, while 5.5 samples, true, and null for a field that defaults to
    a value are refused.  A tuple field takes its flag text or a JSON list with
    one entry per element.
    """
    if value is None and getattr(RunConfig, name) is None:
        return None
    parse = _FIELD_PARSERS[name]
    try:
        if not isinstance(parse, tuple):
            return parse(_text(value))
        sep, parsers = parse
        parts = value.split(sep) if isinstance(value, str) else value
        if not isinstance(parts, list) or len(parts) != len(parsers):
            raise ValueError(value)
        return tuple(element(_text(part)) for element, part in zip(parsers, parts))
    except ValueError:
        raise ConfigError(f"cannot read {name} from {value!r}") from None


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file, and command-line flags (flags win)."""
    values = _load_config_file(args.config) if getattr(args, "config", None) else {}
    unknown = set(values) - _CONFIG_FIELDS
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    values.update({name: getattr(args, name) for name in _CONFIG_FIELDS
                   if getattr(args, name, None) is not None})
    cfg = RunConfig(**{name: _coerce(name, value) for name, value in values.items()})
    cfg.check()
    return cfg


def _model(cfg: RunConfig) -> Model:
    """The run's parameter point, which every command but sweep reads."""
    if cfg.mode == "normalized" and (cfg.mu is None or cfg.gamma is None):
        raise ConfigError("normalized mode requires mu and gamma")
    if cfg.mode == "normalized":
        params = normalized(cfg.mu, cfg.gamma, i1=cfg.i1)
    else:
        params = CircuitParams(L=cfg.L, C=cfg.C, R=cfg.R, M=cfg.M, i1=cfg.i1)
    return Model(params, pfalgebra.Gauge(*cfg.gauge))


def _tau_grid(cfg: RunConfig) -> np.ndarray:
    return np.linspace(0.0, cfg.tau_max, cfg.samples)


def _write(handle, text: bytes) -> None:
    """Append the ASCII bytes ``text`` (bytes, or a memoryview of a uint8 array)
    to an open artifact; every written byte passes here, which is what the
    benchmark's ``cli.bytes_written`` counts."""
    handle.write(text)


#: json's C encoder, which the indented json.dumps does not use, set to write a
#: list one item per line: an encoded scalar escapes every control character,
#: so the only line ends are the separators
_encode_lines = json.JSONEncoder(separators=("\n", ": ")).encode


def _json_text(payload: dict) -> str:
    """``json.dumps(payload, indent=2) + "\\n"`` for a dict of scalars or of dicts of scalars.

    Every command's JSON report is such a dict, with str keys.  The keys and
    scalars are encoded by one C-encoder call, and the indented layout around
    them is laid out here as a format template.
    """
    tokens, lines = [], []
    for key, value in payload.items():
        tokens.append(key)
        if isinstance(value, dict):
            tokens.extend(itertools.chain.from_iterable(value.items()))
            inner = ",\n".join(["    {}: {}"] * len(value))
            lines.append("  {}: {{\n" + inner + "\n  }}" if value else "  {}: {{}}")
        else:
            tokens.append(value)
            lines.append("  {}: {}")
    if not tokens:
        return "{}\n"
    encoded = _encode_lines(tokens)[1:-1].split("\n")
    return ("{{\n" + ",\n".join(lines) + "\n}}\n").format(*encoded)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

#: what a command returns: each file's name and its bytes pieces, in write
#: order; the lines it prints; and its exit code.  Only ``main`` writes.
Output = tuple[dict[str, Iterable[bytes]], list[str], int]


def cmd_validate(cfg: RunConfig) -> Output:
    report = _model(cfg).regime
    return ({"regime.json": [_json_text(report.to_dict()).encode()]},
            [f"accepted: {report.accepted} (rho={report.rho:.12g})"],
            EXIT_OK if report.accepted else EXIT_REGIME)


def cmd_spectrum(cfg: RunConfig) -> Output:
    spec = _model(cfg).spec
    return ({"spectrum.json": [_json_text(spec.to_dict()).encode()]},
            [f"l3={spec.l3:.12g} < l1={spec.l1:.12g} < 0 < l2={spec.l2:.12g} < l4={spec.l4:.12g}"],
            EXIT_OK)


#: cells (values) per dyn.format_floats call and per written piece of CSV
#: text, in whole rows: larger blocks make fewer numpy calls, smaller ones
#: smaller temporaries
_BLOCK_CELLS = 2816


def _fields(columns: list[np.ndarray]) -> np.ndarray:
    """(rows, columns) ``dyn.format_floats`` fields of equal-length series."""
    fields = np.empty((len(columns[0]), len(columns)), "S24")
    step = max(1, _BLOCK_CELLS // len(columns))
    for lo in range(0, len(fields), step):
        block = np.stack([c[lo:lo + step] for c in columns], axis=1)
        fields[lo:lo + step] = dyn.format_floats(block)
    return fields


#: a written cell: a field and the separator that follows it
_CELL = np.dtype([("field", "S24"), ("sep", "S1")])


def _rows(fields: np.ndarray) -> Iterator[memoryview]:
    """(rows, columns) fields as CSV rows, one piece per block of rows.

    Each field is copied into a cell whose 25th byte is its separator (a
    comma, or a line end after the last column); the NUL padding is then
    dropped by one mask, which also copies the piece out of the cells.
    """
    rows, cols = fields.shape
    step = max(1, _BLOCK_CELLS // cols)
    cells = np.empty((min(step, rows), cols), _CELL)
    cells["sep"] = b","
    cells["sep"][:, -1] = b"\n"
    for lo in range(0, rows, step):
        piece = cells[:min(step, rows - lo)]
        piece["field"] = fields[lo:lo + step]
        text = piece.view(np.uint8)
        yield text[text != 0].data


def _csv(header: str, fields: np.ndarray) -> Iterator[bytes]:
    """A CSV file's pieces: a header line and the rows of (rows, columns) fields."""
    yield f"{header}\n".encode()
    yield from _rows(fields)


def _json_columns(columns: dict[str, np.ndarray]) -> Iterator[bytes]:
    """``json.dumps(columns, indent=2)``, one column at a time.

    json writes a finite float as its ``float.__repr__``, and every series
    here has passed the overflow check, so joining the reprs gives its bytes.
    """
    sep = "{\n"
    for name, series in columns.items():
        yield f'{sep}  "{name}": [\n    '.encode()
        yield ",\n    ".join(map(float.__repr__, series.tolist())).encode()
        yield b"\n  ]"
        sep = ",\n"
    yield b"\n}"


def _plot_blocks(names: list[str], fields: np.ndarray) -> Iterator[bytes]:
    """plot_data.dat's pieces: a block per series ``names[k - 1]`` of field column k."""
    sep = ""  # a blank line between series blocks, none after the last
    for k, name in enumerate(names, start=1):
        yield f"{sep}# series {name}\ntau,{name}\n".encode()
        yield from _rows(fields[:, 0:k + 1:k])  # columns 0 and k, as a view
        sep = "\n"


def cmd_simulate(cfg: RunConfig) -> Output:
    model = _model(cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        traj = model.evolve(_tau_grid(cfg))
        columns = dyn.trajectory_columns(traj, obs.power(traj), obs.energy(traj, model.params))
    SeriesOverflow.check(cfg.tau_max, *columns.values())
    fields = _fields(list(columns.values()))
    trajectory = (_csv(",".join(columns), fields) if cfg.format == "csv"
                  else _json_columns(columns))
    return ({f"trajectory.{cfg.format}": trajectory,
             "plot_data.dat": _plot_blocks(list(columns)[1:], fields)},
            [f"simulated {cfg.samples} samples on tau in [0, {cfg.tau_max}]"], EXIT_OK)


def cmd_adjoint(cfg: RunConfig) -> Output:
    model = _model(cfg)
    tau = _tau_grid(cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        xtraj, metric_res = dyn.adjoint_metric_route(model.psi0, model.evolve(tau),
                                                     model.pair, model.spec)
        report = dyn.adjoint_circuit_map(xtraj, model.params, model.derived)
    SeriesOverflow.check(cfg.tau_max, xtraj.states, report.residuals, metric_res)
    refuse_ill_conditioned("dynamics/adjoint_metric_route", metric_res, ADJOINT_METRIC_TOL,
                           model.pair.kappa)
    payload = {
        "identification": "strict (x -> I1, I2, -V1, -V2)" if report.strict
        else "extended (voltage components scaled by C*omega0)",
        "max_identification_residual": report.max_residual,
        "paper_literal_map_max_residual": report.paper_literal_map_max_residual,
        "metric_route_max_residual": metric_res,
    }
    return ({"adjoint.csv": _csv("tau,x1,x2,x3,x4", _fields([tau, *xtraj.states.T])),
             "adjoint_report.json": [_json_text(payload).encode()]},
            [f"adjoint identification residual {report.max_residual:.3e}, "
             f"metric route {metric_res:.3e}"], EXIT_OK)


def cmd_h0(cfg: RunConfig) -> Output:
    spec = _model(cfg).spec
    tau = _tau_grid(cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        traj = dyn.evolve_h0(spec, np.ones(4), tau)
    SeriesOverflow.check(cfg.tau_max, traj.states)
    return ({"h0.csv": _csv("tau,y1,y2,y3,y4", _fields([tau, *traj.states.T]))},
            [f"diagonal-system rates: {', '.join(_fmt(r) for r in spec.shifted_eigenvalues)}"],
            EXIT_OK)


def cmd_heisenberg(cfg: RunConfig) -> Output:
    model = _model(cfg)
    residual = pfalgebra.reconstruction_residual(model.pf, model.generator)
    refuse_ill_conditioned("pfalgebra/generator_reconstruction", residual,
                           pfalgebra.RECONSTRUCTION_TOL, model.pair.kappa)
    if not residual <= pfalgebra.RECONSTRUCTION_TOL:
        raise ReconstructionFailure(f"generator reconstruction residual {residual:.3e} exceeds "
                                    f"{pfalgebra.RECONSTRUCTION_TOL:.0e} beyond its bound "
                                    f"(kappa(T)={model.pair.kappa:.6e})")
    tau = np.linspace(0.0, min(cfg.tau_max, heis.TAU_END), min(cfg.samples, 61))
    evo = heis.number_evolution(model.pf, tau)
    bound = heis.growth_bound_report(evo, model.spec)
    two_path, printed = evo.max_relative_deviation, evo.printed_order_max_relative_deviation
    payload = {**bound.to_dict(),
               "two_path_deviation_N1": two_path[0], "two_path_deviation_N2": two_path[1],
               "printed_order_deviation_N1": printed[0], "printed_order_deviation_N2": printed[1]}
    return ({"heisenberg.csv": _csv("tau,normN1,normN2,ratio1,ratio2",
                                    _fields([tau, *evo.generic.norms, *bound.ratios])),
             "heisenberg_report.json": [_json_text(payload).encode()]},
            ["growth constants: " + ", ".join(f"{c:.6g}" for c in bound.bound_constant)],
            EXIT_OK)


def cmd_verify(cfg: RunConfig) -> Output:
    report = run_verification_suite(_model(cfg), _tau_grid(cfg))
    n_asserted = sum(1 for c in report.checks.values() if c.passed is not None)
    failed = {name: report.checks[name] for name in report.failed()}
    return ({"verify_report.json": [_json_text(report.to_dict()).encode()]},
            [f"{n_asserted} asserted checks, {len(failed)} failed",
             *(f"  FAIL {name}: residual {c.residual:.3e} > {c.tolerance:.3e}"
               for name, c in failed.items())],
            EXIT_OK if report.all_passed else EXIT_CHECK_FAILED)


#: the regime conditions, which a point that is not a circuit fails
_CONDITIONS = ("condition_rho_positive", "condition_gamma_sq_gt_2alpha", "condition_mu_sq_lt_1",
               "coupling_nonzero", "accepted")
#: sweep.csv's columns: the point, then fields of validate's RegimeReport,
#: then fields of classify_asymptotics' GainLossReport
_SWEEP_COLUMNS = ("mu", "gamma", "rho", *_CONDITIONS, "l4", "power_window_ok", "energy_lower",
                  "energy_upper", "energy_window_ok", "p1_diverges_to", "p2_diverges_to")


def _sweep_row(mu: float, gamma: float) -> str:
    """The sweep.csv row of one grid point; a cell no report gives is blank."""
    cells = {"mu": mu, "gamma": gamma}
    try:
        model = Model(normalized(mu, gamma))
    except NotACircuit:
        cells.update(dict.fromkeys(_CONDITIONS, False))
    else:
        regime = model.regime
        cells.update(regime.to_dict())
        if regime.accepted:
            cells.update(obs.classify_asymptotics(model.spec, model.derived,
                                                  model.params).to_dict())
    return ",".join([_fmt(v) if isinstance(v, float) else str(v)
                     for v in [cells.get(name, "") for name in _SWEEP_COLUMNS]])


def cmd_sweep(cfg: RunConfig) -> Output:
    if cfg.mu_range is None or cfg.gamma_range is None:
        raise ConfigError("sweep requires --mu-range and --gamma-range")
    gammas = np.linspace(*cfg.gamma_range).tolist()
    rows = [_sweep_row(mu, gamma) for mu in np.linspace(*cfg.mu_range).tolist()
            for gamma in gammas]
    text = "\n".join([",".join(_SWEEP_COLUMNS), *rows]) + "\n"
    return ({"sweep.csv": [text.encode()]},
            [f"swept {cfg.mu_range[2]}x{cfg.gamma_range[2]} grid"], EXIT_OK)


_COMMANDS = {
    "validate": cmd_validate,
    "spectrum": cmd_spectrum,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "adjoint": cmd_adjoint,
    "h0": cmd_h0,
    "heisenberg": cmd_heisenberg,
    "sweep": cmd_sweep,
}


@functools.cache
def _make_parser() -> argparse.ArgumentParser:
    # cached, as building costs far more than a parse and leaves reference cycles;
    # the flags are declared once, on help-less parents that every subcommand copies
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON config file; flags override it")
    shared.add_argument("--mode", choices=["normalized", "physical"])
    for flag in ("mu", "gamma", "L", "C", "R", "M", "i1", "tau-max", "samples"):
        shared.add_argument(f"--{flag}")
    shared.add_argument("--gauge", help="four comma-separated column scales")
    shared.add_argument("--output", dest="output_dir", metavar="DIR", help="output directory")
    shared.add_argument("--format", choices=["csv", "json"])
    ranges = argparse.ArgumentParser(add_help=False)
    ranges.add_argument("--mu-range", help="MIN:MAX:STEPS")
    ranges.add_argument("--gamma-range", help="MIN:MAX:STEPS")
    parser = argparse.ArgumentParser(
        prog="pfcircuit",
        description="Loss-gain circuit simulator and identity-verification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub.add_parser(name, parents=[shared, ranges] if name == "sweep" else [shared])
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run a command, then write the files it returned (the only writes) and print its lines."""
    args = _make_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        files, lines, code = _COMMANDS[args.command](cfg)
        out = Path(cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name, pieces in files.items():
            temp = out / f".{name}.{os.getpid()}.tmp"
            try:
                with open(temp, "wb") as handle:
                    for piece in pieces:
                        _write(handle, piece)
                os.replace(temp, out / name)
            finally:
                temp.unlink(missing_ok=True)  # left only by a failed write
            print(f"wrote {out / name}")
    except (ConfigError, NotACircuit) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RegimeRefusal as exc:
        print(f"regime rejected: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except NumericalRefusal as exc:
        print(f"numerical refusal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    except Exception:  # a defect, which must not read as failed checks (exit 1)
        traceback.print_exc()
        return EXIT_SOFTWARE
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
