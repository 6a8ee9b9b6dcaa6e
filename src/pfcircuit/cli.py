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

Exit codes: 0 success, 1 failed asserted checks, 2 configuration errors,
3 regime rejection where the command requires acceptance, or a numerical
refusal at an accepted point: a singular or non-positive-definite matrix, or
a simulate/adjoint/h0/verify series that overflows (inf/nan) on the tau grid,
which is refused before any file is written.
All outputs are deterministic: fixed float formatting, fixed key and row
ordering.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import dynamics as dyn
from . import heisenberg as heis
from . import observables as obs
from .dynamics import format_float as _fmt
from .errors import (
    CouplingOutOfRange,
    GaugeDegenerate,
    NearDegenerate,
    NonPositiveParameter,
    NotSPD,
    RegimeRejected,
    SeriesOverflow,
    SingularMatrix,
    ZeroCoupling,
)
from .model import Model
from .params import CircuitParams, normalized, validate
from .pfalgebra import Gauge
from .verify import run_verification_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_REGIME = 3


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Resolved run configuration; see the JSON schema in the module docstring."""

    mode: str = "normalized"
    mu: float | None = None
    gamma: float | None = None
    L: float | None = None
    C: float | None = None
    R: float | None = None
    M: float | None = None
    i1: float = 1.0
    gauge: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    tau_max: float = 5.0
    samples: int = 1001
    rk4_step: float = 1e-3
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
        if not self.tau_max > 0.0:
            raise ConfigError(f"tau_max must be > 0, got {self.tau_max}")
        if not self.rk4_step > 0.0:
            raise ConfigError(f"rk4_step must be > 0, got {self.rk4_step}")
        sweep_style = self.mu_range is not None and self.gamma_range is not None
        if self.mode == "normalized":
            if (self.mu is None or self.gamma is None) and not sweep_style:
                raise ConfigError("normalized mode requires mu and gamma")
            if any(v is not None for v in (self.L, self.C, self.R, self.M)):
                raise ConfigError("normalized mode does not accept L/C/R/M")
        else:
            if any(v is None for v in (self.L, self.C, self.R, self.M)):
                raise ConfigError("physical mode requires L, C, R, and M")
            if self.mu is not None or self.gamma is not None:
                raise ConfigError("physical mode does not accept mu/gamma")


def _parse_triple(text: str, name: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{name} must look like MIN:MAX:STEPS, got {text!r}")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"could not parse {name}: {exc}") from exc
    if steps < 1:
        raise ConfigError(f"{name} steps must be >= 1")
    return lo, hi, steps


def _load_config_file(path: str) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return data


_CONFIG_FIELDS = {f.name for f in fields(RunConfig)}


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file, and command-line flags (flags win)."""
    cfg = RunConfig()
    if getattr(args, "config", None):
        data = _load_config_file(args.config)
        unknown = set(data) - _CONFIG_FIELDS
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if "gauge" in data:
            gauge = data["gauge"]
            if not (isinstance(gauge, (list, tuple)) and len(gauge) == 4):
                raise ConfigError("gauge must be a list of four numbers")
            data["gauge"] = tuple(float(g) for g in gauge)
        for key in ("mu_range", "gamma_range"):
            if key in data and data[key] is not None:
                rng = data[key]
                if not (isinstance(rng, (list, tuple)) and len(rng) == 3):
                    raise ConfigError(f"{key} must be [min, max, steps]")
                data[key] = (float(rng[0]), float(rng[1]), int(rng[2]))
        cfg = replace(cfg, **data)
    overrides = {}
    for name in _CONFIG_FIELDS - {"gauge", "output_dir", "mu_range", "gamma_range"}:
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if getattr(args, "output", None) is not None:
        overrides["output_dir"] = args.output
    if getattr(args, "gauge", None) is not None:
        parts = args.gauge.split(",")
        if len(parts) != 4:
            raise ConfigError("--gauge expects four comma-separated numbers")
        overrides["gauge"] = tuple(float(p) for p in parts)
    if getattr(args, "mu_range", None) is not None:
        overrides["mu_range"] = _parse_triple(args.mu_range, "--mu-range")
    if getattr(args, "gamma_range", None) is not None:
        overrides["gamma_range"] = _parse_triple(args.gamma_range, "--gamma-range")
    cfg = replace(cfg, **overrides)
    cfg.check()
    return cfg


def _model(cfg: RunConfig) -> Model:
    try:
        if cfg.mode == "normalized":
            params = normalized(cfg.mu, cfg.gamma, i1=cfg.i1)
        else:
            params = CircuitParams(L=cfg.L, C=cfg.C, R=cfg.R, M=cfg.M, i1=cfg.i1)
    except (NonPositiveParameter, CouplingOutOfRange) as exc:
        raise ConfigError(str(exc)) from exc
    return Model(params, Gauge(*cfg.gauge))


def _tau_grid(cfg: RunConfig) -> np.ndarray:
    return np.linspace(0.0, cfg.tau_max, cfg.samples)


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as handle:
        handle.write(text)
    print(f"wrote {path}")


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_validate(cfg: RunConfig) -> int:
    report = validate(_model(cfg).derived)
    _write(Path(cfg.output_dir) / "regime.json", _json_text(report.to_dict()))
    print(f"accepted: {report.accepted} (rho={report.rho:.12g})")
    return EXIT_OK if report.accepted else EXIT_REGIME


def cmd_spectrum(cfg: RunConfig) -> int:
    spec = _model(cfg).spec
    _write(Path(cfg.output_dir) / "spectrum.json", _json_text(spec.to_dict()))
    print(f"l3={spec.l3:.12g} < l1={spec.l1:.12g} < 0 < l2={spec.l2:.12g} < l4={spec.l4:.12g}")
    return EXIT_OK


def _plot_data_text(columns: dict[str, np.ndarray], tau: np.ndarray) -> str:
    blocks = []
    for name, series in columns.items():
        if name == "tau":
            continue
        lines = [f"# series {name}", f"tau,{name}"]
        lines.extend(f"{_fmt(float(t))},{_fmt(float(v))}" for t, v in zip(tau, series))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def cmd_simulate(cfg: RunConfig) -> int:
    model = _model(cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        traj = model.evolve(_tau_grid(cfg))
        pw = obs.power(traj, model.params, model.derived)
        en = obs.energy(traj, model.params)
    columns = dyn._trajectory_columns(traj, pw, en)
    SeriesOverflow.check(cfg.tau_max, *columns.values())
    out = Path(cfg.output_dir)
    if cfg.format == "csv":
        _write(out / "trajectory.csv", dyn.trajectory_to_csv(traj, pw, en))
    else:
        _write(out / "trajectory.json", dyn.trajectory_to_json(traj, pw, en))
    _write(out / "plot_data.dat", _plot_data_text(columns, traj.tau))
    print(f"simulated {cfg.samples} samples on tau in [0, {cfg.tau_max}]")
    return EXIT_OK


def cmd_adjoint(cfg: RunConfig) -> int:
    model = _model(cfg)
    tau = _tau_grid(cfg)
    strict = model.params.L == 1.0 and model.params.C == 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        xtraj, metric_res = dyn.adjoint_metric_route(model.psi0, model.evolve(tau),
                                                     model.pair, model.spec)
        report = dyn.adjoint_circuit_map(xtraj, model.params, model.derived, strict=strict)
    SeriesOverflow.check(cfg.tau_max, xtraj.states, report.residuals, metric_res)
    out = Path(cfg.output_dir)
    _write(out / "adjoint.csv", dyn.csv_text("tau,x1,x2,x3,x4", [tau, *xtraj.states.T]))
    payload = {
        "identification": "strict (x -> I1, I2, -V1, -V2)" if strict
        else "extended (voltage components scaled by C*omega0)",
        "max_identification_residual": report.max_residual,
        "paper_literal_map_max_residual": report.paper_literal_map_max_residual,
        "metric_route_max_residual": metric_res,
    }
    _write(out / "adjoint_report.json", _json_text(payload))
    print(f"adjoint identification residual {report.max_residual:.3e}, "
          f"metric route {metric_res:.3e}")
    return EXIT_OK


def cmd_h0(cfg: RunConfig) -> int:
    spec = _model(cfg).spec
    tau = _tau_grid(cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        traj = dyn.evolve_h0(spec, np.ones(4), tau)
    SeriesOverflow.check(cfg.tau_max, traj.states)
    _write(Path(cfg.output_dir) / "h0.csv",
           dyn.csv_text("tau,y1,y2,y3,y4", [tau, *traj.states.T]))
    print(f"diagonal-system rates: {', '.join(_fmt(r) for r in spec.shifted_eigenvalues)}")
    return EXIT_OK


def cmd_heisenberg(cfg: RunConfig) -> int:
    model = _model(cfg)
    pf, spec = model.pf, model.spec
    tau = np.linspace(0.0, min(cfg.tau_max, 3.0), min(cfg.samples, 61))
    evo1 = heis.number_evolution(1, pf, spec, tau)
    evo2 = heis.number_evolution(2, pf, spec, tau)
    bound = heis.growth_bound_report((evo1.generic, evo2.generic), spec)
    out = Path(cfg.output_dir)
    _write(out / "heisenberg.csv", heis.norm_series_csv((evo1.generic, evo2.generic), bound))
    payload = dict(bound.to_dict())
    payload["two_path_deviation_N1"] = evo1.max_relative_deviation
    payload["two_path_deviation_N2"] = evo2.max_relative_deviation
    payload["printed_order_deviation_N1"] = evo1.printed_order_max_relative_deviation
    payload["printed_order_deviation_N2"] = evo2.printed_order_max_relative_deviation
    _write(out / "heisenberg_report.json", _json_text(payload))
    print(f"growth constants: {bound.bound_constant_1:.6g}, {bound.bound_constant_2:.6g}")
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    report = run_verification_suite(_model(cfg), _tau_grid(cfg), cfg.rk4_step)
    _write(Path(cfg.output_dir) / "verify_report.json", report.to_json() + "\n")
    n_asserted = sum(1 for c in report.checks.values() if c.passed is not None)
    failed = report.failed()
    print(f"{n_asserted} asserted checks, {len(failed)} failed")
    for name in failed:
        check = report.checks[name]
        print(f"  FAIL {name}: residual {check.residual:.3e} > {check.tolerance:.3e}")
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def cmd_sweep(cfg: RunConfig) -> int:
    if cfg.mu_range is None or cfg.gamma_range is None:
        raise ConfigError("sweep requires --mu-range and --gamma-range")
    mu_lo, mu_hi, mu_n = cfg.mu_range
    ga_lo, ga_hi, ga_n = cfg.gamma_range
    mus = np.linspace(mu_lo, mu_hi, mu_n)
    gammas = np.linspace(ga_lo, ga_hi, ga_n)
    header = ("mu,gamma,rho,condition_rho_positive,condition_gamma_sq_gt_2alpha,"
              "condition_mu_sq_lt_1,coupling_nonzero,accepted,l4,power_window_ok,"
              "energy_lower,energy_upper,energy_window_ok,p1_diverges_to,p2_diverges_to")
    lines = [header]
    for mu in mus:
        for gamma in gammas:
            row = [_fmt(float(mu)), _fmt(float(gamma))]
            try:
                model = Model(normalized(float(mu), float(gamma)))
            except (NonPositiveParameter, CouplingOutOfRange):
                lines.append(",".join(row + ["", "False", "False", "False", "False",
                                             "False", "", "", "", "", "", "", ""]))
                continue
            regime = validate(model.derived)
            row += [
                _fmt(regime.rho),
                str(regime.condition_rho_positive),
                str(regime.condition_gamma_sq_gt_2alpha),
                str(regime.condition_mu_sq_lt_1),
                str(regime.coupling_nonzero),
                str(regime.accepted),
            ]
            if regime.accepted:
                gl = obs.classify_asymptotics(model.spec, model.derived, model.params)
                row += [
                    _fmt(gl.l4), str(gl.power_window_ok),
                    "imaginary" if gl.energy_lower is None else _fmt(gl.energy_lower),
                    _fmt(gl.energy_upper), str(gl.energy_window_ok),
                    gl.p1_diverges_to, gl.p2_diverges_to,
                ]
            else:
                row += [""] * 7
            lines.append(",".join(row))
    _write(Path(cfg.output_dir) / "sweep.csv", "\n".join(lines) + "\n")
    print(f"swept {mu_n}x{ga_n} grid")
    return EXIT_OK


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


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfcircuit",
        description="Loss-gain circuit simulator and identity-verification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--mode", choices=["normalized", "physical"])
        p.add_argument("--mu", type=float)
        p.add_argument("--gamma", type=float)
        p.add_argument("--L", type=float)
        p.add_argument("--C", type=float)
        p.add_argument("--R", type=float)
        p.add_argument("--M", type=float)
        p.add_argument("--i1", type=float)
        p.add_argument("--gauge", help="four comma-separated column scales")
        p.add_argument("--tau-max", dest="tau_max", type=float)
        p.add_argument("--samples", type=int)
        p.add_argument("--rk4-step", dest="rk4_step", type=float)
        p.add_argument("--output", help="output directory")
        p.add_argument("--format", choices=["csv", "json"])
        if name == "sweep":
            p.add_argument("--mu-range", dest="mu_range", help="MIN:MAX:STEPS")
            p.add_argument("--gamma-range", dest="gamma_range", help="MIN:MAX:STEPS")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RegimeRejected, NearDegenerate, ZeroCoupling, GaugeDegenerate) as exc:
        print(f"regime rejected: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except (SingularMatrix, NotSPD, SeriesOverflow) as exc:
        print(f"numerical refusal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_REGIME


if __name__ == "__main__":
    sys.exit(main())
