"""Command-line front end: JSON config in, CSV/JSON artifacts out.

Subcommands
-----------
simulate    integrate the flow and write per-time diagnostics
verify      run the inequality suites against the pinned constants
lifespan    evaluate the existence-window formulas for the configured datum
radius      calibrate and march the width ODE along a run, with decay fits
continuity  integrate perturbed data and compare against the limit run
picard      run the fixed-point iteration and report contraction ratios

Every run resolves its configuration, writes ``metadata.json`` first (crash
forensics), then dispatches.  ``trajectory.csv`` and ``report.json`` are
deterministic for a fixed config and seed.  Exit codes: 0 success (including
blow-up, which is a valid outcome and lands in the metadata), 1 violated
assertion, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analyticity import (
    CalibrationError,
    ExperimentError,
    calibrate_radius_constant,
    continuity_experiment,
    lifespan_bounds,
    track_radius,
)
from .integrate import BlowUpError, SolverConfig, integrate, picard_iterate
from .model import ModelParams
from .spectral import (
    GevreyIndex,
    NormOverflowError,
    SpectralField,
    TorusGrid,
    field_from_modes,
    gevrey_norm,
    to_spectral,
)
from .verify import (
    EmpiricalConstants,
    compute_pins,
    load_pins,
    run_all_suites,
    save_pins,
)

SUBCOMMANDS = ("simulate", "verify", "lifespan", "radius", "continuity", "picard")
CSV_HEADER = "t,sobolev,gevrey,delta_fit,delta_theory,f,b,H"
GENERATORS = ("cosine", "gaussian_bump", "exp_decay_modes", "coeff_file")


class ConfigError(ValueError):
    """Invalid or ill-typed configuration; the message names the field."""


# --- config ingestion -----------------------------------------------------------


def _require_dict(blob, field: str) -> dict:
    value = blob.get(field, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{field}: expected an object, got {type(value).__name__}")
    return dict(value)


def _label(field: str, key: str) -> str:
    return f"{field}.{key}" if field else key


def _pop_number(section: dict, field: str, key: str, default: float) -> float:
    value = section.pop(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{_label(field, key)}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{_label(field, key)}: must be finite, got {value!r}")
    return float(value)


def _pop_int(section: dict, field: str, key: str, default: int) -> int:
    value = section.pop(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{_label(field, key)}: expected an integer, got {value!r}")
    return value


def _pop_bool(section: dict, field: str, key: str, default: bool) -> bool:
    value = section.pop(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{_label(field, key)}: expected true/false, got {value!r}")
    return value


def _warn_unknown(section: dict, field: str) -> None:
    for key in section:
        warnings.warn(f"unknown config key {_label(field, key)} ignored", stacklevel=3)


@dataclass(frozen=True)
class InitialDataSpec:
    """Named initial-datum generator, or an explicit coefficient file."""

    name: str
    amplitude: float = 1.0
    mode: int = 1
    rate: float = 1.0
    width: float = 0.5
    center: float | None = None
    path: str | None = None

    def build(self, grid: TorusGrid) -> SpectralField:
        if self.name == "cosine":
            # amplitude * cos(k_mode x) <-> half the amplitude on +-mode;
            # mode 0 degenerates to the constant and keeps the full amplitude
            half_amp = self.amplitude if self.mode == 0 else self.amplitude / 2.0
            try:
                return field_from_modes(grid, {self.mode: half_amp})
            except ValueError as err:
                raise ConfigError(f"initial_data.mode: {err}") from err
        if self.name == "gaussian_bump":
            center = self.center if self.center is not None else grid.period / 2.0
            x = grid.x
            samples = np.zeros_like(x)
            for j in range(-6, 7):  # periodized over enough copies to converge
                samples += np.exp(
                    -((x - center - j * grid.period) ** 2) / (2.0 * self.width**2)
                )
            return to_spectral(self.amplitude * samples, grid)
        if self.name == "exp_decay_modes":
            half = grid.n_points // 2
            amps = {
                m: self.amplitude
                * math.exp(-self.rate * abs(2.0 * math.pi * m / grid.period))
                for m in range(half + 1)
            }
            return field_from_modes(grid, amps)
        if self.name == "coeff_file":
            return self._from_file(grid)
        raise ConfigError(
            f"initial_data.name: unknown generator {self.name!r}; "
            f"choose one of {', '.join(GENERATORS)}"
        )

    def _from_file(self, grid: TorusGrid) -> SpectralField:
        amps: dict[int, complex] = {}
        mode = 0
        with open(self.path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) != 2:
                    raise ConfigError(
                        f"initial_data.path: line {lineno} is not 're im'"
                    )
                try:
                    re_part, im_part = float(parts[0]), float(parts[1])
                except ValueError as err:
                    raise ConfigError(
                        f"initial_data.path: line {lineno}: {err}"
                    ) from err
                if mode > grid.n_points // 2:
                    raise ConfigError(
                        f"initial_data.path: line {lineno} exceeds the mode band "
                        f"of an n_points={grid.n_points} grid"
                    )
                amps[mode] = complex(re_part, im_part)
                mode += 1
        if not amps:
            raise ConfigError("initial_data.path: no coefficients found")
        return field_from_modes(grid, amps)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description (defaults applied, ranges checked)."""

    subcommand: str
    model: ModelParams
    grid: TorusGrid
    solver: SolverConfig
    gevrey: GevreyIndex
    initial_data: InitialDataSpec
    output_dir: Path
    seed: int = 42
    c_prime: float = 1.0
    picard_iters: int = 8
    picard_nodes: int = 129
    picard_horizon: float | None = None
    continuity_mode: int = 2
    continuity_amplitudes: tuple = (0.1, 0.01, 0.001, 0.0001)
    continuity_budget: float = 1e-6


def parse_config(path) -> RunConfig:
    """Read a JSON config, fill defaults, and validate every field.

    Missing or ill-typed fields raise ConfigError naming the field; unknown
    keys only warn, so configs stay forward compatible.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            blob = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    if not isinstance(blob, dict):
        raise ConfigError("config must be a JSON object")
    blob = dict(blob)

    subcommand = blob.pop("subcommand", "simulate")
    if subcommand not in SUBCOMMANDS:
        raise ConfigError(
            f"subcommand: {subcommand!r} is not one of {', '.join(SUBCOMMANDS)}"
        )

    model_sec = _require_dict(blob, "model")
    blob.pop("model", None)
    lam = _pop_number(model_sec, "model", "lambda", 1.0)
    if lam <= 0.0:
        raise ConfigError("model.lambda: the dissipation rate must be positive")
    epsilon = _pop_number(model_sec, "model", "epsilon", 0.1)
    if epsilon <= 0.0:
        raise ConfigError("model.epsilon: the smallness threshold must be positive")
    model = ModelParams(
        alpha=_pop_number(model_sec, "model", "alpha", 0.0),
        beta=_pop_number(model_sec, "model", "beta", 0.0),
        gamma=_pop_number(model_sec, "model", "gamma", 0.0),
        Gamma_coef=_pop_number(model_sec, "model", "Gamma", 0.0),
        lam=lam,
        epsilon=epsilon,
    )
    _warn_unknown(model_sec, "model")

    grid_sec = _require_dict(blob, "grid")
    blob.pop("grid", None)
    n_points = _pop_int(grid_sec, "grid", "n_points", 256)
    period = _pop_number(grid_sec, "grid", "period", 2.0 * math.pi)
    _warn_unknown(grid_sec, "grid")
    try:
        grid = TorusGrid(n_points, period)
    except ValueError as err:
        raise ConfigError(f"grid: {err}") from err

    gevrey_sec = _require_dict(blob, "gevrey")
    blob.pop("gevrey", None)
    sigma = _pop_number(gevrey_sec, "gevrey", "sigma", 1.0)
    if sigma < 1.0:
        raise ConfigError("gevrey.sigma: the Gevrey exponent must be at least 1")
    delta = _pop_number(gevrey_sec, "gevrey", "delta", 0.5)
    s = _pop_number(gevrey_sec, "gevrey", "s", 2.0)
    _warn_unknown(gevrey_sec, "gevrey")
    try:
        gevrey = GevreyIndex(sigma, delta, s)
    except ValueError as err:
        raise ConfigError(f"gevrey: {err}") from err

    solver_sec = _require_dict(blob, "solver")
    blob.pop("solver", None)
    try:
        solver = SolverConfig(
            dt=_pop_number(solver_sec, "solver", "dt", 0.01),
            t_end=_pop_number(solver_sec, "solver", "t_end", 1.0),
            record_every=_pop_int(solver_sec, "solver", "record_every", 1),
            dealias=_pop_bool(solver_sec, "solver", "dealias", True),
            s_monitor=_pop_number(solver_sec, "solver", "s_monitor", gevrey.s),
        )
    except ValueError as err:
        raise ConfigError(f"solver: {err}") from err
    _warn_unknown(solver_sec, "solver")

    data_sec = _require_dict(blob, "initial_data")
    if "initial_data" not in blob:
        raise ConfigError("initial_data: required section is missing")
    blob.pop("initial_data", None)
    name = data_sec.pop("name", None)
    if not isinstance(name, str):
        raise ConfigError("initial_data.name: expected a generator name string")
    data_path = data_sec.pop("path", None)
    if name == "coeff_file":
        if not isinstance(data_path, str):
            raise ConfigError("initial_data.path: coeff_file needs a file path")
        if not Path(data_path).is_file():
            raise ConfigError(f"initial_data.path: no such file: {data_path}")
    center = data_sec.pop("center", None)
    if center is not None and (isinstance(center, bool) or not isinstance(center, (int, float))):
        raise ConfigError(f"initial_data.center: expected a number, got {center!r}")
    initial_data = InitialDataSpec(
        name=name,
        amplitude=_pop_number(data_sec, "initial_data", "amplitude", 1.0),
        mode=_pop_int(data_sec, "initial_data", "mode", 1),
        rate=_pop_number(data_sec, "initial_data", "rate", 1.0),
        width=_pop_number(data_sec, "initial_data", "width", 0.5),
        center=None if center is None else float(center),
        path=data_path,
    )
    if name not in GENERATORS:
        raise ConfigError(
            f"initial_data.name: unknown generator {name!r}; "
            f"choose one of {', '.join(GENERATORS)}"
        )
    _warn_unknown(data_sec, "initial_data")

    output_dir = blob.pop("output_dir", ".")
    if not isinstance(output_dir, str):
        raise ConfigError(f"output_dir: expected a path string, got {output_dir!r}")
    seed = _pop_int(blob, "", "seed", 42)
    c_prime = _pop_number(blob, "", "c_prime", 1.0)
    if c_prime <= 0.0:
        raise ConfigError("c_prime: must be positive")

    picard_sec = _require_dict(blob, "picard")
    blob.pop("picard", None)
    picard_iters = _pop_int(picard_sec, "picard", "n_iters", 8)
    picard_nodes = _pop_int(picard_sec, "picard", "n_nodes", 129)
    horizon = picard_sec.pop("horizon", None)
    if horizon is not None:
        if isinstance(horizon, bool) or not isinstance(horizon, (int, float)):
            raise ConfigError(f"picard.horizon: expected a number, got {horizon!r}")
        if not horizon > 0.0:
            raise ConfigError("picard.horizon: must be positive")
    _warn_unknown(picard_sec, "picard")

    cont_sec = _require_dict(blob, "continuity")
    blob.pop("continuity", None)
    cont_mode = _pop_int(cont_sec, "continuity", "mode", 2)
    cont_budget = _pop_number(cont_sec, "continuity", "budget", 1e-6)
    amps = cont_sec.pop("amplitudes", [0.1, 0.01, 0.001, 0.0001])
    if not isinstance(amps, list) or not amps:
        raise ConfigError("continuity.amplitudes: expected a non-empty list")
    for a in amps:
        if isinstance(a, bool) or not isinstance(a, (int, float)):
            raise ConfigError(f"continuity.amplitudes: expected numbers, got {a!r}")
    _warn_unknown(cont_sec, "continuity")

    _warn_unknown(blob, "config")
    return RunConfig(
        subcommand=subcommand,
        model=model,
        grid=grid,
        solver=solver,
        gevrey=gevrey,
        initial_data=initial_data,
        output_dir=Path(output_dir),
        seed=seed,
        c_prime=c_prime,
        picard_iters=picard_iters,
        picard_nodes=picard_nodes,
        picard_horizon=None if horizon is None else float(horizon),
        continuity_mode=cont_mode,
        continuity_amplitudes=tuple(float(a) for a in amps),
        continuity_budget=cont_budget,
    )


# --- artifact writers -----------------------------------------------------------


def _config_blob(cfg: RunConfig) -> dict:
    return {
        "subcommand": cfg.subcommand,
        "model": {
            "alpha": cfg.model.alpha,
            "beta": cfg.model.beta,
            "gamma": cfg.model.gamma,
            "Gamma": cfg.model.Gamma_coef,
            "lambda": cfg.model.lam,
            "epsilon": cfg.model.epsilon,
        },
        "grid": {"n_points": cfg.grid.n_points, "period": cfg.grid.period},
        "solver": {
            "dt": cfg.solver.dt,
            "t_end": cfg.solver.t_end,
            "record_every": cfg.solver.record_every,
            "dealias": cfg.solver.dealias,
            "s_monitor": cfg.solver.s_monitor,
        },
        "gevrey": {
            "sigma": cfg.gevrey.sigma,
            "delta": cfg.gevrey.delta,
            "s": cfg.gevrey.s,
        },
        "initial_data": {
            "name": cfg.initial_data.name,
            "amplitude": cfg.initial_data.amplitude,
            "mode": cfg.initial_data.mode,
            "rate": cfg.initial_data.rate,
            "width": cfg.initial_data.width,
            "center": cfg.initial_data.center,
            "path": cfg.initial_data.path,
        },
        "output_dir": str(cfg.output_dir),
        "seed": cfg.seed,
        "c_prime": cfg.c_prime,
        "picard": {
            "n_iters": cfg.picard_iters,
            "n_nodes": cfg.picard_nodes,
            "horizon": cfg.picard_horizon,
        },
        "continuity": {
            "mode": cfg.continuity_mode,
            "amplitudes": list(cfg.continuity_amplitudes),
            "budget": cfg.continuity_budget,
        },
    }


def _write_json(path: Path, blob: dict) -> None:
    path.write_text(json.dumps(blob, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_metadata(
    out: Path, cfg: RunConfig, pins: EmpiricalConstants, **extra
) -> None:
    blob = {
        "version": __version__,
        "config": _config_blob(cfg),
        "pinned_constants": {
            "C_s_algebra": pins.C_s_algebra,
            "C_bar_s": pins.C_bar_s,
            "C_sym_lemma": pins.C_sym_lemma,
            "C_commutator": pins.C_commutator,
            "pin_date_metadata": pins.pin_date_metadata,
        },
        "blowup_time": None,
    }
    blob.update(extra)
    _write_json(out / "metadata.json", blob)


def _write_trajectory_csv(path: Path, records) -> None:
    lines = [CSV_HEADER]
    for r in records:
        row = (
            r.t,
            r.sobolev_s,
            r.gevrey_at_delta_theory,
            r.delta_fit,
            r.delta_theory,
            r.f_val,
            r.b_val,
            r.H_val,
        )
        lines.append(",".join(f"{v:.17g}" for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# --- subcommands ----------------------------------------------------------------


def _integrate_with_forensics(cfg: RunConfig, out: Path, pins) -> tuple:
    """Run the solver; on blow-up keep the partial trajectory and stamp the
    blow-up time into the metadata.  Returns (trajectory, blowup_time)."""
    u0 = cfg.initial_data.build(cfg.grid)
    try:
        return integrate(u0, cfg.model, cfg.solver), None
    except BlowUpError as err:
        _write_metadata(out, cfg, pins, blowup_time=err.time)
        return err.trajectory, err.time


def _run_simulate(cfg: RunConfig, out: Path, pins) -> int:
    traj, blowup_time = _integrate_with_forensics(cfg, out, pins)
    records = []
    if traj is not None and traj.states:
        try:
            records = track_radius(
                traj,
                cfg.model,
                cfg.gevrey.sigma,
                cfg.gevrey.s,
                delta0=cfg.gevrey.delta,
                c_cal=1.0,
            )
        except NormOverflowError:
            # a nearly blown-up state can overflow the weighted norms; the
            # blow-up itself is already recorded, so emit an empty table
            if blowup_time is None:
                raise
            records = []
    _write_trajectory_csv(out / "trajectory.csv", records)
    if blowup_time is not None:
        print(f"blow-up at t = {blowup_time:.6g}; partial trajectory written")
    else:
        final = records[-1]
        print(
            f"integrated to t = {final.t:.6g}: "
            f"sobolev = {final.sobolev_s:.6e}, H = {final.H_val:.6e}"
        )
    return 0


def _run_verify(cfg: RunConfig, out: Path, pins) -> int:
    reports = run_all_suites(seed=cfg.seed, pins=pins)
    for report in reports:
        print(report.line())
    blob = {
        r.suite: {
            "cases": r.cases,
            "violations": r.violations,
            "worst_ratio": r.worst_ratio,
        }
        for r in reports
    }
    _write_json(out / "report.json", blob)
    return 1 if any(r.status == "fail" for r in reports) else 0


def _run_lifespan(cfg: RunConfig, out: Path) -> int:
    u0 = cfg.initial_data.build(cfg.grid)
    norm = gevrey_norm(u0, cfg.gevrey)
    bounds = lifespan_bounds(norm, cfg.gevrey.sigma, cfg.c_prime)
    print(f"datum norm        = {norm:.6e}")
    print(f"T0 (closed form)  = {bounds.T0_closed_form:.6e}")
    print(f"T0 (min form)     = {bounds.T0_min_formula:.6e}")
    print(
        f"L = {bounds.L:.6e}, M = {bounds.M:.6e}, "
        f"R = {bounds.R:.6g}, D_sigma = {bounds.D_sigma:.6g}"
    )
    _write_json(
        out / "report.json",
        {
            "u0_norm": norm,
            "sigma": cfg.gevrey.sigma,
            "c_prime": cfg.c_prime,
            "T0_closed_form": bounds.T0_closed_form,
            "T0_min_formula": bounds.T0_min_formula,
            "L": bounds.L,
            "M": bounds.M,
            "R": bounds.R,
            "D_sigma": bounds.D_sigma,
        },
    )
    return 0


def _run_radius(cfg: RunConfig, out: Path, pins) -> int:
    traj, blowup_time = _integrate_with_forensics(cfg, out, pins)
    if traj is None or not traj.states:
        print("blow-up before the first record; nothing to track", file=sys.stderr)
        return 1
    sigma, s, delta0 = cfg.gevrey.sigma, cfg.gevrey.s, cfg.gevrey.delta
    try:
        c_cal = calibrate_radius_constant(
            traj, cfg.model, sigma, s, delta0, c_algebra=pins.C_s_algebra
        )
    except CalibrationError as err:
        print(f"calibration failed: {err}", file=sys.stderr)
        return 1
    records = track_radius(traj, cfg.model, sigma, s, delta0, c_cal)
    _write_trajectory_csv(out / "trajectory.csv", records)
    final = records[-1]
    _write_json(
        out / "report.json",
        {
            "c_cal": c_cal,
            "delta0": delta0,
            "final_delta_fit": final.delta_fit,
            "final_delta_theory": final.delta_theory,
            "blowup_time": blowup_time,
        },
    )
    print(
        f"c_cal = {c_cal:.6g}; at t = {final.t:.6g}: "
        f"delta_fit = {final.delta_fit:.6g}, delta_theory = {final.delta_theory:.6g}"
    )
    return 0


def _run_continuity(cfg: RunConfig, out: Path) -> int:
    limit = cfg.initial_data.build(cfg.grid)
    bumps = [
        field_from_modes(cfg.grid, {cfg.continuity_mode: amp / 2.0})
        for amp in cfg.continuity_amplitudes
    ]
    sequence = [limit + bump for bump in bumps]
    try:
        report = continuity_experiment(
            sequence,
            limit,
            cfg.model,
            cfg.gevrey.sigma,
            cfg.gevrey.s,
            cfg.solver,
            c_prime=cfg.c_prime,
            budget=cfg.continuity_budget,
        )
    except ExperimentError as err:
        print(f"continuity experiment failed: {err}", file=sys.stderr)
        return 1
    for amp, dist, bound in zip(
        cfg.continuity_amplitudes, report.distances, report.bounds
    ):
        print(f"amplitude {amp:.3e}: distance = {dist:.6e} (bound {bound:.6e})")
    _write_json(
        out / "report.json",
        {
            "horizon": report.T,
            "amplitudes": list(cfg.continuity_amplitudes),
            "distances": report.distances,
            "bounds": report.bounds,
            "within_bounds": report.within_bounds,
        },
    )
    return 0 if all(report.within_bounds) else 1


def _run_picard(cfg: RunConfig, out: Path) -> int:
    u0 = cfg.initial_data.build(cfg.grid)
    sigma, s = cfg.gevrey.sigma, cfg.gevrey.s
    horizon = cfg.picard_horizon
    if horizon is None:
        norm0 = gevrey_norm(u0, GevreyIndex(sigma, 1.0, s))
        window = lifespan_bounds(norm0, sigma, cfg.c_prime).T0_closed_form / (
            2.0**sigma - 1.0
        )
        horizon = window / 2.0
    result = picard_iterate(
        u0,
        cfg.model,
        sigma,
        s,
        horizon,
        cfg.picard_iters,
        n_nodes=cfg.picard_nodes,
        c_prime=cfg.c_prime,
        dealias=cfg.solver.dealias,
    )
    print("differences:", " ".join(f"{d:.3e}" for d in result.diffs))
    print("ratios:     ", " ".join(f"{r:.4f}" for r in result.ratios))
    if result.converged_at is not None:
        print(f"converged to the difference floor at iterate {result.converged_at}")
    _write_json(
        out / "report.json",
        {
            "horizon": horizon,
            "diffs": result.diffs,
            "ratios": result.ratios,
            "floor": result.floor,
            "converged_at": result.converged_at,
            "diverged_at": result.diverged_at,
        },
    )
    return 0 if result.diverged_at is None else 1


def run(cfg: RunConfig, pins: EmpiricalConstants | None = None) -> int:
    """Dispatch one subcommand; writes metadata before any long computation."""
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    if pins is None:
        pins = load_pins()
    _write_metadata(out, cfg, pins)
    if cfg.subcommand == "simulate":
        return _run_simulate(cfg, out, pins)
    if cfg.subcommand == "verify":
        return _run_verify(cfg, out, pins)
    if cfg.subcommand == "lifespan":
        return _run_lifespan(cfg, out)
    if cfg.subcommand == "radius":
        return _run_radius(cfg, out, pins)
    if cfg.subcommand == "continuity":
        return _run_continuity(cfg, out)
    if cfg.subcommand == "picard":
        return _run_picard(cfg, out)
    raise ConfigError(f"subcommand: unknown subcommand {cfg.subcommand!r}")


# --- entry point ----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chgevrey",
        description="Spectral simulator and inequality checker for a "
        "dissipative shallow-water flow on the torus.",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", default=None, help="override config output_dir")
    parser.add_argument(
        "--pins", default=None, help="alternate pinned-constants file"
    )
    parser.add_argument(
        "--update-pins",
        action="store_true",
        help="recompute the pinned constants and write them back (verify only)",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    if cfg.subcommand != args.subcommand:
        if cfg.subcommand != "simulate":  # explicit conflicting value in the file
            warnings.warn(
                f"config names subcommand {cfg.subcommand!r}; "
                f"running {args.subcommand!r} from the command line"
            )
        cfg = replace(cfg, subcommand=args.subcommand)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, output_dir=Path(args.out))

    pins: EmpiricalConstants | None = None
    try:
        if args.update_pins:
            pins = compute_pins(cfg.seed)
            target = args.pins or Path(__file__).with_name("pinned_constants.json")
            save_pins(pins, target)
            print(f"pins recomputed on seed {cfg.seed} and written to {target}")
        elif args.pins is not None:
            pins = load_pins(args.pins)
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as err:
        print(f"config error: cannot load pins: {err}", file=sys.stderr)
        return 2

    try:
        return run(cfg, pins=pins)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
