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
forensics), then calls the subcommand's runner from ``_RUNNERS``, the one list
of subcommands.  A runner takes ``(cfg, out, pins)`` and returns its exit code
and its report; ``run`` alone writes the report, when there is one, to
``report.json``.  ``trajectory.csv`` and ``report.json`` are deterministic for
a fixed config and seed.  Exit codes: 0 success (including blow-up, which is a
valid outcome and lands in the metadata), 1 violated assertion, 2 bad input
(including a datum whose norms leave the float range).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass, replace
from operator import attrgetter
from pathlib import Path
from types import UnionType
from typing import Callable, get_args, get_type_hints

import numpy as np

from . import __version__
from .analyticity import (
    CalibrationError,
    RadiusRecord,
    WindowError,
    _closed_window,
    _log10_window,
    calibrate_radius_constant,
    lifespan_bounds,
    track_radius,
    window_norm,
)
from .integrate import (
    BlowUpError,
    ContinuitySpec,
    ExperimentError,
    PicardSpec,
    SolverConfig,
    continuity_experiment,
    integrate,
    picard_iterate,
)
from .model import ModelParams
from .spectral import (
    GevreyIndex,
    NonFiniteError,
    NormOverflowError,
    SpectralField,
    TorusGrid,
    field_from_modes,
    to_spectral,
)
from .verify import (
    PACKAGED_PINS,
    EmpiricalConstants,
    compute_pins,
    load_pins,
    run_all_suites,
    save_pins,
)

CSV_HEADER = "t,sobolev,gevrey,delta_fit,delta_theory,f,b,H"
GENERATORS = ("cosine", "gaussian_bump", "exp_decay_modes", "coeff_file")


class ConfigError(ValueError):
    """Invalid or ill-typed configuration; the message starts with the dotted key."""


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

    def __post_init__(self):
        if self.name not in GENERATORS:
            raise ValueError(f"name must be one of {', '.join(GENERATORS)}, got {self.name!r}")
        if self.name == "coeff_file" and not Path(self.path or "").is_file():
            raise ValueError(f"path no coefficient file at {self.path!r}")
        for key in ("amplitude", "rate", "width", "center"):
            value = getattr(self, key)
            if not (value is None or math.isfinite(value)):
                raise ValueError(f"{key} must be finite, got {value!r}")
        if self.name == "gaussian_bump" and not self.width > 0.0:  # the others ignore width
            raise ValueError(f"width must be positive, got {self.width!r}")

    def build(self, grid: TorusGrid) -> SpectralField:
        if self.name == "cosine":
            # amplitude * cos(k_mode x) <-> half the amplitude on +-mode; the
            # constant (mode 0) holds the full amplitude, and mode +-n/2 is rejected
            coeff = self.amplitude if self.mode == 0 else self.amplitude / 2.0
            try:
                return field_from_modes(grid, {self.mode: coeff})
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
            try:
                with np.errstate(over="ignore"):  # overflow shows as non-finite samples
                    return to_spectral(self.amplitude * samples, grid)
            except NonFiniteError as err:
                raise ConfigError(f"initial_data.amplitude: {self.amplitude} overflows") from err
        if self.name == "exp_decay_modes":
            try:  # a negative rate grows with the mode, and may pass the float range
                amps = {
                    m: self.amplitude
                    * math.exp(-self.rate * abs(2.0 * math.pi * m / grid.period))
                    for m in range(grid.n_points // 2)
                }
                return field_from_modes(grid, amps)
            except (OverflowError, NonFiniteError) as err:
                raise ConfigError(f"initial_data.rate: {self.rate} overflows the modes") from err
        return self._from_file(grid)  # coeff_file

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
                if not (math.isfinite(re_part) and math.isfinite(im_part)):
                    raise ConfigError(f"initial_data.path: line {lineno} is not finite")
                if mode == 0 and im_part != 0.0:  # the mean of a real field is real
                    raise ConfigError(f"initial_data.path: line {lineno}, mode 0, is not real")
                if mode >= grid.n_points // 2:  # slot n/2 holds zero
                    raise ConfigError(
                        f"initial_data.path: line {lineno} exceeds the modes 0 .. n/2 - 1 "
                        f"of an n_points={grid.n_points} grid"
                    )
                amps[mode] = complex(re_part, im_part)
                mode += 1
        if not amps:
            raise ConfigError("initial_data.path: no coefficients found")
        return field_from_modes(grid, amps)


# --- config ingestion -----------------------------------------------------------
# One reader per kind of value: each takes the dotted key and the raw JSON value
# and returns the typed value or raises ConfigError naming the key.  A reader
# checks the JSON type only; the dataclass that holds the value checks its range.


def _number(key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer literal past the float range
        return math.inf


def _integer(key: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    return value


def _text(key: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key}: expected a string, got {value!r}")
    return value


def _numbers(key: str, value) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key}: expected a list, got {value!r}")
    return tuple(_number(key, v) for v in value)


# the reader of each field type; an optional type reads as its inner type
_READERS = {
    float: _number, int: _integer, str: _text, tuple[float, ...]: _numbers,
    Path: lambda key, value: Path(_text(key, value)),
}
# JSON keys that differ from their field names
_RENAMED = {"Gamma_coef": "Gamma", "lam": "lambda"}


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    """Fully resolved run, and the one description of the config: each field
    is a key (a dataclass field a section), each default its value when left out;
    each dataclass checks its ranges, so one built in code is checked as a parsed one."""

    subcommand: str = "simulate"
    model: ModelParams = ModelParams()
    grid: TorusGrid = TorusGrid(256)
    gevrey: GevreyIndex = GevreyIndex(1.0, 0.5, 2.0)
    solver: SolverConfig = SolverConfig(0.01, 1.0, s_monitor=None)  # None: gevrey.s
    initial_data: InitialDataSpec
    output_dir: Path = Path(".")
    seed: int = 42
    c_prime: float = 1.0
    picard: PicardSpec = PicardSpec()
    continuity: ContinuitySpec = ContinuitySpec()

    def __post_init__(self):
        if self.subcommand not in _RUNNERS:
            choices = ", ".join(SUBCOMMANDS)
            raise ValueError(f"subcommand must be one of {choices}, got {self.subcommand!r}")
        if not 0.0 < self.c_prime < math.inf:
            raise ValueError(f"c_prime must be positive and finite, got {self.c_prime!r}")
        sub, delta, s = self.subcommand, self.gevrey.delta, self.gevrey.s
        if sub == "verify" and self.seed < 0:  # the only subcommand that seeds
            raise ValueError(f"seed must be nonnegative for verify, got {self.seed!r}")
        mode, half = self.continuity.mode, self.grid.n_points // 2
        if sub == "continuity" and not abs(mode) < half:  # slot n/2 holds zero
            raise ValueError(
                f"continuity.mode must lie in (-{half}, {half}) for continuity, got {mode!r}"
            )
        if sub in ("simulate", "radius"):  # width_bound and functional_H need these
            if not 0.0 < delta < 1.0:
                raise ValueError(f"gevrey.delta must lie in (0, 1) for {sub}, got {delta!r}")
            if not s > 1.5:
                raise ValueError(f"gevrey.s must exceed 3/2 for {sub}, got {s!r}")
        if self.solver.s_monitor is None:
            object.__setattr__(self, "solver", replace(self.solver, s_monitor=s))


@functools.cache
def _hints(cls) -> dict:
    """Each field's type, with an optional ``X | None`` unwrapped to ``X``."""
    hints = get_type_hints(cls)
    return {name: get_args(h)[0] if isinstance(h, UnionType) else h for name, h in hints.items()}


def _section(cls, blob, prefix: str, base):
    """Build ``cls`` from the JSON object ``blob``: each field reads its key
    through the reader of its type, and a dataclass field reads a nested
    section.  A key left out takes its value from ``base`` (the class default
    where ``base`` has none); an explicit null keeps an optional key unset.
    ``prefix`` dots the keys that error messages name."""
    if not isinstance(blob, dict):
        raise ConfigError(f"{prefix[:-1]}: expected an object, got {type(blob).__name__}")
    unread = dict(blob)
    kwargs = {}
    for f in fields(cls):
        name = _RENAMED.get(f.name, f.name)
        key, hint = prefix + name, _hints(cls)[f.name]
        default = getattr(base, f.name, f.default)
        if is_dataclass(hint):
            kwargs[f.name] = _section(hint, unread.pop(name, {}), key + ".", default)
        elif name in unread:
            value = unread.pop(name)
            if value is not None or default is not None:
                value = _READERS[hint](key, value)
            kwargs[f.name] = value
        elif default is MISSING:
            raise ConfigError(f"{key}: required key is missing")
        else:
            kwargs[f.name] = default
    for name in unread:
        warnings.warn(f"unknown config key {prefix}{name} ignored", stacklevel=2)
    try:
        return cls(**kwargs)
    except ValueError as err:  # each dataclass names the field first
        name, _, reason = str(err).partition(" ")
        raise ConfigError(f"{prefix}{_RENAMED.get(name, name)}: {reason}") from err


# the trajectory.csv columns are RadiusRecord's fields, in order
_CSV_ROW = attrgetter(*(f.name for f in fields(RadiusRecord)))
_CSV_FORMAT = ",".join(["%.17g"] * len(fields(RadiusRecord)))


def parse_config(path, **overrides) -> RunConfig:
    """Read a JSON config into a RunConfig, which declares its defaults and ranges.

    ``overrides`` (the command line's) replace top-level keys of the file
    before any key is read, so they are checked as the file's values are; a
    file whose ``subcommand`` they replace warns, unless it names the default.
    Missing, ill-typed or out-of-range values raise ConfigError naming the
    dotted key; unknown keys only warn, so configs stay forward compatible.
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
    named = _text("subcommand", blob.get("subcommand", "simulate"))
    running = overrides.get("subcommand", named)
    if named not in (running, "simulate"):  # explicit conflicting value in the file
        warnings.warn(
            f"config names subcommand {named!r}; running {running!r} from the command line"
        )
    return _section(RunConfig, {**blob, **overrides}, "", None)


# --- artifact writers -----------------------------------------------------------


def _config_blob(cfg) -> dict:
    """The resolved config as nested JSON sections, the inverse of _section."""
    blob = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            value = _config_blob(value)
        blob[_RENAMED.get(f.name, f.name)] = str(value) if isinstance(value, Path) else value
    return blob


def _strict(value):
    """Non-finite floats become null, so every artifact parses as strict JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _strict(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def _write_json(path: Path, blob: dict) -> None:
    text = json.dumps(_strict(blob), indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def _write_metadata(out: Path, cfg: RunConfig, pins: EmpiricalConstants, **extra) -> None:
    blob = {
        "version": __version__,
        "config": _config_blob(cfg),
        "pinned_constants": asdict(pins),
        "blowup_time": None,
        **extra,
    }
    _write_json(out / "metadata.json", blob)


def _write_trajectory_csv(path: Path, records) -> None:
    lines = [CSV_HEADER] + [_CSV_FORMAT % _CSV_ROW(r) for r in records]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# --- subcommands ----------------------------------------------------------------


def _march(cfg: RunConfig, out: Path, pins, diagnose: Callable) -> tuple:
    """Run the solver and ``diagnose`` the recorded trajectory.  On blow-up
    keep the partial trajectory and stamp the blow-up time into the metadata;
    a nearly blown-up state can overflow the weighted norms, and then the
    diagnostics are None.  Returns (diagnostics, blowup_time)."""
    u0 = cfg.initial_data.build(cfg.grid)
    try:
        traj, blowup_time = integrate(u0, cfg.model, cfg.solver), None
    except BlowUpError as err:
        _write_metadata(out, cfg, pins, blowup_time=err.time)
        traj, blowup_time = err.trajectory, err.time
    try:
        return diagnose(traj), blowup_time
    except NormOverflowError:
        if blowup_time is None:
            raise
        return None, blowup_time


def _run_simulate(cfg: RunConfig, out: Path, pins) -> tuple:
    sigma, s, delta0 = cfg.gevrey.sigma, cfg.gevrey.s, cfg.gevrey.delta
    records, blowup_time = _march(
        cfg, out, pins, lambda traj: track_radius(traj, cfg.model, sigma, s, delta0, c_cal=1.0)
    )
    _write_trajectory_csv(out / "trajectory.csv", records or [])
    if blowup_time is not None:
        print(f"blow-up at t = {blowup_time:.6g}; partial trajectory written")
    else:
        final = records[-1]
        print(
            f"integrated to t = {final.t:.6g}: "
            f"sobolev = {final.sobolev_s:.6e}, H = {final.H_val:.6e}"
        )
    return 0, None


def _run_verify(cfg: RunConfig, out: Path, pins) -> tuple:
    reports = run_all_suites(seed=cfg.seed, pins=pins)
    for report in reports:
        print(report.line())
    return (1 if any(r.status == "fail" for r in reports) else 0), {
        r.suite: {"cases": r.cases, "violations": r.violations, "worst_ratio": r.worst_ratio}
        for r in reports
    }


def _run_lifespan(cfg: RunConfig, out: Path, pins) -> tuple:
    u0 = cfg.initial_data.build(cfg.grid)
    sigma = cfg.gevrey.sigma
    norm = window_norm(u0, sigma, cfg.gevrey.s)
    report = {"u0_norm": norm, "sigma": sigma, "c_prime": cfg.c_prime}
    print(f"datum norm        = {norm:.6e}")
    try:
        bounds = lifespan_bounds(norm, sigma, cfg.c_prime)
    except NormOverflowError:
        if norm == math.inf:
            raise
        # the window underflows: its closed form still has a logarithm
        log10_t0 = _log10_window(norm, sigma, cfg.c_prime)
        print(f"T0                = 10^{log10_t0:.6g}, below the float range")
        try:  # the zero datum's window: does the datum or the closed form underflow?
            _closed_window(1.0, sigma, cfg.c_prime)
            print("the datum is far outside the width-1 Gevrey class")
        except NormOverflowError:
            print("the closed form underflows at this sigma and c_prime for any datum")
        return 0, {**report, "T0_closed_form": None, "log10_T0": log10_t0}
    print(f"T0                = {bounds.T0_closed_form:.6e}")
    print(
        f"L = {bounds.L:.6e}, M = {bounds.M:.6e}, "
        f"R = {bounds.R:.6g}, D_sigma = {bounds.D_sigma:.6g}"
    )
    return 0, {**report, **asdict(bounds)}


def _run_radius(cfg: RunConfig, out: Path, pins) -> tuple:
    sigma, s, delta0 = cfg.gevrey.sigma, cfg.gevrey.s, cfg.gevrey.delta
    try:
        result, blowup_time = _march(
            cfg,
            out,
            pins,
            lambda traj: calibrate_radius_constant(
                traj, cfg.model, sigma, s, delta0, c_algebra=pins.C_s_algebra
            ),
        )
    except CalibrationError as err:
        print(f"calibration failed: {err}", file=sys.stderr)
        return 1, None
    c_cal, records = result or (None, [])
    final = records[-1] if records else None
    _write_trajectory_csv(out / "trajectory.csv", records)
    if final is None:
        print(f"blow-up at t = {blowup_time:.6g}; the norms overflowed, nothing to calibrate")
    else:
        print(
            f"c_cal = {c_cal:.6g}; at t = {final.t:.6g}: "
            f"delta_fit = {final.delta_fit:.6g}, delta_theory = {final.delta_theory:.6g}"
        )
    return 0, {
        "c_cal": c_cal,
        "delta0": delta0,
        "final_delta_fit": final.delta_fit if final else None,
        "final_delta_theory": final.delta_theory if final else None,
        "blowup_time": blowup_time,
    }


def _run_continuity(cfg: RunConfig, out: Path, pins) -> tuple:
    limit = cfg.initial_data.build(cfg.grid)
    sigma, s, spec = cfg.gevrey.sigma, cfg.gevrey.s, cfg.continuity
    try:
        report = continuity_experiment(limit, cfg.model, sigma, s, cfg.solver, spec, cfg.c_prime)
    except ExperimentError as err:
        print(f"continuity experiment failed: {err}", file=sys.stderr)
        return 1, None
    for amp, dist, bound in zip(spec.amplitudes, report.distances, report.bounds):
        print(f"amplitude {amp:.3e}: distance = {dist:.6e} (bound {bound:.6e})")
    return (0 if all(report.within_bounds) else 1), {
        "horizon": report.T,
        "amplitudes": list(spec.amplitudes),
        "distances": report.distances,
        "bounds": report.bounds,
        "within_bounds": report.within_bounds,
    }


def _run_picard(cfg: RunConfig, out: Path, pins) -> tuple:
    u0 = cfg.initial_data.build(cfg.grid)
    try:
        result = picard_iterate(
            u0, cfg.model, cfg.gevrey.sigma, cfg.gevrey.s, cfg.picard, c_prime=cfg.c_prime
        )
    except WindowError as err:
        raise ConfigError(f"picard.horizon: {err}") from err
    print("differences:", " ".join(f"{d:.3e}" for d in result.diffs))
    print("ratios:     ", " ".join(f"{r:.4f}" for r in result.ratios))
    if result.converged_at is not None:
        print(f"converged to the difference floor at iterate {result.converged_at}")
    return (0 if result.diverged_at is None else 1), {
        "horizon": result.horizon,
        "diffs": result.diffs,
        "ratios": result.ratios,
        "floor": result.floor,
        "converged_at": result.converged_at,
        "diverged_at": result.diverged_at,
    }


# the one list of subcommands: argparse's choices and RunConfig's check read it
_RUNNERS = {
    "simulate": _run_simulate,
    "verify": _run_verify,
    "lifespan": _run_lifespan,
    "radius": _run_radius,
    "continuity": _run_continuity,
    "picard": _run_picard,
}
SUBCOMMANDS = tuple(_RUNNERS)


def run(cfg: RunConfig, pins: EmpiricalConstants | None = None) -> int:
    """Run a checked RunConfig: write its metadata, call its runner, write its report."""
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    if pins is None:
        pins = load_pins()
    _write_metadata(out, cfg, pins)
    code, report = _RUNNERS[cfg.subcommand](cfg, out, pins)
    if report is not None:
        _write_json(out / "report.json", report)
    return code


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


def _resolve(args) -> tuple[RunConfig, EmpiricalConstants | None]:
    """The run's config and pins from the parsed command line; any bad input
    raises ConfigError, before ``run`` writes anything."""
    if args.update_pins and args.subcommand != "verify":
        raise ConfigError(f"--update-pins is for verify, not {args.subcommand}")
    flags = {"subcommand": args.subcommand, "seed": args.seed, "output_dir": args.out}
    cfg = parse_config(args.config, **{key: v for key, v in flags.items() if v is not None})
    pins = None
    try:
        if args.update_pins:
            pins = compute_pins(cfg.seed)
            target = args.pins or PACKAGED_PINS
            save_pins(pins, target)
            print(f"pins recomputed on seed {cfg.seed} and written to {target}")
        elif args.pins is not None:
            pins = load_pins(args.pins)
    except (OSError, ValueError, KeyError, TypeError) as err:
        raise ConfigError(f"cannot load pins: {err}") from err
    return cfg, pins


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return run(*_resolve(args))
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except NormOverflowError as err:  # the datum is too large for the float range
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
