"""Config parsing, generator construction, artifact layout, and exit codes."""

import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chgevrey import (
    ModelParams,
    RadiusRecord,
    SpectralField,
    TorusGrid,
    Trajectory,
    ea_norm,
    existence_window,
    field_from_modes,
    picard_iterate,
    to_physical,
    window_norm,
)
from chgevrey.cli import (
    CSV_HEADER,
    GENERATORS,
    SUBCOMMANDS,
    ConfigError,
    InitialDataSpec,
    _config_blob,
    _write_json,
    _write_trajectory_csv,
    main,
    parse_config,
)
from chgevrey.analyticity import EA_DELTA_GRID
from chgevrey.spectral import logsumexp_modes
from chgevrey.verify import EmpiricalConstants, load_pins, save_pins, verify_H_monotone

from oracles import ea_norm_unfolded, peakon

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = str(Path(__file__).resolve().parents[1] / "src")


def write_config(tmp_path, name="config.json", **overrides):
    blob = {"initial_data": {"name": "cosine", "amplitude": 0.01}}
    blob.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(blob))
    return path


# --- parsing --------------------------------------------------------------------


def test_minimal_config_gets_defaults(tmp_path):
    cfg = parse_config(write_config(tmp_path, subcommand="simulate"))
    assert cfg.subcommand == "simulate"
    assert cfg.grid.n_points == 256
    assert cfg.grid.period == pytest.approx(2.0 * math.pi)
    assert cfg.model.lam == 1.0
    assert cfg.gevrey.sigma == 1.0 and cfg.gevrey.delta == 0.5 and cfg.gevrey.s == 2.0
    assert cfg.solver.dt == 0.01 and cfg.solver.t_end == 1.0
    assert cfg.solver.s_monitor == cfg.gevrey.s
    assert cfg.seed == 42
    assert cfg.c_prime == 1.0
    assert cfg.picard.n_iters == 8
    assert cfg.initial_data.amplitude == 0.01


def test_nonpositive_lambda_names_the_field(tmp_path):
    path = write_config(tmp_path, model={"lambda": -2.0})
    with pytest.raises(ConfigError, match="model.lambda"):
        parse_config(path)


def test_subanalytic_sigma_names_the_field(tmp_path):
    path = write_config(tmp_path, gevrey={"sigma": 0.5})
    with pytest.raises(ConfigError, match="gevrey.sigma"):
        parse_config(path)


def test_missing_initial_data_is_an_error(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"subcommand": "simulate"}))
    with pytest.raises(ConfigError, match="initial_data"):
        parse_config(path)


def test_illtyped_field_names_the_field(tmp_path):
    path = write_config(tmp_path, solver={"dt": "fast"})
    with pytest.raises(ConfigError, match="solver.dt"):
        parse_config(path)


def test_a_config_that_is_not_an_object_exits_two(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps([{"initial_data": {"name": "cosine"}}]))
    assert main(["lifespan", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == "config error: config must be a JSON object\n"


def test_bad_json_and_missing_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        parse_config(bad)
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(tmp_path / "nope.json")


def test_unknown_keys_warn_but_parse(tmp_path):
    path = write_config(tmp_path, solver={"dt": 0.01, "frobnicate": 3})
    with pytest.warns(UserWarning, match="solver.frobnicate"):
        cfg = parse_config(path)
    assert cfg.solver.dt == 0.01


def test_coeff_file_must_exist(tmp_path):
    path = write_config(
        tmp_path, initial_data={"name": "coeff_file", "path": str(tmp_path / "no.txt")}
    )
    with pytest.raises(ConfigError, match="initial_data.path"):
        parse_config(path)


def test_unknown_generator_rejected(tmp_path):
    path = write_config(tmp_path, initial_data={"name": "sawtooth"})
    with pytest.raises(ConfigError, match="initial_data.name"):
        parse_config(path)


# the resolved minimal config {"initial_data": {"name": "cosine"}}: every key
# with its default, as the hand-written key table gave them before the keys
# were derived from the dataclasses
DEFAULT_BLOB = {
    "subcommand": "simulate",
    "model": {"alpha": 0.0, "beta": 0.0, "gamma": 0.0, "Gamma": 0.0, "lambda": 1.0},
    "grid": {"n_points": 256, "period": 6.283185307179586},
    "gevrey": {"sigma": 1.0, "delta": 0.5, "s": 2.0},
    "solver": {"dt": 0.01, "t_end": 1.0, "record_every": 1, "s_monitor": 2.0},
    "initial_data": {
        "name": "cosine", "amplitude": 1.0, "mode": 1, "rate": 1.0, "width": 0.5,
        "center": None, "path": None,
    },
    "output_dir": ".",
    "seed": 42,
    "c_prime": 1.0,
    "picard": {"n_iters": 8, "n_nodes": 129, "horizon": None},
    "continuity": {"mode": 2, "amplitudes": (0.1, 0.01, 0.001, 0.0001), "budget": 1e-6},
}
KEYS = []
for name, value in DEFAULT_BLOB.items():
    KEYS += [f"{name}.{key}" for key in value] if isinstance(value, dict) else [name]


def test_the_derived_defaults_match_the_recorded_ones(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"initial_data": {"name": "cosine"}}))
    # the JSON text, so that an integer default in place of a float shows too
    derived = json.dumps(_config_blob(parse_config(path)), sort_keys=True)
    assert derived == json.dumps(DEFAULT_BLOB, sort_keys=True)
    assert len(KEYS) == 31


@pytest.mark.parametrize("key", KEYS)
def test_every_key_rejects_an_illtyped_value_naming_itself(tmp_path, key):
    blob = {"initial_data": {"name": "cosine"}}
    section, _, name = key.rpartition(".")
    (blob.setdefault(section, {}) if section else blob)[name] = {"not": "a value"}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(blob))
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert str(err.value).startswith(f"{key}: ")


def _readme_config() -> dict:
    block = re.search(r"```json\n(.*?)```", README.read_text(), re.S)
    return json.loads(block.group(1))


def test_readme_example_lists_every_key_and_parses_cleanly(tmp_path):
    blob = _readme_config()
    keys = set()
    for name, value in blob.items():
        keys |= {f"{name}.{key}" for key in value} if isinstance(value, dict) else {name}
    assert keys == set(KEYS)
    path = tmp_path / "readme.json"
    path.write_text(json.dumps(blob))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parse_config(path)


def test_readme_library_example_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(block.group(1), {})
    norm, rate = (float(line) for line in capsys.readouterr().out.split())
    assert norm > 0.0
    assert 0.7 < rate < 0.8  # the datum decays at rate 0.8; the width shrinks in time


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
positive = st.floats(min_value=1e-6, max_value=1e6)
CONFIGS = st.fixed_dictionaries(
    {
        "subcommand": st.sampled_from(SUBCOMMANDS),
        "model": st.fixed_dictionaries(
            {},
            optional={
                "alpha": finite, "beta": finite, "gamma": finite, "Gamma": finite,
                "lambda": positive,
            },
        ),
        "grid": st.fixed_dictionaries(
            {}, optional={"n_points": st.integers(4, 32).map(lambda h: 2 * h), "period": positive}
        ),
        "gevrey": st.fixed_dictionaries(
            {},
            optional={
                "sigma": st.floats(1.0, 5.0),
                "delta": st.floats(0.0, 10.0),
                "s": finite,
            },
        ),
        "solver": st.fixed_dictionaries(
            {},
            optional={
                "dt": positive,
                "t_end": st.floats(0.0, 1e6),
                "record_every": st.integers(1, 1000),
                "s_monitor": finite,
            },
        ),
        "initial_data": st.fixed_dictionaries(
            {"name": st.sampled_from([g for g in GENERATORS if g != "coeff_file"])},
            optional={
                "amplitude": finite,
                "mode": st.integers(-100, 100),
                "rate": finite,
                "width": finite,
                "center": st.none() | finite,
                "path": st.none() | st.text("abc/._-", max_size=8),
            },
        ),
        "picard": st.fixed_dictionaries(
            {},
            optional={
                "n_iters": st.integers(1, 50),
                "n_nodes": st.integers(2, 1000),
                "horizon": st.none() | positive,
            },
        ),
        "continuity": st.fixed_dictionaries(
            {},
            optional={
                "mode": st.integers(-100, 100),
                "amplitudes": st.lists(finite, min_size=1, max_size=5),
                "budget": st.floats(0.0, 1e6),
            },
        ),
    },
    optional={
        "output_dir": st.text("abc/._-", max_size=8),
        "seed": st.integers(-(2**40), 2**40),
        "c_prime": positive,
    },
)


@settings(max_examples=150, deadline=None)
@given(blob=CONFIGS)
def test_config_blob_round_trips_through_parse_config(tmp_path_factory, blob):
    directory = tmp_path_factory.mktemp("round_trip")
    path = directory / "in.json"
    path.write_text(json.dumps(blob))
    cfg = parse_config(path)
    again = directory / "again.json"
    again.write_text(json.dumps(_config_blob(cfg)))
    assert parse_config(again) == cfg


def _inf_config(tmp_path, blob) -> Path:
    # JSON number literals past the float range: Python reads 1e999 as inf,
    # and 10**400 as an integer that float() refuses
    path = tmp_path / "config.json"
    text = json.dumps(blob).replace('"INF"', "1e999").replace('"BIG"', str(10**400))
    path.write_text(text)
    return path


# coefficient files that ingest rejects: one line that reads as a float outside
# the finite range, a ninth line, which is slot n/2 of the n = 16 grid, or
# comments and blank lines alone
_COEFF_FILES = {
    "inf.txt": "1e999 0.0\n",
    "nan.txt": "nan 0.0\n",
    "nyquist.txt": "0.0 0.0\n" * 8 + "0.001 0.0\n",
    "comments.txt": "# mean first\n\n# no coefficient follows\n",
}


@pytest.mark.parametrize(
    "subcommand, overrides, key",
    [
        ("picard", {"picard": {"horizon": "INF"}}, "picard.horizon"),
        (
            "continuity",
            {"continuity": {"amplitudes": ["INF"]}, "grid": {"n_points": 16}},
            "continuity.amplitudes",
        ),
        (
            "lifespan",
            {"initial_data": {"name": "cosine", "amplitude": 0.0, "center": "INF"}},
            "initial_data.center",
        ),
        ("picard", {"picard": {"n_nodes": 1}}, "picard.n_nodes"),
        ("continuity", {"continuity": {"mode": 999}}, "continuity.mode"),
        *(
            (
                "lifespan",
                {"initial_data": {"name": "cosine", "amplitude": 0.01, "mode": mode}},
                "initial_data.mode",
            )
            for mode in (128, -128)  # slot n/2 of the default n = 256 grid
        ),
        ("continuity", {"continuity": {"mode": 128}}, "continuity.mode"),
        ("picard", {"picard": {"horizon": 1.0}}, "picard.horizon"),
        ("picard", {"picard": {"n_iters": 0}}, "picard.n_iters"),
        (
            "lifespan",
            {"initial_data": {"name": "gaussian_bump", "width": 0.0}, "grid": {"n_points": 16}},
            "initial_data.width",
        ),
        *(
            (
                subcommand,  # functional_H needs s > 3/2; rejected before the march
                {
                    "initial_data": {"name": "cosine", "amplitude": 0.3},
                    "grid": {"n_points": 32},
                    "gevrey": {"s": 1.0},
                },
                "gevrey.s",
            )
            for subcommand in ("simulate", "radius")
        ),
        *(
            (
                "lifespan",
                {"initial_data": {"name": "coeff_file", "path": name}, "grid": {"n_points": 16}},
                "initial_data.path",
            )
            for name in _COEFF_FILES
        ),
        (
            "lifespan",
            {"initial_data": {"name": "exp_decay_modes", "rate": -1000}, "grid": {"n_points": 16}},
            "initial_data.rate",
        ),
        (
            "lifespan",
            {
                "initial_data": {"name": "gaussian_bump", "amplitude": 1e308, "width": 100},
                "grid": {"n_points": 16},
            },
            "initial_data.amplitude",
        ),
        *(
            ("lifespan", {section: {name: value}}, f"{section}.{name}")
            for section, name, value in (
                ("grid", "n_points", 7),
                ("grid", "period", -1),
                ("solver", "dt", -1),
                ("solver", "t_end", -1),
                ("solver", "record_every", 0),
                ("gevrey", "delta", -1),
            )
        ),
        ("continuity", {"continuity": {"budget": -1.0}}, "continuity.budget"),
        ("lifespan", {"grid": 5}, "grid"),
        ("lifespan", {"solver": {"t_end": "BIG"}}, "solver.t_end"),
    ],
    ids=[
        "infinite-horizon",
        "infinite-amplitude",
        "infinite-center",
        "one-node",
        "mode-outside-band",
        "nyquist-cosine",
        "nyquist-cosine-negative",
        "nyquist-continuity-mode",
        "horizon-past-window",
        "no-iterate",
        "zero-width-bump",
        "sobolev-order-simulate",
        "sobolev-order-radius",
        "infinite-coeff-line",
        "nan-coeff-line",
        "nyquist-coeff-line",
        "comments-only-coeff-file",
        "overflowing-decay-rate",
        "overflowing-bump",
        "odd-grid",
        "negative-period",
        "negative-step",
        "negative-end-time",
        "no-record",
        "negative-width",
        "negative-budget",
        "grid-not-an-object",
        "integer-past-the-float-range",
    ],
)
def test_bad_input_exits_two_naming_the_key(
    tmp_path, monkeypatch, capsys, subcommand, overrides, key
):
    monkeypatch.chdir(tmp_path)  # the coefficient files are named relative to it
    for name, text in _COEFF_FILES.items():
        (tmp_path / name).write_text(text)
    blob = {"initial_data": {"name": "cosine", "amplitude": 0.01}, **overrides}
    path = _inf_config(tmp_path, blob)
    code = main([subcommand, "--config", str(path), "--out", str(tmp_path / "run")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}: ")


def test_write_json_is_strict_and_writes_nan_as_null(tmp_path):
    # a datum far above the small-data threshold makes H_monotone skip with a NaN ratio
    big = field_from_modes(TorusGrid(16), {1: 10.0})
    states = SpectralField(big.grid, big.coeffs[None])
    report = verify_H_monotone(Trajectory(np.array([0.0]), states), ModelParams())
    assert math.isnan(report.worst_ratio)
    path = tmp_path / "report.json"
    _write_json(path, {"H_monotone": asdict(report), "ends": (math.inf, 1.5, -math.inf)})

    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    blob = json.loads(path.read_text(), parse_constant=reject)
    assert blob["H_monotone"]["worst_ratio"] is None
    assert blob["H_monotone"]["status"] == "skip"
    assert blob["ends"] == [None, 1.5, None]


# --- generators -----------------------------------------------------------------


def test_cosine_generator_mode_and_amplitude():
    grid = TorusGrid(32)
    u = InitialDataSpec("cosine", amplitude=0.3, mode=2).build(grid)
    assert u.coeff(2) == pytest.approx(0.15)
    assert u.coeff(-2) == pytest.approx(0.15)
    samples = to_physical(u)
    assert np.allclose(samples, 0.3 * np.cos(2.0 * grid.x), atol=1e-14)
    # mode 0 degenerates to the constant with the full amplitude
    const = InitialDataSpec("cosine", amplitude=0.1, mode=0).build(grid)
    assert np.allclose(to_physical(const), 0.1, atol=1e-15)
    # slot n/2 holds zero: the Nyquist mode cos(16 x) = (-1)^j is no datum
    for mode in (16, -16):
        with pytest.raises(ConfigError, match=r"^initial_data\.mode: .*n/2"):
            InitialDataSpec("cosine", amplitude=1.0, mode=mode).build(grid)


def test_exp_decay_generator_matches_rate():
    grid = TorusGrid(32)
    u = InitialDataSpec("exp_decay_modes", amplitude=0.01, rate=0.8).build(grid)
    for m in (0, 1, 5, 15):
        assert u.coeff(m) == pytest.approx(0.01 * math.exp(-0.8 * m), rel=1e-14)
    assert u.coeff(-5) == pytest.approx(u.coeff(5))
    assert u.coeff(16) == 0.0  # slot n/2


def test_gaussian_bump_is_periodized():
    grid = TorusGrid(64)
    spec = InitialDataSpec("gaussian_bump", amplitude=1.0, width=0.7)
    samples = to_physical(spec.build(grid))
    x = grid.x
    direct = np.zeros_like(x)
    for j in range(-6, 7):
        direct += np.exp(-((x - math.pi - j * grid.period) ** 2) / (2.0 * 0.7**2))
    assert np.allclose(samples, direct, atol=1e-12)
    assert samples.min() > 0.0  # periodization leaves no negative lobe


def test_coeff_file_round_trip(tmp_path):
    grid = TorusGrid(16)
    lines = "# mean then three cosines\n0.0 0.0\n0.005 0.0\n\n0.001 0.0\n"
    path = tmp_path / "coeffs.txt"
    path.write_text(lines)
    u = InitialDataSpec("coeff_file", path=str(path)).build(grid)
    assert u.coeff(0) == 0.0
    assert u.coeff(1) == pytest.approx(0.005)
    assert u.coeff(2) == pytest.approx(0.001)
    assert u.coeff(-1) == pytest.approx(0.005)


def test_coeff_file_rejects_garbage(tmp_path):
    grid = TorusGrid(16)
    path = tmp_path / "coeffs.txt"
    path.write_text("0.1 0.0 0.3\n")
    with pytest.raises(ConfigError, match="line 1"):
        InitialDataSpec("coeff_file", path=str(path)).build(grid)
    path.write_text("zero nought\n")
    with pytest.raises(ConfigError, match="line 1"):
        InitialDataSpec("coeff_file", path=str(path)).build(grid)


def test_coeff_file_rejects_a_complex_mean(tmp_path, capsys):
    # the field has no imaginary mean: to_physical would drop it and the first
    # RK4 step would zero it, after the t = 0 norms had counted it
    coeffs = tmp_path / "coeffs.txt"
    coeffs.write_text("# the mean\n0.5 0.3\n0.05 0\n")
    cfg = write_config(
        tmp_path, initial_data={"name": "coeff_file", "path": str(coeffs)}, grid={"n_points": 32}
    )
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert "initial_data.path: line 2, mode 0" in capsys.readouterr().err
    coeffs.write_text("0.5 -0.0\n0.05 0.3\n")  # a signed zero is real; mode 1 may be complex
    u = InitialDataSpec("coeff_file", path=str(coeffs)).build(TorusGrid(32))
    assert u.coeff(0) == 0.5 and u.coeff(1) == complex(0.05, 0.3)


# --- end-to-end runs ------------------------------------------------------------


def test_lifespan_prints_the_zero_datum_window(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        initial_data={"name": "cosine", "amplitude": 0.0},
        gevrey={"sigma": 1.0, "delta": 1.0, "s": 2.0},
    )
    code = main(["lifespan", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "4.124207e-04" in out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["T0_closed_form"] == pytest.approx(4.1242070141749823e-4, rel=1e-12)
    assert report["D_sigma"] == 4.0


def test_lifespan_evaluates_the_window_of_the_width_one_norm(tmp_path):
    # gevrey.delta (default 0.5) is not the width the window is stated at
    cfg = write_config(tmp_path, grid={"n_points": 16})
    assert main(["lifespan", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    u0 = InitialDataSpec("cosine", amplitude=0.01).build(TorusGrid(16))
    window = existence_window(u0, sigma=1.0, s=2.0, c_prime=1.0)
    assert report["T0_closed_form"] / (2.0 ** report["sigma"] - 1.0) == window


def test_lifespan_of_a_datum_past_the_min_forms_range_exits_zero(tmp_path, capsys):
    # window norm 1.38e65: the min form's L*R and M overflowed here, and the
    # closed form is finite; M reads inf, which the report writes as null
    coeffs = tmp_path / "coeffs.txt"
    coeffs.write_text("0 0\n" * 30 + "1e49 0\n")
    cfg = write_config(
        tmp_path, initial_data={"name": "coeff_file", "path": str(coeffs)}, grid={"n_points": 64}
    )
    assert main(["lifespan", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    u0 = field_from_modes(TorusGrid(64), {30: 1e49})
    assert report["u0_norm"] == window_norm(u0, 1.0, 2.0)
    assert report["T0_closed_form"] == existence_window(u0, sigma=1.0, s=2.0) > 0.0
    assert report["M"] is None and "T0_min_formula" not in report
    assert capsys.readouterr().out.count("T0") == 1


@pytest.mark.parametrize("datum", ["peakon", "bump"])
def test_lifespan_reports_the_log_of_a_window_below_the_float_range(tmp_path, capsys, datum):
    # window norms 1.34e110 (the peakon at n = 512) and 1.14e212 (the bump of
    # OVERFLOWING_BUMP): T0 underflows, which used to exit 2
    config = OVERFLOWING_BUMP
    if datum == "peakon":
        coeffs = tmp_path / "coeffs.txt"
        modes = peakon(TorusGrid(512), 0.5, 0.1, 0.0).coeffs[:-1]
        coeffs.write_text("".join(f"{float(z.real)!r} {float(z.imag)!r}\n" for z in modes))
        config = {"initial_data": {"name": "coeff_file", "path": str(coeffs)}, "grid": {"n_points": 512}}
    cfg = write_config(tmp_path, **config)
    assert main(["lifespan", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    parsed = parse_config(cfg)
    norm = window_norm(parsed.initial_data.build(parsed.grid), 1.0, 2.0)
    assert report["u0_norm"] == norm > 1e110
    assert report["T0_closed_form"] is None
    # log10 of 1/(2^10 (e^-1 + 2) R^4), R = 1 + norm
    expected = -(10.0 * math.log10(2.0) + math.log10(math.exp(-1.0) + 2.0) + 4.0 * math.log10(norm))
    assert report["log10_T0"] == pytest.approx(expected, rel=1e-14)
    assert "far outside the width-1 Gevrey class" in capsys.readouterr().out


def test_trajectory_csv_writes_every_value_at_17_significant_digits(tmp_path):
    # the row format is "%.17g" per value: shortest round trip of the specials too
    values = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1, 1.0 / 3.0, 12345678.9]
    rows = [values, values[::-1]]
    _write_trajectory_csv(tmp_path / "t.csv", [RadiusRecord(*row) for row in rows])
    expected = [CSV_HEADER] + [",".join(format(v, ".17g") for v in row) for row in rows]
    assert (tmp_path / "t.csv").read_text() == "\n".join(expected) + "\n"
    assert expected[1] == (
        "nan,inf,-inf,-0,4.9406564584124654e-324,0.10000000000000001,0.33333333333333331,12345678.9"
    )


def test_simulate_constant_datum_decays_exponentially(tmp_path):
    cfg = write_config(
        tmp_path,
        grid={"n_points": 16},
        solver={"dt": 1e-3, "t_end": 0.5, "record_every": 100},
        initial_data={"name": "cosine", "amplitude": 0.1, "mode": 0},
    )
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    text = (out / "trajectory.csv").read_text().splitlines()
    assert text[0] == CSV_HEADER
    table = np.genfromtxt(out / "trajectory.csv", delimiter=",", names=True)
    assert np.allclose(table["sobolev"], 0.1 * np.exp(-table["t"]), atol=1e-10)
    assert np.all(np.isnan(table["delta_fit"]))  # a constant has nothing to fit
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["blowup_time"] is None
    assert meta["config"]["grid"]["n_points"] == 16
    assert "C_s_algebra" in meta["pinned_constants"]


def test_radius_runs_are_byte_deterministic(tmp_path):
    cfg = write_config(
        tmp_path,
        grid={"n_points": 32},
        solver={"dt": 0.01, "t_end": 0.3, "record_every": 10},
        initial_data={"name": "exp_decay_modes", "amplitude": 0.01, "rate": 0.8},
    )
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["radius", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    assert (outs[0] / "trajectory.csv").read_bytes() == (
        outs[1] / "trajectory.csv"
    ).read_bytes()
    assert (outs[0] / "report.json").read_bytes() == (
        outs[1] / "report.json"
    ).read_bytes()
    report = json.loads((outs[0] / "report.json").read_text())
    table = np.genfromtxt(outs[0] / "trajectory.csv", delimiter=",", names=True)
    assert table["delta_fit"][0] == pytest.approx(0.8, rel=1e-6)
    assert np.all(table["delta_theory"] <= table["delta_fit"])
    assert report["c_cal"] > 0.0


def test_blowup_is_a_valid_outcome(tmp_path):
    cfg = write_config(
        tmp_path,
        grid={"n_points": 32},
        solver={"dt": 0.5, "t_end": 10.0},
        initial_data={"name": "cosine", "amplitude": 40.0, "mode": 1},
    )
    out = tmp_path / "run"
    with pytest.warns(UserWarning, match="advisory stability bound"):
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["blowup_time"] is not None and meta["blowup_time"] > 0.0
    assert (out / "trajectory.csv").exists()


def test_blowup_with_an_overflowing_norm_writes_the_empty_table(tmp_path, capsys):
    # the bump's rounding noise fills the band, and at n = 2048 the width-0.9
    # Gevrey weight exp(0.9 * 1024) overflows its norm: the partial
    # trajectory gets no diagnostics, and the blow-up is still reported
    cfg = write_config(
        tmp_path,
        grid={"n_points": 2048},
        gevrey={"delta": 0.9},
        solver={"dt": 0.01, "t_end": 10.0},
        initial_data={"name": "gaussian_bump", "amplitude": 40.0, "width": 0.5},
    )
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert (out / "trajectory.csv").read_text() == CSV_HEADER + "\n"
    assert "blow-up at t = 0.02; partial trajectory written" in capsys.readouterr().out
    assert json.loads((out / "metadata.json").read_text())["blowup_time"] == 0.02


def test_blowup_with_an_overflowing_width_ode_writes_the_empty_table(tmp_path, capsys):
    # at n = 1024 the Gevrey norm of the bump's rounding noise is finite but
    # above 1e154, so the width ODE's start 2(1 + norm)^2 overflows instead
    cfg = write_config(
        tmp_path,
        grid={"n_points": 1024},
        gevrey={"delta": 0.9},
        solver={"dt": 0.01, "t_end": 10.0},
        initial_data={"name": "gaussian_bump", "amplitude": 40.0, "width": 0.5},
    )
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert (out / "trajectory.csv").read_text() == CSV_HEADER + "\n"
    assert "partial trajectory written" in capsys.readouterr().out


# the bump's rounding noise fills the band: at n = 1024 its Gevrey norms are
# finite but above 1e154, so every fourth power and the width bound overflow
OVERFLOWING_BUMP = {
    "grid": {"n_points": 1024},
    "gevrey": {"delta": 0.9},
    "solver": {"dt": 0.01, "t_end": 10.0},
    "initial_data": {"name": "gaussian_bump", "amplitude": 40.0, "width": 0.5},
}


def test_radius_blowup_with_an_overflowing_width_bound_is_a_valid_outcome(tmp_path, capsys):
    cfg = write_config(tmp_path, **OVERFLOWING_BUMP)
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        code = main(["radius", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert (out / "trajectory.csv").read_text() == CSV_HEADER + "\n"
    report = json.loads((out / "report.json").read_text())
    assert report == {
        "blowup_time": 0.03,
        "c_cal": None,
        "delta0": 0.9,
        "final_delta_fit": None,
        "final_delta_theory": None,
    }
    assert json.loads((out / "metadata.json").read_text())["blowup_time"] == 0.03
    printed = capsys.readouterr()
    assert "blow-up at t = 0.03" in printed.out and printed.err == ""


@pytest.mark.parametrize("subcommand", ["picard", "continuity"])
def test_an_overflowing_existence_window_exits_two(tmp_path, capsys, subcommand):
    cfg = write_config(tmp_path, **OVERFLOWING_BUMP)
    code = main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: existence window") and "Traceback" not in err
    assert not (tmp_path / "run" / "report.json").exists()


@pytest.mark.parametrize("subcommand", ["lifespan", "picard", "continuity"])
def test_an_infinite_window_norm_exits_two(tmp_path, capsys, subcommand):
    # at n = 2048 the width-1 norm of the bump's rounding noise reads inf
    cfg = write_config(tmp_path, **{**OVERFLOWING_BUMP, "grid": {"n_points": 2048}})
    code = main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: existence window: the datum's window norm overflowed")


@pytest.mark.parametrize("model", [{}, {"gamma": 0.2}], ids=["linear", "quartic"])
def test_a_functional_past_the_float_range_exits_two(tmp_path, capsys, model):
    # the datum's H^61 norm is finite but above 5.6e102: the quartic H's cube
    # leaves the float range, and the linear one's width bound b^5 does
    cfg = write_config(
        tmp_path,
        model=model,
        grid={"n_points": 256},
        gevrey={"s": 61.0},
        solver={"s_monitor": 2.0, "dt": 1e-3, "t_end": 0.01},
        initial_data={"name": "exp_decay_modes", "amplitude": 1e-3, "rate": 0.5},
    )
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_cli_import_loads_no_scipy():
    probe = "import sys, chgevrey.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_metadata_written_before_datum_failure(tmp_path):
    # mode 100 does not fit the n=16 band: the run fails with exit 2, but
    # metadata must already be on disk for forensics
    cfg = write_config(
        tmp_path,
        grid={"n_points": 16},
        initial_data={"name": "cosine", "amplitude": 0.01, "mode": 100},
    )
    out = tmp_path / "run"
    code = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert (out / "metadata.json").exists()


def test_bad_config_exits_two(tmp_path):
    cfg = write_config(tmp_path, model={"lambda": 0.0})
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert main(["simulate", "--config", str(tmp_path / "ghost.json")]) == 2


def test_a_pins_file_with_an_invalid_constant_exits_two(tmp_path, capsys):
    pins_path = tmp_path / "negative.json"
    save_pins(load_pins(), pins_path)
    blob = json.loads(pins_path.read_text())
    blob["constants"]["C_s_algebra"] = -1.0
    pins_path.write_text(json.dumps(blob))
    cfg = write_config(tmp_path)
    argv = ["verify", "--config", str(cfg), "--out", str(tmp_path / "run")]
    assert main([*argv, "--pins", str(pins_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot load pins: pin C_s_algebra")
    assert not (tmp_path / "run").exists()


def test_verify_against_tampered_pins_exits_one(tmp_path, capsys):
    tiny = EmpiricalConstants(
        C_s_algebra=1e-6, C_bar_s=1e-6, C_sym_lemma=1e-6, C_commutator=1e-6
    )
    pins_path = tmp_path / "tiny.json"
    save_pins(tiny, pins_path)
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    code = main(
        [
            "verify",
            "--config",
            str(cfg),
            "--out",
            str(out),
            "--pins",
            str(pins_path),
        ]
    )
    assert code == 1
    stdout = capsys.readouterr().out
    assert "[fail]" in stdout
    report = json.loads((out / "report.json").read_text())
    assert report["algebra"]["violations"] > 0
    assert report["interpolation"]["violations"] == 0  # exact suites unaffected


@pytest.mark.parametrize("subcommand", [c for c in SUBCOMMANDS if c != "verify"])
def test_update_pins_is_rejected_outside_verify(tmp_path, capsys, subcommand):
    cfg = write_config(tmp_path)
    pins_path = tmp_path / "p.json"
    argv = [subcommand, "--config", str(cfg), "--out", str(tmp_path / "run")]
    assert main([*argv, "--pins", str(pins_path), "--update-pins"]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not pins_path.exists()
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("delta", [0.0, 1.0])
@pytest.mark.parametrize("subcommand", ["simulate", "radius"])
def test_a_width_outside_the_unit_interval_exits_two_before_the_march(
    tmp_path, capsys, subcommand, delta
):
    # lifespan reads only the width-1 norm and still runs at delta = 1
    # (test_lifespan_prints_the_zero_datum_window)
    cfg = write_config(
        tmp_path,
        grid={"n_points": 32},
        initial_data={"name": "cosine", "amplitude": 0.3},
        gevrey={"delta": delta},
    )
    out = tmp_path / "run"
    assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: gevrey.delta: ")
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize(
    "overrides, argv",
    [({"seed": -1}, []), ({}, ["--seed", "-3"]), ({}, ["--seed", "-3", "--update-pins"])],
    ids=["config", "flag", "update-pins"],
)
def test_a_negative_seed_on_verify_exits_two(tmp_path, capsys, overrides, argv):
    cfg = write_config(tmp_path, **overrides)
    pins_path = tmp_path / "p.json"
    out = tmp_path / "run"
    argv = ["verify", "--config", str(cfg), "--out", str(out), "--pins", str(pins_path), *argv]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: seed: ")
    assert not pins_path.exists() and not out.exists()


def test_update_pins_records_the_seed_it_measured(tmp_path):
    cfg = write_config(tmp_path)
    pins_path = tmp_path / "p.json"
    argv = ["verify", "--config", str(cfg), "--out", str(tmp_path / "run"), "--seed", "7"]
    assert main([*argv, "--pins", str(pins_path), "--update-pins"]) == 0
    blob = json.loads(pins_path.read_text())
    assert blob.get("seed", 7) == 7
    assert blob["pin_date_metadata"].startswith("seed-7 ")


def test_continuity_mode_zero_perturbs_by_the_cosine_datum(tmp_path):
    amplitudes = [0.1, 0.01]
    cfg = write_config(
        tmp_path,
        grid={"n_points": 32},
        continuity={"mode": 0, "amplitudes": amplitudes},
    )
    out = tmp_path / "run"
    main(["continuity", "--config", str(cfg), "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    for amp, bound in zip(amplitudes, report["bounds"]):
        bump = InitialDataSpec("cosine", amp, 0).build(TorusGrid(32))
        assert bound == pytest.approx(2.0 * window_norm(bump, 1.0, 2.0) + 1e-6, rel=1e-12)


def test_continuity_exits_one_when_any_bound_breaks(tmp_path, monkeypatch):
    import chgevrey.cli as cli
    from chgevrey.integrate import ContinuityReport

    def one_bound_broken(sequence, *args, **kwargs):
        return ContinuityReport(T=1e-5, distances=(1e-3, 1.0), bounds=(1e-2, 1e-2), budget=1e-6)

    monkeypatch.setattr(cli, "continuity_experiment", one_bound_broken)
    cfg = write_config(tmp_path, grid={"n_points": 16}, continuity={"amplitudes": [0.1, 0.01]})
    out = tmp_path / "run"
    assert main(["continuity", "--config", str(cfg), "--out", str(out)]) == 1
    assert json.loads((out / "report.json").read_text())["within_bounds"] == [True, False]


def test_continuity_exits_one_naming_the_runs_that_blew_up(tmp_path, capsys):
    # the datum's monitored norm is past the blow-up threshold, so the limit and
    # the perturbed run both cross at the first step
    cfg = write_config(
        tmp_path,
        initial_data={"name": "cosine", "amplitude": 1e8, "mode": 1},
        grid={"n_points": 16},
        continuity={"amplitudes": [0.1]},
    )
    assert main(["continuity", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err.startswith(
        "continuity experiment failed: run limit, #0 blew up at t = "
    )


def test_radius_without_a_finite_fit_fails_calibration(tmp_path, capsys):
    # cos 2x keeps its odd modes at rounding level, so no record has a decay fit
    cfg = write_config(
        tmp_path,
        grid={"n_points": 64},
        solver={"dt": 0.01, "t_end": 0.5},
        initial_data={"name": "cosine", "amplitude": 0.5, "mode": 2},
    )
    out = tmp_path / "run"
    assert main(["radius", "--config", str(cfg), "--out", str(out)]) == 1
    assert "calibration failed: no record" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_seed_override_lands_in_metadata(tmp_path):
    cfg = write_config(
        tmp_path,
        grid={"n_points": 16},
        solver={"dt": 0.01, "t_end": 0.02},
    )
    out = tmp_path / "run"
    code = main(
        ["simulate", "--config", str(cfg), "--out", str(out), "--seed", "7"]
    )
    assert code == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["config"]["seed"] == 7


def test_cli_subcommand_overrides_config(tmp_path, capsys):
    cfg = write_config(tmp_path, subcommand="picard")
    with pytest.warns(UserWarning, match="running 'lifespan'"):
        code = main(["lifespan", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 0
    assert "T0" in capsys.readouterr().out


def test_default_picard_horizon_is_half_the_existence_window(tmp_path):
    cfg = write_config(tmp_path, grid={"n_points": 16}, picard={"n_iters": 1, "n_nodes": 3})
    out = tmp_path / "run"
    assert main(["picard", "--config", str(cfg), "--out", str(out)]) == 0
    u0 = InitialDataSpec("cosine", amplitude=0.01).build(TorusGrid(16))
    horizon = json.loads((out / "report.json").read_text())["horizon"]
    assert horizon == existence_window(u0, sigma=1.0, s=2.0, c_prime=1.0) / 2.0


# --- golden artifacts -------------------------------------------------------------

_QUARTIC = {"alpha": 0.1, "beta": 0.3, "gamma": 0.2, "Gamma": 0.05, "lambda": 1.0}

# small runs of the subcommands that march, fit and iterate; continuity is
# acceptance criterion 10's config
GOLDEN_CONFIGS = {
    "simulate": {
        "model": _QUARTIC,
        "grid": {"n_points": 32},
        "solver": {"dt": 0.01, "t_end": 0.5, "record_every": 10},
        "initial_data": {"name": "exp_decay_modes", "amplitude": 0.05, "rate": 0.8},
    },
    "radius": {
        "grid": {"n_points": 64},
        "solver": {"dt": 0.01, "t_end": 0.3, "record_every": 5},
        "initial_data": {"name": "exp_decay_modes", "amplitude": 0.01, "rate": 0.8},
    },
    "picard": {
        "model": _QUARTIC,
        "grid": {"n_points": 32},
        "picard": {"n_iters": 8, "n_nodes": 129},
    },
    "continuity": {
        "grid": {"n_points": 32},
        "solver": {"dt": 1e-3, "t_end": 1.0},
        "continuity": {"mode": 2, "amplitudes": [0.1, 0.01, 0.001, 0.0001], "budget": 1e-6},
    },
}

# exit code and sha256 of each artifact: the artifacts are byte-identical for a
# fixed config, so any change in what a subcommand computes or writes shows here
GOLDEN_ARTIFACTS = {
    "simulate": (
        0,
        {
            "report.json": None,
            "trajectory.csv": "b325004ef4c65b248e8c8001eb967a000d385c30d22786a918dfd81bad778fd2",
        },
    ),
    "radius": (
        0,
        {
            "report.json": "6577050bdfc112c133fde3bd4a271a9b2f476da93ceade69cb989461d4973e02",
            "trajectory.csv": "7264a76b3a2ab6cb8b906b032d3ffd43e41c0fa07753494248306f830ac819f5",
        },
    ),
    "picard": (
        0,
        {
            "report.json": "c24ba61a74814637ce2646db5675da33e9e8dcfff172417bbf97dfc4374acb94",
            "trajectory.csv": None,
        },
    ),
    "continuity": (
        0,
        {
            "report.json": "54007e942dddd2eb3d78dde0ede03129d6e1731fa29e52cb695de8e94337e0b1",
            "trajectory.csv": None,
        },
    ),
}


@pytest.mark.parametrize("subcommand", sorted(GOLDEN_CONFIGS))
def test_cli_artifacts_match_golden(tmp_path, capsys, subcommand):
    cfg = write_config(tmp_path, **GOLDEN_CONFIGS[subcommand])
    out = tmp_path / "run"
    code = main([subcommand, "--config", str(cfg), "--out", str(out)])
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        if (out / name).exists()
        else None
        for name in ("report.json", "trajectory.csv")
    }
    assert (code, digests) == GOLDEN_ARTIFACTS[subcommand]


@pytest.mark.parametrize("gevrey", [{}, {"gevrey": {"sigma": 2.0}}])
def test_the_picard_floor_is_scaled_by_the_datum_row_alone(tmp_path, monkeypatch, gevrey):
    # the sup over n_nodes copies of the datum sits at t = 0, so one row gives
    # the same floor bit for bit
    cfg = parse_config(write_config(tmp_path, **GOLDEN_CONFIGS["picard"], **gevrey))
    u0 = cfg.initial_data.build(cfg.grid)
    sigma, s, n_nodes = cfg.gevrey.sigma, cfg.gevrey.s, cfg.picard.n_nodes
    T = existence_window(u0, sigma, s, cfg.c_prime) / 2.0
    scored = []

    def spy(times, fields, *args):
        scored.append(fields.coeffs.shape[0])
        return ea_norm(times, fields, *args)

    # the module, not the function integrate that the package binds over its name
    monkeypatch.setattr(sys.modules["chgevrey.integrate"], "ea_norm", spy)
    res = picard_iterate(u0, cfg.model, sigma, s, T, 2, n_nodes=n_nodes, c_prime=cfg.c_prime)
    assert scored == [1, n_nodes, n_nodes]
    copies = u0.with_coeffs(np.broadcast_to(u0.coeffs, (n_nodes,) + u0.coeffs.shape))
    times = np.linspace(0.0, T, n_nodes)
    expected = 1e3 * np.finfo(float).eps * ea_norm(times, copies, T, sigma, s)
    assert float.hex(res.floor) == float.hex(expected) and res.floor > 0.0


def test_the_sup_norm_skips_most_pairs_of_picard_differences_past_convergence(
    tmp_path, monkeypatch
):
    # past convergence the iterate differences are rounding noise that peaks at
    # wide widths, so the log-sum-exp runs on few (time, width) pairs; each value
    # is the full unfolded scan's bit for bit
    cfg = parse_config(write_config(tmp_path, **GOLDEN_CONFIGS["picard"]))
    u0 = cfg.initial_data.build(cfg.grid)
    sigma, s, n_nodes = cfg.gevrey.sigma, cfg.gevrey.s, cfg.picard.n_nodes
    T = existence_window(u0, sigma, s, cfg.c_prime) / 2.0
    batches = []

    def spy(times, fields, *args):
        batches.append((times, fields))
        return ea_norm(times, fields, *args)

    monkeypatch.setattr(sys.modules["chgevrey.integrate"], "ea_norm", spy)
    res = picard_iterate(u0, cfg.model, sigma, s, T, 8, n_nodes=n_nodes, c_prime=cfg.c_prime)
    noise = batches[res.converged_at + 1 :]  # batches[0] is the datum's floor scale
    assert len(noise) == 8 - res.converged_at >= 3
    scored = []

    def lse_spy(terms):
        scored.append(len(terms))
        return logsumexp_modes(terms)

    monkeypatch.setattr(sys.modules["chgevrey.analyticity"], "logsumexp_modes", lse_spy)
    window = T * (1.0 - EA_DELTA_GRID) ** sigma / (2.0**sigma - 1.0)
    pairs = 0
    for times, diff in noise:
        got = ea_norm(times, diff, T, sigma, s)
        assert float.hex(got) == float.hex(ea_norm_unfolded(times, diff, T, sigma, s))
        live = np.any(diff.coeffs != 0.0, axis=-1)
        pairs += int(np.sum(live & (times < window[:, None])))
    assert 0 < sum(scored) < pairs / 4


def test_the_sup_norm_scores_at_most_two_rows_per_call_on_the_picard_bench_config(
    tmp_path, monkeypatch
):
    # the bench's picard workload (n = 64, 8 iterates x 512 nodes) at seeds 0
    # and 7: the one-product bound leaves the pair that holds the sup, where
    # pruning by the top + log n bracket alone scored 8316 rows per op at seed 0
    spec = importlib.util.spec_from_file_location(
        "chgevrey_bench_workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    scored = []

    def spy(*args):
        scored.append(0)
        return ea_norm(*args)

    def lse_spy(terms):
        scored[-1] += len(terms)
        return logsumexp_modes(terms)

    monkeypatch.setattr(sys.modules["chgevrey.integrate"], "ea_norm", spy)
    monkeypatch.setattr(sys.modules["chgevrey.analyticity"], "logsumexp_modes", lse_spy)
    for seed in (workloads.DEFAULT_SEED, workloads.HELDOUT_SEED):
        scored.clear()
        assert main(workloads.write_inputs("picard", seed, tmp_path / str(seed))) == 0
        assert len(scored) >= 8 and max(scored) <= 2


def test_an_old_dealias_key_is_ignored_with_a_warning(tmp_path):
    # rhs has one padding rule, so the removed solver.dealias key changes nothing
    new = GOLDEN_CONFIGS["radius"]
    old = {**new, "solver": {**new["solver"], "dealias": False}}
    old_cfg = write_config(tmp_path, "old.json", **old)
    new_cfg = write_config(tmp_path, "new.json", **new)
    with pytest.warns(UserWarning, match="unknown config key solver.dealias ignored"):
        assert main(["radius", "--config", str(old_cfg), "--out", str(tmp_path / "old")]) == 0
    assert main(["radius", "--config", str(new_cfg), "--out", str(tmp_path / "new")]) == 0
    for name in ("report.json", "trajectory.csv"):
        assert (tmp_path / "old" / name).read_bytes() == (tmp_path / "new" / name).read_bytes()
