"""Inequality-suite tests: frozen scalar oracles for the exact constants,
trivial-case identities, and regression behavior of the pinned constants."""

import math
from dataclasses import asdict

import numpy as np
import pytest

from chgevrey import (
    GevreyIndex,
    ModelParams,
    NormOverflowError,
    SolverConfig,
    SpectralField,
    TorusGrid,
    Trajectory,
    ea_norm,
    field_from_modes,
    gevrey_norm,
    helmholtz_inv,
    integrate,
    sobolev_norm,
)
from chgevrey import spectral, verify
from chgevrey.verify import (
    PIN_FILE,
    SAFETY_FACTOR,
    EmpiricalConstants,
    VerificationReport,
    compute_pins,
    derivative_constant_bound,
    load_pins,
    reference_trajectory,
    run_all_suites,
    save_pins,
    sharp_derivative_constant,
    verify_H_monotone,
    verify_algebra,
    verify_commutator_estimate,
    verify_derivative_bound,
    verify_ea_integral,
    verify_embedding,
    verify_interpolation,
    verify_norm_equivalence,
    verify_symbol_lemma,
)

from oracles import full_band, product_direct, symbol_lemma_ratios

GRID = TorusGrid(64)


@pytest.fixture(scope="module")
def pins():
    return load_pins()


# --- exact-constant suites ------------------------------------------------------


def test_embedding_suite_clean():
    report = verify_embedding(ensemble_size=50)
    assert report.violations == 0
    assert report.status == "pass"
    assert report.worst_ratio <= 1.0 + 1e-12


def test_embedding_single_mode_symbol_ratio():
    # one mode at k=3: norm ratio between widths 1.0 and 0.5 is the weight ratio
    u = field_from_modes(GRID, {3: 0.5})
    strong = gevrey_norm(u, GevreyIndex(1.0, 1.0, 0.0))
    weak = gevrey_norm(u, GevreyIndex(1.0, 0.5, 0.0))
    expected = math.exp(0.5 * math.sqrt(10.0))
    assert abs(strong / weak - expected) <= 1e-12 * expected
    assert strong >= weak


def test_sharp_derivative_constant_hits_two_over_e():
    # x e^{-x/2} peaks at x = 2 with value 2/e, and k = 2 is on the mode grid
    sharp = sharp_derivative_constant(GRID, sigma=1.0, gap=0.5)
    assert sharp == 2.0 * math.exp(-1.0)
    assert derivative_constant_bound(1.0, 0.5) == 2.0 * math.exp(-1.0)
    sharp2 = sharp_derivative_constant(GRID, sigma=2.0, gap=0.1)
    assert sharp2 <= derivative_constant_bound(2.0, 0.1)


def test_derivative_bound_suite_clean():
    report = verify_derivative_bound(ensemble_size=20)
    assert report.violations == 0
    assert report.worst_ratio <= 1.0 + 1e-12
    # the sigma=1, gap=0.5 case reaches the scalar bound exactly
    assert report.worst_ratio >= 1.0 - 1e-12


def test_smoothing_symbol_norm_identity():
    rng = np.random.default_rng(9)
    from chgevrey import random_field

    u = random_field(GRID, rng)
    # (1 - d_xx)^{-1} trades exactly two Sobolev orders: per-mode equality
    lhs = gevrey_norm(helmholtz_inv(u), GevreyIndex(1.0, 0.3, 2.0))
    rhs = gevrey_norm(u, GevreyIndex(1.0, 0.3, 0.0))
    assert abs(lhs - rhs) <= 1e-12 * rhs


def test_norm_equivalence_suite_clean():
    report = verify_norm_equivalence(ensemble_size=50)
    assert report.violations == 0
    assert report.worst_ratio <= 1.0 + 1e-12


def test_interpolation_suite_clean():
    report = verify_interpolation(ensemble_size=50)
    assert report.violations == 0
    assert report.cases == 50 * 4 * 3


def test_interpolation_pointwise_scalar_inequality():
    # per-mode content of the suite: 1 <= sqrt(e) e^{-x} + (2x)^{l/2}, x >= 0
    xs = np.linspace(0.0, 50.0, 20001)
    for l_exp in (1.0, 2.0 / 3.0, 0.5, 0.4):
        lhs = math.sqrt(math.e) * np.exp(-xs) + (2.0 * xs) ** (l_exp / 2.0)
        assert np.all(lhs >= 1.0 - 1e-12)


def test_ea_integral_suite_clean():
    traj, _ = reference_trajectory()
    report = verify_ea_integral(traj, sigma=1.0)
    assert report.violations == 0
    assert report.cases > 0
    assert report.worst_ratio < 1.0
    # a norm at delta(tau) that overflows raises, though the sup norm is finite
    huge = field_from_modes(GRID, {1: 5e307})
    states = SpectralField(GRID, np.array([huge.coeffs] * 3))
    times = np.array([0.0, 0.1, 0.2])
    assert math.isfinite(ea_norm(times, states, 1.0, 1.0, 2.0))
    with pytest.raises(NormOverflowError):
        verify_ea_integral(Trajectory(times, states), sigma=1.0)


def test_ea_integral_sigma_two_window():
    traj, _ = reference_trajectory()
    report = verify_ea_integral(traj, sigma=2.0, delta_list=(0.25,))
    assert report.violations == 0


def test_H_monotone_clean_and_skip_paths():
    traj, p = reference_trajectory()
    report = verify_H_monotone(traj, p)
    assert report.status == "pass"
    assert report.violations == 0
    assert report.worst_ratio == 1.0  # attained at t = 0

    big = field_from_modes(GRID, {1: 2.0})  # fails the small-data check
    btraj = integrate(big, ModelParams(lam=1.0), SolverConfig(dt=1e-3, t_end=1e-3))
    breport = verify_H_monotone(btraj, ModelParams(lam=1.0))
    assert breport.status == "skip"
    assert breport.skipped == 1
    assert breport.cases == 0 and breport.violations == 0


# --- pinned suites --------------------------------------------------------------


def test_packaged_pins_are_finite_and_loaded(pins):
    for value in (pins.C_s_algebra, pins.C_bar_s, pins.C_sym_lemma, pins.C_commutator):
        assert math.isfinite(value) and value > 0.0
    # the constant field forces the plain-algebra ratio to 1, so the pin
    # cannot be smaller
    assert pins.C_s_algebra >= 1.0
    assert pins.C_commutator >= 1.0


def test_algebra_regression_zero_violations(pins):
    report = verify_algebra(pins=pins)
    assert report.violations == 0
    assert report.measured["C_s_algebra"] * 1.1 == pytest.approx(pins.C_s_algebra)
    assert report.measured["C_bar_s"] * 1.1 == pytest.approx(pins.C_bar_s)


def test_algebra_fails_against_tampered_pins():
    bad = EmpiricalConstants(
        C_s_algebra=0.5, C_bar_s=0.5, C_sym_lemma=0.5, C_commutator=0.5
    )
    report = verify_algebra(ensemble_size=20, pins=bad)
    assert report.violations > 0
    assert report.status == "fail"


def test_algebra_cosine_ratio_oracle():
    # f = g = cos x at s=1, width 0: ||cos^2 x||_{H^1} / ||cos x||_{H^1}^2
    # = sqrt(7/8) / 1 by direct mode sums (cos^2 = 1/2 + cos(2x)/2)
    f = field_from_modes(GRID, {1: 0.5})
    fg = product_direct(f, f)
    num = sobolev_norm(fg, 1.0)
    den = sobolev_norm(f, 1.0) ** 2
    assert abs(den - 1.0) <= 1e-14
    assert abs(num / den - math.sqrt(7.0 / 8.0)) <= 1e-12


def test_symbol_lemma_regression_and_blowup_direction(pins):
    report = verify_symbol_lemma(pins=pins)
    worst = report.worst_ratio
    assert report.violations == 0
    assert math.isfinite(worst)
    # the printed bound lacks the eta-side exponential, so adjacent large
    # frequencies drive the ratio to ~e^{delta |eta|}; the pin records that
    assert worst > 1e20
    assert worst * 1.1 == pytest.approx(pins.C_sym_lemma)


def test_symbol_lemma_zero_width_oracle():
    # delta = 0, s = 2: ratio = |xi^2-eta^2| / (|xi-eta| (A^{1/2}+B^{1/2})),
    # maximized on [-16,16]^2 at (xi, eta) = (16, 15):
    # (256-225) / (sqrt(2) + sqrt(226)); the sup over all frequencies is 2
    report = verify_symbol_lemma(extent=16, params=((0.0, 1.0, 2.0),))
    worst = report.worst_ratio
    assert report.violations == 0
    expected = 31.0 / (math.sqrt(2.0) + math.sqrt(226.0))
    assert abs(worst - expected) <= 1e-14
    assert worst < 2.0


@pytest.mark.parametrize(
    "kwargs",
    [{}, {"extent": 16}, {"extent": 24, "params": ((0.4, 2.0, 3.5),)}],
    ids=["defaults", "extent-16", "sigma-2"],
)
def test_symbol_lemma_ratios_equal_the_meshgrid_oracle_bit_for_bit(monkeypatch, kwargs):
    # the suite takes each factor on the axis it depends on (xi, eta or
    # xi - eta); the meshgrid transcription takes all of them on the grid
    groups = []
    report = verify._report

    def spy(suite, *args, **kw):
        groups.extend(args)
        return report(suite, *args, **kw)

    monkeypatch.setattr(verify, "_report", spy)
    verify_symbol_lemma(**kwargs)
    (ratios, _), = groups
    extent, params = kwargs.get("extent", 64), kwargs.get("params", verify._SYMBOL_PARAMS)
    expected = symbol_lemma_ratios(extent, params)
    assert len(ratios) == len(expected)
    for got, want in zip(ratios, expected):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert np.all(np.isnan(np.diagonal(got)))  # 0/0 on xi = eta
        assert np.count_nonzero(np.isnan(got)) == len(got)


def test_commutator_regression_and_skip_count(pins):
    report = verify_commutator_estimate(ensemble_size=30, pins=pins)
    worst = report.worst_ratio
    assert report.violations == 0
    # every (u, v) and (u_x, u) case at width 60 overflows and is skipped
    assert report.skipped == 2 * (30 + 10)
    assert worst <= pins.C_commutator


def test_commutator_constant_direction_ratio_is_one():
    one = field_from_modes(GRID, {0: 1.0})
    v = field_from_modes(GRID, {1: 0.5})
    fake_pins = EmpiricalConstants(
        C_s_algebra=1.0, C_bar_s=1.0, C_sym_lemma=1.0, C_commutator=1.0 + 1e-9
    )
    # reproduce the degenerate case by hand: LHS = ||v||_{H^s}^2, RHS = ||1|| ||v||^2
    s = 2.0
    k2 = full_band(GRID.wavenumbers**2)
    fg = full_band(product_direct(one, v).coeffs)
    lhs = abs(complex(np.sum((1.0 + k2) ** s * fg * np.conj(full_band(v.coeffs)))))
    rhs = sobolev_norm(one, s) * sobolev_norm(v, s) ** 2
    assert abs(lhs / rhs - 1.0) <= 1e-12
    assert fake_pins.C_commutator >= lhs / rhs


# --- orchestration --------------------------------------------------------------


def test_run_all_suites_green(pins):
    reports = run_all_suites(pins=pins)
    names = [r.suite for r in reports]
    assert names == [
        "embedding",
        "derivative_bound",
        "algebra",
        "norm_equivalence",
        "symbol_lemma",
        "commutator",
        "interpolation",
        "ea_integral",
        "H_monotone",
    ]
    for r in reports:
        assert r.status in ("pass", "skip")
        assert r.violations == 0
    exact = {
        "embedding",
        "derivative_bound",
        "norm_equivalence",
        "interpolation",
        "ea_integral",
        "H_monotone",
    }
    for r in reports:
        if r.suite in exact and r.status != "skip":
            assert r.violations == 0


def test_reports_serialize_and_print():
    report = verify_embedding(ensemble_size=5)
    blob = asdict(report)
    assert blob["suite"] == "embedding"
    assert "violations" in blob and "worst_ratio" in blob
    assert "embedding" in report.line()


# seed-42 reports with the packaged pins, worst_ratio as float.hex: the batched
# suites must reproduce the per-field loops bit for bit
GOLDEN_SEED_42 = (
    ("embedding", 500, 0, 0, "pass", "0x1.607814f4466a4p-1"),
    ("derivative_bound", 408, 0, 0, "pass", "0x1.0000000000000p+0"),
    ("algebra", 1600, 0, 0, "pass", "0x1.419bf20974d30p+0"),
    ("norm_equivalence", 300, 0, 0, "pass", "0x1.f706ac8b87fa3p-1"),
    ("symbol_lemma", 66564, 0, 0, "pass", "0x1.ac4a18944826ap+89"),
    ("commutator", 660, 0, 220, "pass", "0x1.0000000000003p+0"),
    ("interpolation", 2400, 0, 0, "pass", "0x1.2c71668e8ed7dp-1"),
    ("ea_integral", 20, 0, 0, "pass", "0x1.c8c68db82af93p-6"),
    ("H_monotone", 11, 0, 0, "pass", "0x1.0000000000000p+0"),
)


def test_run_all_suites_seed_42_golden(pins):
    got = tuple(
        (r.suite, r.cases, r.violations, r.skipped, r.status, r.worst_ratio.hex())
        for r in run_all_suites(seed=42, pins=pins)
    )
    assert got == GOLDEN_SEED_42


def test_seed_42_run_builds_a_dozen_fields_not_one_per_ensemble_row(monkeypatch, pins):
    # each ensemble is drawn as one batch; a row-by-row draw builds ~1070 fields
    builds = []
    post_init = SpectralField.__post_init__

    def counting(field):
        builds.append(np.shape(field.coeffs))
        post_init(field)

    monkeypatch.setattr(SpectralField, "__post_init__", counting)
    run_all_suites(seed=42, pins=pins)
    assert 0 < len(builds) <= 12


def test_each_suite_takes_log_mag2_once_per_field_and_keeps_nothing_across_calls(
    monkeypatch, pins
):
    # every Gevrey norm of a field comes from one pass over its log|c|^2 (one
    # _weighted_norm call) that scores each distinct index once; a second run
    # makes every pass again, so no norm outlives its call.  verify_ea_integral
    # scores its two target widths, one width column each, in one pass
    passes, suite = [], [None]
    weighted = spectral._weighted_norm

    def counting(field, rows):
        passes.append((suite[0], field.coeffs.tobytes(), len(rows)))
        return weighted(field, rows)

    def entering(name, run):
        def wrapped(*args, **kwargs):
            suite[0] = name
            return run(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(spectral, "_weighted_norm", counting)
    for name in [n for n in verify.__all__ if n.startswith("verify_")]:
        monkeypatch.setattr(verify, name, entering(name, getattr(verify, name)))
    first = run_all_suites(seed=42, pins=pins)
    first_passes = passes[:]
    passes.clear()
    second = run_all_suites(seed=42, pins=pins)
    assert passes == first_passes and first == second
    per_suite = {}
    for name, coeffs, _ in passes:
        per_suite.setdefault(name, []).append(coeffs)
    assert {name: len(fields) for name, fields in per_suite.items()} == {
        "verify_embedding": 1,
        "verify_derivative_bound": 4,  # u, u_x and their (1 - d_xx)^-1 images
        "verify_algebra": 3,  # f, g and fg
        "verify_norm_equivalence": 1,
        "verify_commutator_estimate": 3,  # u, v and u_x
        "verify_interpolation": 1,
        "verify_ea_integral": 1,
    }
    for name, fields in per_suite.items():
        assert len(set(fields)) == len(fields)
    assert sum(rows for *_, rows in passes) == 78  # each distinct index once


def test_every_suite_returns_a_report_and_the_pinned_ones_measure_their_pins(pins):
    reports = run_all_suites(seed=42, pins=pins)
    assert all(isinstance(r, VerificationReport) for r in reports)
    measuring = {r.suite: sorted(r.measured) for r in reports if r.measured}
    assert measuring == {
        "algebra": ["C_bar_s", "C_s_algebra"],
        "symbol_lemma": ["C_sym_lemma"],
        "commutator": ["C_commutator"],
    }
    # a run against pins measures what compute_pins measures without them
    fresh = compute_pins(seed=42)
    for report in reports:
        for name, worst in report.measured.items():
            assert (SAFETY_FACTOR * worst).hex() == getattr(fresh, name).hex()


def test_save_pins_rewrites_the_packaged_file(tmp_path):
    from importlib import resources

    path = tmp_path / "pins.json"
    save_pins(load_pins(), path)
    packaged = resources.files("chgevrey").joinpath(PIN_FILE).read_text()
    assert path.read_text() == packaged


# --- the ratio-to-report helper -------------------------------------------------


def test_ratio_marks_zero_over_zero_nan_and_x_over_zero_inf():
    r = verify._ratio([0.0, 1.0, 2.0], np.array([0.0, 0.0, 4.0]))
    assert math.isnan(r[0]) and r[1] == math.inf and r[2] == 0.5


def test_report_counts_degenerate_cases_but_never_compares_them():
    report = verify._report("x", ([math.nan, 0.5, math.nan], 0.1))
    assert (report.cases, report.violations, report.worst_ratio) == (3, 1, 0.5)
    assert report.status == "fail"
    # all cases degenerate: worst stays at its 0.0 start, nothing is violated
    empty = verify._report("x", ([math.nan, math.nan], 0.1))
    assert (empty.cases, empty.violations, empty.worst_ratio) == (2, 0, 0.0)
    assert empty.status == "pass"


def test_report_infinite_ratio_is_the_worst_and_a_violation():
    report = verify._report("x", (verify._ratio([1.0, 0.2], np.array([0.0, 1.0])), 2.0))
    assert report.worst_ratio == math.inf
    assert report.violations == 1


def test_report_groups_limits_checks_and_skips():
    report = verify._report(
        "x",
        ([0.5, 1.5], 1.0),
        ([[3.0, 0.1]], None),  # no limit: cases and worst only
        skipped=4,
        failed=([True, False, False],),
    )
    assert report.cases == 2 + 2 + 4 + 3  # skips count inside cases
    assert report.skipped == 4
    assert report.violations == 1 + 1
    assert report.worst_ratio == 3.0  # the checks carry no ratio
    assert verify._report("x").worst_ratio == 0.0
