"""Acceptance battery: one criterion per test, one printed pass/fail line each.

Each test prints ``[PASS]/[FAIL] criterion N: <measured detail>`` and then
asserts, so the verdict survives in captured output either way.  Tolerances
are stated inline next to each check.
"""

import math

import numpy as np
import pytest

from chgevrey import (
    GevreyIndex,
    ModelParams,
    PicardSpec,
    SolverConfig,
    TorusGrid,
    derivative,
    field_from_modes,
    gevrey_norm,
    gevrey_norm_bar,
    integrate,
    lifespan_bounds,
    picard_iterate,
    product,
    random_field,
    sobolev_norm,
)
from chgevrey.analyticity import (
    calibrate_radius_constant,
    estimate_radius,
    track_radius,
)
from chgevrey.integrate import ContinuitySpec, continuity_experiment
from chgevrey.model import SMALL_DATA_EPSILON, functional_H, small_data_check
from chgevrey.verify import (
    compute_pins,
    derivative_constant_bound,
    load_pins,
    sharp_derivative_constant,
    verify_algebra,
    verify_commutator_estimate,
    verify_derivative_bound,
    verify_interpolation,
    verify_norm_equivalence,
    verify_symbol_lemma,
)

from oracles import product_direct

SMALL_DATA = ModelParams(lam=1.0)  # all nonlinear couplings zero


def _criterion(n: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def _exp_decay_datum(grid: TorusGrid, amplitude=0.01, rate=0.8):
    return field_from_modes(
        grid, {m: amplitude * math.exp(-rate * m) for m in range(grid.n_points // 2)}
    )


def test_criterion_01_exact_norm_oracle():
    u = field_from_modes(TorusGrid(64), {3: 0.5})  # cos 3x
    got_g = gevrey_norm(u, GevreyIndex(1.0, 0.5, 0.0))
    want_g = math.sqrt(0.5 * math.exp(math.sqrt(10.0)))
    got_s = sobolev_norm(u, 2.0)
    want_s = math.sqrt(50.0)
    err_g = abs(got_g - want_g) / want_g
    err_s = abs(got_s - want_s) / want_s
    ok = err_g <= 1e-12 and err_s <= 1e-12
    _criterion(
        1, ok, f"norm oracles rel errs {err_g:.2e} (weighted), {err_s:.2e} (Sobolev)"
    )


def test_criterion_02_convolution_equivalence():
    grid = TorusGrid(128)
    rng = np.random.default_rng(42)
    worst, nyquist_zero = 0.0, True
    for _ in range(50):
        f = random_field(grid, rng)
        g = random_field(grid, rng)
        fast = product(f, g)
        slow = product_direct(f, g)
        # slot n/2 holds zero; the modes below it are the exact convolution
        worst = max(worst, float(np.max(np.abs(fast.coeffs[:-1] - slow.coeffs[:-1]))))
        nyquist_zero = nyquist_zero and fast.coeffs[-1] == 0.0
    ok = worst <= 1e-10 and nyquist_zero
    _criterion(
        2,
        ok,
        f"padded vs direct convolution max gap {worst:.2e} <= 1e-10 below n/2, "
        f"slot n/2 zero={nyquist_zero}",
    )


def test_criterion_03_exact_constant_suites():
    eq = verify_norm_equivalence(ensemble_size=200)
    interp = verify_interpolation(ensemble_size=200)
    smooth = verify_derivative_bound(ensemble_size=200)
    ok = eq.violations == 0 and interp.violations == 0 and smooth.violations == 0
    _criterion(
        3,
        ok,
        "zero violations at slack 1e-12: "
        f"equivalence {eq.violations}/{eq.cases}, "
        f"interpolation {interp.violations}/{interp.cases}, "
        f"smoothing/derivative {smooth.violations}/{smooth.cases}",
    )


def test_criterion_04_sharp_derivative_constant():
    grid = TorusGrid(64)
    rng = np.random.default_rng(42)
    fields = [random_field(grid, rng) for _ in range(50)]
    ok = True
    details = []
    for sigma in (1.0, 2.0):
        for gap in (0.1, 0.5):
            bound = derivative_constant_bound(sigma, gap)
            measured = sharp_derivative_constant(grid, sigma, gap)
            hi, lo = 0.6, 0.6 - gap
            for u in fields:
                denom = gevrey_norm_bar(u, GevreyIndex(sigma, hi, 2.0))
                num = gevrey_norm_bar(derivative(u), GevreyIndex(sigma, lo, 2.0))
                measured = max(measured, num / denom)
            ok = ok and measured <= bound * (1.0 + 1e-9)
            details.append(f"sigma={sigma:g} gap={gap:g}: {measured / bound:.4f}")
    sharp = sharp_derivative_constant(grid, 1.0, 0.5)
    target = 2.0 * math.exp(-1.0)
    ok = ok and abs(sharp - target) <= 0.01 * target
    _criterion(
        4,
        ok,
        "measured/bound " + ", ".join(details) + f"; sharp(1,0.5)={sharp:.6f} vs 2/e",
    )


def test_criterion_05_lifespan_arithmetic():
    zero = lifespan_bounds(0.0, 1.0, c_prime=1.0)
    want = 1.0 / (1024.0 * (math.exp(-1.0) + 2.0))
    err = abs(zero.T0_closed_form - want) / want
    ok = err <= 1e-12 and zero.D_sigma == 4.0
    rng = np.random.default_rng(5)
    for _ in range(20):
        sigma = 1.0 + 4.0 * rng.random()
        norm = 10.0 ** rng.uniform(-3.0, 2.0)
        b = lifespan_bounds(norm, sigma, c_prime=1.0)
        base = math.exp(-sigma) * sigma**sigma + 2.0
        l_want = 2.0**4 * base * b.R**4
        ok = ok and abs(b.L - l_want) <= 1e-12 * l_want
        ok = ok and b.M <= 2.0 ** (2.0 * sigma + 3.0) * b.L * b.R * (1.0 + 1e-12)
    _criterion(
        5,
        ok,
        f"T0(zero datum) rel err {err:.2e}, D_sigma(1)={zero.D_sigma:g}, "
        "20 random samples satisfy the window relations",
    )


def test_criterion_06_dynamics_sanity():
    # exact exponential decay of a constant state
    grid = TorusGrid(16)
    traj = integrate(
        field_from_modes(grid, {0: 0.1}),
        ModelParams(lam=1.0),
        SolverConfig(dt=1e-3, t_end=1.0, record_every=1000),
    )
    got = traj.states[-1].coeff(0).real
    decay_err = abs(got - 0.1 * math.exp(-1.0))

    # observed order of the time stepper under dt halving
    grid = TorusGrid(32)
    u0 = field_from_modes(grid, {1: 0.5})  # cos x
    p = ModelParams(1.0, 1.0, 0.5, 0.5, lam=1.0)
    finals = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        steps = round(0.2 / dt)
        traj = integrate(u0, p, SolverConfig(dt=dt, t_end=0.2, record_every=steps))
        finals.append(traj.states[-1].coeffs)
    d1 = float(np.max(np.abs(finals[0] - finals[1])))
    d2 = float(np.max(np.abs(finals[1] - finals[2])))
    order = math.log2(d1 / d2)
    ok = decay_err <= 1e-8 and 3.8 <= order <= 4.2
    _criterion(
        6, ok, f"constant-state decay err {decay_err:.2e}, observed order {order:.3f}"
    )


def test_criterion_07_small_data_monotone_H():
    grid = TorusGrid(32)
    u0 = field_from_modes(grid, {1: 0.005})  # 0.01 cos x
    assert small_data_check(u0, SMALL_DATA, 2.0)
    traj = integrate(
        u0, SMALL_DATA, SolverConfig(dt=0.01, t_end=50.0, record_every=50)
    )
    h0 = functional_H(traj.states[0], SMALL_DATA, 2.0)
    hs = [functional_H(u, SMALL_DATA, 2.0) for u in traj.states]
    worst = max(h / h0 for h in hs)
    ok = h0 <= SMALL_DATA.lam * SMALL_DATA_EPSILON and worst <= 1.0 + 1e-6
    _criterion(
        7,
        ok,
        f"H0={h0:.4e} <= lam*eps={SMALL_DATA.lam * SMALL_DATA_EPSILON}, "
        f"max H(t)/H0 = {worst:.10f} over t in [0, 50] ({len(hs)} records)",
    )


def test_criterion_08_radius_tracking():
    grid = TorusGrid(64)
    u0 = _exp_decay_datum(grid)
    fit0 = estimate_radius(u0).delta_fit
    fit_ok = abs(fit0 - 0.8) <= 0.02 * 0.8

    traj = integrate(
        u0, SMALL_DATA, SolverConfig(dt=0.01, t_end=10.0, record_every=100)
    )
    pins = load_pins()
    c_cal, _ = calibrate_radius_constant(
        traj, SMALL_DATA, 1.0, 2.0, 0.5, c_algebra=pins.C_s_algebra, t_max=10.0
    )
    records = track_radius(traj, SMALL_DATA, 1.0, 2.0, 0.5, c_cal)
    thetas = [r.delta_theory for r in records]
    positive = all(th > 0.0 for th in thetas)
    nonincreasing = all(a >= b for a, b in zip(thetas, thetas[1:]))
    below_fit = all(
        r.delta_theory <= r.delta_fit * (1.0 + 1e-12)
        for r in records
        if not math.isnan(r.delta_fit)
    )
    no_fit_gaps = all(not math.isnan(r.delta_fit) for r in records)
    ok = fit_ok and positive and nonincreasing and below_fit and no_fit_gaps
    _criterion(
        8,
        ok,
        f"fit(0)={fit0:.6f} (target 0.8 within 2%), c_cal={c_cal:.4g}, "
        f"theory positive={positive}, nonincreasing={nonincreasing}, "
        f"<= fit at all {len(records)} records={below_fit}",
    )


def test_criterion_09_contraction():
    grid = TorusGrid(32)
    u0 = field_from_modes(grid, {1: 0.005})  # 0.01 cos x
    norm0 = gevrey_norm(u0, GevreyIndex(1.0, 1.0, 2.0))
    window = lifespan_bounds(norm0, 1.0, 1.0).T0_closed_form / (2.0**1.0 - 1.0)
    result = picard_iterate(u0, SMALL_DATA, 1.0, 2.0, PicardSpec(8, 129, horizon=window / 2.0))
    ok = (
        result.diverged_at is None
        and len(result.ratios) >= 1
        and all(r <= 0.75 for r in result.ratios)
    )
    shown = ", ".join(f"{r:.2e}" for r in result.ratios)
    _criterion(
        9,
        ok,
        f"horizon {window / 2.0:.3e}, ratios [{shown}] all <= 0.75 "
        f"(floor reached at iterate {result.converged_at})",
    )


def test_criterion_10_continuity_of_the_data_map():
    grid = TorusGrid(32)
    limit = field_from_modes(grid, {1: 0.005})  # 0.01 cos x
    spec = ContinuitySpec(2, tuple(10.0**-n for n in range(1, 5)), budget=1e-6)
    bumps = [field_from_modes(grid, {2: a / 2.0}) for a in spec.amplitudes]
    report = continuity_experiment(
        limit, SMALL_DATA, 1.0, 2.0, SolverConfig(dt=1e-3, t_end=1.0), spec
    )
    index = GevreyIndex(1.0, 1.0, 2.0)
    bounds = [2.0 * gevrey_norm(b, index) + 1e-6 for b in bumps]
    monotone = all(a > b for a, b in zip(report.distances, report.distances[1:]))
    within = all(d <= b for d, b in zip(report.distances, bounds))
    ok = monotone and within and all(report.within_bounds)
    pairs = ", ".join(
        f"{d:.3e}<={b:.3e}" for d, b in zip(report.distances, bounds)
    )
    _criterion(10, ok, f"distances decrease ({monotone}) and obey bounds: {pairs}")


def test_criterion_11_regression_pins():
    packaged = load_pins()
    fresh = compute_pins(seed=42)
    finite = all(
        math.isfinite(v) and v > 0.0
        for v in (
            fresh.C_s_algebra,
            fresh.C_bar_s,
            fresh.C_sym_lemma,
            fresh.C_commutator,
        )
    )
    stable = (
        abs(fresh.C_s_algebra - packaged.C_s_algebra) <= 1e-12 * packaged.C_s_algebra
        and abs(fresh.C_bar_s - packaged.C_bar_s) <= 1e-12 * packaged.C_bar_s
        and abs(fresh.C_sym_lemma - packaged.C_sym_lemma)
        <= 1e-12 * packaged.C_sym_lemma
        and abs(fresh.C_commutator - packaged.C_commutator)
        <= 1e-12 * packaged.C_commutator
    )
    alg = verify_algebra(pins=packaged)
    sym = verify_symbol_lemma(pins=packaged)
    com = verify_commutator_estimate(pins=packaged)
    clean = alg.violations == 0 and sym.violations == 0 and com.violations == 0
    ok = finite and stable and clean
    _criterion(
        11,
        ok,
        f"pins finite={finite}, seed-42 recompute matches packaged={stable}, "
        f"re-run violations {alg.violations}+{sym.violations}+{com.violations}=0",
    )
