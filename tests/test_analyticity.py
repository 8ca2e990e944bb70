"""Radius measurement, existence-window constants, width schedule, weighted
sup norm, and the width lower-bound ODE.

Frozen oracles: synthetic fields with exactly exponential coefficients make
the decay fit's answer known in closed form; the sigma = 1 width schedule is
an explicit straight line; a single-time family reduces the weighted sup norm
to a finite max computable with plain floats.
"""

import dataclasses
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chgevrey import analyticity
from chgevrey import (
    CalibrationError,
    ContinuitySpec,
    ExperimentError,
    Trajectory,
    GevreyIndex,
    ModelParams,
    NormOverflowError,
    SolverConfig,
    SpectralField,
    TorusGrid,
    WindowError,
    calibrate_radius_constant,
    continuity_experiment,
    delta_of_tau,
    ea_norm,
    estimate_radius,
    field_from_modes,
    functional_H,
    gevrey_norm,
    integrate,
    lifespan_bounds,
    random_field,
    sobolev_norm,
    track_radius,
    width_bound,
)
from chgevrey.spectral import logsumexp_modes

from oracles import delta_of_tau_window, ea_norm_unfolded, ea_pair_scores

GRID = TorusGrid(64)
P = ModelParams(alpha=1.0, beta=1.0, gamma=1.0, Gamma_coef=0.5, lam=1.0)


def exp_decay_field(grid=GRID, rate=0.8, amp=0.01, m_max=20, root=1.0):
    """c_m = amp * exp(-rate * m**root) for 0 <= m <= m_max, mirrored."""
    return field_from_modes(
        grid, {m: amp * math.exp(-rate * m**root) for m in range(m_max + 1)}
    )


# --- decay-rate fit ------------------------------------------------------------


def test_fit_recovers_exact_exponential_rate():
    est = estimate_radius(exp_decay_field(rate=0.3), sigma=1.0)
    assert abs(est.delta_fit - 0.3) <= 1e-10
    assert abs(est.intercept - math.log(0.01)) <= 1e-9
    assert est.residual <= 1e-10
    assert est.modes_used == (2, 20)


def test_fit_recovers_sub_exponential_rate_for_sigma_two():
    field = exp_decay_field(rate=0.6, root=0.5)
    est = estimate_radius(field, sigma=2.0)
    assert abs(est.delta_fit - 0.6) <= 1e-10
    assert est.residual <= 1e-10


def test_fit_stops_at_the_noise_floor():
    amps = {m: 0.01 * math.exp(-0.5 * m) for m in range(11)}
    amps.update({m: 1e-30 for m in range(11, 25)})
    est = estimate_radius(field_from_modes(GRID, amps), sigma=1.0)
    assert est.modes_used == (2, 10)


def test_fit_needs_eight_modes():
    enough = field_from_modes(GRID, {m: math.exp(-0.4 * m) for m in range(10)})
    est = estimate_radius(enough, sigma=1.0)
    assert est.modes_used == (2, 9)
    too_few = field_from_modes(GRID, {m: math.exp(-0.4 * m) for m in range(9)})
    _assert_unfitted(too_few)


def _assert_unfitted(field):
    """The fit of a single field it cannot fit reads NaN floats throughout,
    with no RuntimeWarning from the masked arithmetic."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = estimate_radius(field, sigma=1.0)
    values = (est.delta_fit, est.intercept, est.residual, *est.modes_used)
    assert all(isinstance(v, float) and math.isnan(v) for v in values)


def test_fit_rejects_single_mode_and_zero_fields():
    _assert_unfitted(field_from_modes(GRID, {1: 0.5}))
    _assert_unfitted(field_from_modes(GRID, {}))
    with pytest.raises(ValueError, match="sigma must be >= 1"):
        estimate_radius(exp_decay_field(), sigma=0.5)


def _first_fit(field):
    """The original per-field walk: a Python scan of modes 2..n/2 that stops at
    the first coefficient below the noise floor; (first, last) mode fitted."""
    grid = field.grid
    mags = np.abs(field.coeffs)
    floor = 1e-14 * float(np.max(mags))
    ms = []
    for m in range(2, grid.n_points // 2 + 1):
        if mags[grid.index_of(m)] < floor:
            break
        ms.append(m)
    return ms[0], ms[-1]


def _exact_line(x, y):
    """(slope, intercept) of the least-squares line through the float points
    (x, y), in exact rational arithmetic."""
    xs, ys = [Fraction(v) for v in x], [Fraction(v) for v in y]
    x_bar, y_bar = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = sum((a - x_bar) * (b - y_bar) for a, b in zip(xs, ys)) / sum(
        (a - x_bar) ** 2 for a in xs
    )
    return slope, y_bar - slope * x_bar


def _hexes(*values):
    return [float(v).hex() for v in values]


def _fit_rows(grid):
    """One field per case the batched scan must reproduce row by row."""
    half = grid.n_points // 2
    rng = np.random.default_rng(11)
    rows = [
        # stops at the noise floor after mode 10
        {**{m: 0.01 * math.exp(-0.5 * m) for m in range(11)}, **{m: 1e-30 for m in range(11, 25)}},
        # no mode below the floor: the scan stops at slot n/2, which holds zero
        {m: math.exp(-0.05 * m) for m in range(half)},
        # 7 modes (2..8) above the floor: too few to fit
        {m: math.exp(-0.4 * m) for m in range(9)},
        # identically zero
        {},
    ]
    fields = [field_from_modes(grid, amps) for amps in rows]
    for rate in (0.3, 0.8, 1.7):  # random phases and a rough floor of noise
        amps = {m: math.exp(-rate * m) * np.exp(2j * math.pi * rng.random()) for m in range(half)}
        noise = 1e-17 * random_field(grid, rng, band=half - 1)
        fields.append(field_from_modes(grid, amps) + noise)
    return fields


@pytest.mark.parametrize("sigma", [1.0, 2.0])
@pytest.mark.parametrize("period", [2.0 * math.pi, 3.0])
def test_batched_fit_rows_equal_single_field_calls(sigma, period):
    grid = TorusGrid(64, period)
    fields = _fit_rows(grid)
    batch = estimate_radius(SpectralField(grid, np.stack([f.coeffs for f in fields])), sigma)
    assert batch.delta_fit.shape == (len(fields),)
    seen = set()
    for i, field in enumerate(fields):
        row = (
            batch.delta_fit[i], batch.intercept[i], batch.residual[i],
            batch.modes_used[0][i], batch.modes_used[1][i],
        )
        est = estimate_radius(field, sigma)
        assert _hexes(*row) == _hexes(est.delta_fit, est.intercept, est.residual, *est.modes_used)
        seen.add("nan row" if math.isnan(est.delta_fit) else est.modes_used[1])
    # the floor stop, the stop at slot n/2 and the unfitted NaN rows were all exercised
    assert {10, grid.n_points // 2 - 1, "nan row"} <= seen


@pytest.mark.parametrize("sigma", [1.0, 2.0])
def test_fit_matches_exact_least_squares(sigma):
    # the fitted modes are the walk's, and the line is within a few ulps of the
    # exact least-squares line through the same float abscissae and logs
    rng = np.random.default_rng(5)
    for n, period in ((64, 2.0 * math.pi), (128, 2.0 * math.pi), (128, 0.7)):
        grid = TorusGrid(n, period)
        for _ in range(40):
            rate = rng.uniform(0.05, 2.5)
            amps = {
                m: math.exp(-rate * m) * np.exp(2j * math.pi * rng.random())
                for m in range(n // 2)
            }
            field = field_from_modes(grid, amps) + 1e-16 * random_field(grid, rng)
            est = estimate_radius(field, sigma)
            lo, hi = _first_fit(field)
            assert est.modes_used == (lo, hi)
            x = grid.wavenumbers[lo : hi + 1] ** (1.0 / sigma)
            y = np.log(np.abs(field.coeffs[lo : hi + 1]))
            slope, intercept = _exact_line(x.tolist(), y.tolist())
            assert abs(Fraction(est.delta_fit) + slope) <= 8 * Fraction(math.ulp(float(slope)))
            y_ulp = math.ulp(float(np.max(np.abs(y))))
            assert abs(Fraction(est.intercept) - intercept) <= 8 * Fraction(y_ulp)


def test_unfitted_batch_rows_stay_quiet():
    grid = TorusGrid(64)
    rows = [
        {},  # identically zero
        {m: math.exp(-0.4 * m) for m in range(9)},  # 7 modes, 2..8
        {**{m: 0.01 * math.exp(-0.5 * m) for m in range(11)}, **{m: 1e-30 for m in range(11, 25)}},
        {m: math.exp(-0.05 * m) for m in range(32)},  # stops at slot n/2
    ]
    batch = SpectralField(grid, np.stack([field_from_modes(grid, amps).coeffs for amps in rows]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = estimate_radius(batch, 1.0)
    fields = (est.delta_fit, est.intercept, est.residual, *est.modes_used)
    assert all(np.isnan(f[:2]).all() for f in fields)
    assert all(np.isfinite(f[2:]).all() for f in fields)
    assert est.modes_used[1][2:].tolist() == [10.0, 31.0]


# --- existence-window constants ------------------------------------------------


def test_lifespan_constants_for_zero_datum():
    lb = lifespan_bounds(0.0, sigma=1.0)
    base = math.exp(-1.0) + 2.0
    assert lb.R == 1.0
    assert lb.M == 0.0
    assert abs(lb.L - 16.0 * base) <= 1e-12
    assert lb.D_sigma == 4.0
    assert abs(lb.T0_closed_form - 1.0 / (1024.0 * base)) <= 1e-18
    # 1/(1024*(e^-1+2)) = 4.1242070...e-4
    assert abs(lb.T0_closed_form - 4.12420701417e-4) <= 1e-11


def _min_form(lb, sigma):
    """The paper's window min(1/(2^(2sigma+4) L), (2^sigma-1)R /
    ((2^sigma-1) 2^(2sigma+3) L R + M D_sigma)), by hand from the constants."""
    two_sig = 2.0**sigma - 1.0
    first = 1.0 / (2.0 ** (2 * sigma + 4) * lb.L)
    second = two_sig * lb.R / (two_sig * 2.0 ** (2 * sigma + 3) * lb.L * lb.R + lb.M * lb.D_sigma)
    return first, second


def test_lifespan_closed_form_equals_first_min_branch():
    # the first branch is the closed form with powers of 2 moved, and the second
    # never undercuts it: (2^sigma-1) 2^(2sigma+8) R >= ||u0|| D_sigma
    for norm in (0.0, 0.3, 1.0, 7.5):
        lb = lifespan_bounds(norm, sigma=1.0)
        first_branch, second_branch = _min_form(lb, 1.0)
        assert abs(lb.T0_closed_form - first_branch) <= 1e-15 * first_branch
        assert second_branch >= first_branch
        assert (2.0 - 1.0) * 2.0**10 * lb.R >= norm * lb.D_sigma


@settings(max_examples=200, deadline=None)
@given(
    norm=st.floats(min_value=0.0, max_value=100.0),
    sigma=st.floats(min_value=1.0, max_value=3.0),
)
def test_lifespan_closed_form_never_beats_the_min(norm, sigma):
    lb = lifespan_bounds(norm, sigma)
    first_branch, second_branch = _min_form(lb, sigma)
    assert lb.T0_closed_form == pytest.approx(min(first_branch, second_branch), rel=1e-14)
    assert lb.D_sigma <= 4.0 and lb.T0_closed_form > 0.0


def test_lifespan_shrinks_with_the_datum():
    values = [lifespan_bounds(x, 1.0).T0_closed_form for x in (0.0, 0.5, 1.0, 2.0)]
    assert values == sorted(values, reverse=True)


def test_lifespan_validation():
    with pytest.raises(ValueError):
        lifespan_bounds(-0.1, 1.0)
    with pytest.raises(ValueError):
        lifespan_bounds(1.0, 0.5)
    with pytest.raises(ValueError):
        lifespan_bounds(1.0, 1.0, c_prime=0.0)


def test_lifespan_overflow_raises_the_norm_error():
    # R^4 past the float range; sigma^sigma past the float range: the window
    # underflows, and the message names the window norm
    for norm, sigma in ((1e100, 1.0), (1.0, 200.0)):
        with pytest.raises(NormOverflowError, match=re.escape(f"window norm {norm:.3g}")):
            lifespan_bounds(norm, sigma)
    # R^4 finite but M = (base/2)||u0|| R^4 not: M reads inf, the window is finite
    lb = lifespan_bounds(1e70, 1.0)
    assert lb.M == math.inf and math.isfinite(lb.L)
    assert lb.T0_closed_form == analyticity._closed_window(1.0 + 1e70, 1.0, 1.0)[2] > 0.0


@pytest.mark.parametrize("sigma", [1.0, 2.0, 3.5])
def test_the_log_window_is_the_log_of_the_closed_form(sigma):
    for norm in (0.0, 0.5, 3.0, 1e10, 1e60):
        for c_prime in (1.0, 1.3):
            t0 = analyticity._closed_window(1.0 + norm, sigma, c_prime)[2]
            log10_t0 = analyticity._log10_window(norm, sigma, c_prime)
            assert log10_t0 == pytest.approx(math.log10(t0), rel=1e-14, abs=1e-13)
    # finite where the closed form underflows or sigma^sigma overflows
    assert math.isfinite(analyticity._log10_window(1e100, sigma, 1.0))
    assert math.isfinite(analyticity._log10_window(1.0, 200.0, 1.0))


def test_existence_window_stays_finite_where_its_closed_form_is():
    # at this window norm the min form's L*R overflows and the closed form does not
    u0 = field_from_modes(TorusGrid(64), {30: 1e49})
    norm0 = analyticity.window_norm(u0, 1.0, 2.0)
    assert 1e65 < norm0 < 1e66
    window = analyticity.existence_window(u0, 1.0, 2.0)
    assert window == analyticity._closed_window(1.0 + norm0, 1.0, 1.0)[2] > 0.0
    assert window == lifespan_bounds(norm0, 1.0).T0_closed_form
    with pytest.raises(ValueError, match="c_prime"):
        analyticity.existence_window(u0, 1.0, 2.0, c_prime=0.0)
    # and the window is the lifespan bound's closed form at every sigma
    small = field_from_modes(TorusGrid(64), {3: 0.1})
    for sigma in (1.0, 1.5, 2.0):
        lb = lifespan_bounds(analyticity.window_norm(small, sigma, 2.0), sigma, 1.3)
        window = analyticity.existence_window(small, sigma, 2.0, c_prime=1.3)
        assert window == lb.T0_closed_form / (2.0**sigma - 1.0)


# --- width schedule -------------------------------------------------------------


def test_schedule_is_a_line_for_sigma_one():
    # (1+delta)/2 - tau/(2a) at delta=0.25, a=2
    assert delta_of_tau(0.0, 0.25, 1.0, 2.0) == 0.625
    assert abs(delta_of_tau(0.5, 0.25, 1.0, 2.0) - 0.5) <= 1e-15
    for tau in np.linspace(0.0, 1.5, 7):
        expected = 0.625 - tau / 4.0
        assert abs(delta_of_tau(tau, 0.25, 1.0, 2.0) - expected) <= 1e-14


def test_schedule_starts_at_the_midpoint_and_ends_at_delta():
    for sigma in (1.0, 1.5, 2.0, 3.0):
        for delta in (0.1, 0.5, 0.9):
            # a = 1 makes tau/a exact, so the endpoint identity holds to ulps;
            # fractional a leaves ~1 ulp in the root argument, which the
            # sigma-th root amplifies to ~1e-6
            window = delta_of_tau_window(delta, sigma, 1.0)
            assert delta_of_tau(0.0, delta, sigma, 1.0) == (1.0 + delta) / 2.0
            assert abs(delta_of_tau(window, delta, sigma, 1.0) - delta) <= 1e-12
            rough = delta_of_tau_window(delta, sigma, 0.7)
            assert abs(delta_of_tau(rough, delta, sigma, 0.7) - delta) <= 1e-5


def test_schedule_window_errors():
    with pytest.raises(WindowError):
        delta_of_tau(1.1 * delta_of_tau_window(0.3, 2.0, 1.0), 0.3, 2.0, 1.0)
    with pytest.raises(WindowError):
        delta_of_tau(-1e-9, 0.3, 2.0, 1.0)
    with pytest.raises(ValueError):
        delta_of_tau(0.1, 1.0, 2.0, 1.0)  # delta must be < 1
    with pytest.raises(ValueError, match="sigma must be >= 1"):
        delta_of_tau(0.1, 0.3, 0.5, 1.0)
    with pytest.raises(ValueError, match="a must be positive"):
        delta_of_tau(0.1, 0.3, 2.0, 0.0)


@settings(max_examples=200, deadline=None)
@given(
    sigma=st.floats(min_value=1.0, max_value=3.0),
    delta=st.floats(min_value=0.05, max_value=0.9),
    a=st.floats(min_value=0.1, max_value=10.0),
    frac=st.floats(min_value=0.0, max_value=1.0),
)
def test_schedule_stays_between_delta_and_one(sigma, delta, a, frac):
    tau = frac * delta_of_tau_window(delta, sigma, a)
    value = delta_of_tau(tau, delta, sigma, a)
    assert delta - 1e-12 <= value <= (1.0 + delta) / 2.0 + 1e-12
    if frac < 0.999:
        assert delta < value < 1.0


# --- weighted sup norm ----------------------------------------------------------


def rows(*fields):
    """The fields stacked as one batch, one row per time."""
    return SpectralField(fields[0].grid, np.stack([f.coeffs for f in fields]))


def test_single_time_family_reduces_to_a_grid_max():
    u = field_from_modes(GRID, {1: 0.5})  # cos x
    got = ea_norm([0.0], rows(u), a=1.0, sigma=1.0, s=0.0)
    expected = max(
        math.sqrt(2.0 * math.exp(2.0 * d * math.sqrt(2.0)) * 0.25) * (1.0 - d)
        for d in np.linspace(0.05, 0.95, 19)
    )
    assert abs(got - expected) <= 1e-12 * expected


def test_sup_norm_is_homogeneous():
    u = field_from_modes(GRID, {1: 0.5, 3: 0.1})
    times = [0.0, 0.2, 0.4]
    fields = rows(u, 0.5 * u, 0.25 * u)
    one = ea_norm(times, fields, a=1.0, sigma=1.0, s=2.0)
    three = ea_norm(times, 3.0 * fields, a=1.0, sigma=1.0, s=2.0)
    assert abs(three - 3.0 * one) <= 1e-12 * three


def test_sup_norm_ignores_inadmissible_times():
    u = field_from_modes(GRID, {1: 0.5})
    alone = ea_norm([0.0], rows(u), a=1.0, sigma=1.0, s=0.0)
    padded = ea_norm([0.0, 0.96], rows(u, 1000.0 * u), a=1.0, sigma=1.0, s=0.0)
    assert padded == alone


def test_sup_norm_window_and_validation_errors():
    u = field_from_modes(GRID, {1: 0.5})
    with pytest.raises(WindowError):
        ea_norm([0.96], rows(u), a=1.0, sigma=1.0, s=0.0)
    with pytest.raises(WindowError):
        empty = SpectralField(GRID, np.zeros((0, GRID.n_points // 2 + 1)))
        ea_norm([], empty, a=1.0, sigma=1.0, s=0.0)
    with pytest.raises(ValueError):
        ea_norm([0.0, 0.1], rows(u), a=1.0, sigma=1.0, s=0.0)
    with pytest.raises(ValueError, match="sigma must be >= 1"):
        ea_norm([0.0], rows(u), a=1.0, sigma=0.5, s=0.0)
    with pytest.raises(ValueError, match="a must be positive"):
        ea_norm([0.0], rows(u), a=0.0, sigma=1.0, s=0.0)
    assert ea_norm([0.0], rows(0.0 * u), a=1.0, sigma=1.0, s=0.0) == 0.0


def test_sup_norm_is_finite_up_to_the_float_range():
    # a constant e^709.3 peaks at width 0.05: e^709.35 * 0.95 ~ 1.1e308 is a
    # double, though its log lies past the old cutoff of 709
    u = field_from_modes(TorusGrid(8), {0: math.exp(709.3)})
    got = ea_norm([0.0], rows(u), a=1.0, sigma=1.0, s=0.0)
    assert got == pytest.approx(math.exp(709.35 + math.log(0.95)), rel=1e-12)
    past = field_from_modes(TorusGrid(8), {3: 1e307})
    with pytest.raises(NormOverflowError):
        ea_norm([0.0], rows(past), a=1.0, sigma=1.0, s=2.0)


def _norm_or_error(norm, *args, **kw):
    try:
        return float.hex(norm(*args, **kw))
    except (WindowError, NormOverflowError) as exc:
        return type(exc).__name__


def test_sup_norm_equals_the_unfolded_oracle_bit_for_bit():
    rng = np.random.default_rng(23)
    grid = TorusGrid(64)
    half = grid.n_points // 2
    outcomes = set()
    for case in range(240):
        sigma, s = [(1.0, 0.0), (1.0, 2.0), (2.0, 0.0), (2.0, 2.0)][case % 4]
        rows_ = int(rng.integers(1, 9))
        times = rng.uniform(0.0, 1.0, rows_) * rng.choice([-1.0, 1.0], rows_)
        top = [-300.0, rng.uniform(-300.0, 300.0), 0.0, 300.0][case // 4 % 4]
        mags = 10.0 ** (top + rng.uniform(-8.0, 0.0, (rows_, half + 1)))
        coeffs = mags * np.exp(2j * np.pi * rng.random((rows_, half + 1)))
        coeffs[:, 0] = coeffs[:, 0].real
        coeffs[:, half] = 0.0
        coeffs[rng.random((rows_, half + 1)) < 0.1] = 0.0  # vanishing coefficients
        coeffs[rng.random(rows_) < 0.3] = 0.0  # zero rows, admissible or not
        fields = SpectralField(grid, coeffs)
        got = _norm_or_error(ea_norm, times, fields, a=1.0, sigma=sigma, s=s)
        assert got == _norm_or_error(ea_norm_unfolded, times, fields, 1.0, sigma, s)
        outcomes.add(got if got in ("WindowError", "NormOverflowError", "0x0.0p+0") else "finite")
    assert outcomes == {"WindowError", "NormOverflowError", "0x0.0p+0", "finite"}

    # peaked batches: small rounding-level noise, heaviest in the top modes,
    # whose sup sits at the wide widths; then rows 0 and 1 tie for the sup
    ramp = np.linspace(0.0, 1.0, half + 1) ** 4
    for case in range(48):
        sigma, s = [(1.0, 0.0), (1.0, 2.0), (2.0, 0.0), (2.0, 2.0)][case % 4]
        rows_ = int(rng.integers(2, 33))
        times = rng.uniform(0.0, 0.01, rows_)
        scale = 10.0 ** rng.uniform(-40.0, -10.0, (rows_, 1))
        coeffs = scale * ramp * rng.standard_normal((rows_, half + 1))
        coeffs[:, half] = 0.0
        if case % 2:
            coeffs[:2] = coeffs[0] * (1e3 * scale.max() / scale[0, 0])
            times[:2] = [0.1 * times[0], -0.1 * times[0]]
        fields = SpectralField(grid, coeffs)
        got = _norm_or_error(ea_norm, times, fields, a=1.0, sigma=sigma, s=s)
        assert got == _norm_or_error(ea_norm_unfolded, times, fields, 1.0, sigma, s)
        scores = ea_pair_scores(times, fields, 1.0, sigma, s)
        peak = np.argmax(np.max(scores, axis=1))
        assert analyticity.EA_DELTA_GRID[peak] > 0.5  # the sup lies at a wide width
        if case % 2:
            assert np.max(scores[:, 0]) == np.max(scores[:, 1]) == np.max(scores)

    # at t = 0.94 only the narrowest width is admissible; there a flat row's
    # n - 1 equal terms (slot n/2 holds zero) lie log(n - 1) - 1e-6 below a
    # mean-only row's one term, so only the flat row's full tail lifts it above
    k2 = grid.wavenumbers**2
    flat = np.exp(-0.5 * (2.0 * np.log1p(k2) + 2.0 * 0.05 * np.sqrt(1.0 + k2)))
    flat[half] = 0.0
    spike = np.zeros(half + 1)
    spike[0] = flat[0] * math.sqrt((grid.n_points - 1) * math.exp(-1e-6))
    fields = SpectralField(grid, np.stack([spike, flat]))
    times = [0.94, -0.94]
    scores = ea_pair_scores(times, fields, 1.0, 1.0, 2.0)
    assert np.max(scores[:, 1]) == np.max(scores) > np.max(scores[:, 0])
    assert ea_norm(times, fields, 1.0, 1.0, 2.0) == ea_norm_unfolded(times, fields, 1.0, 1.0, 2.0)

    # the one admissible row is zero; the nonzero row lies past every window
    u = field_from_modes(grid, {1: 1e300, 3: 1e-300})
    only_zero = rows(0.0 * u, u)
    assert ea_norm([0.01, 0.97], only_zero, a=1.0, sigma=1.0, s=2.0) == 0.0
    assert ea_norm_unfolded([0.01, 0.97], only_zero, 1.0, 1.0, 2.0) == 0.0


def test_sup_norm_equals_the_oracle_when_its_pairs_span_many_blocks(monkeypatch):
    # batches of over 3000 rows: the one-product bound leaves only the pair
    # that holds the sup, where pruning by the top + log n bracket alone
    # scored thousands of rows in several blocks (the counts below); a NaN
    # row's bound is NaN, so it is scored first and ends the scoring
    calls = []
    rows_at_the_bracket_prune = (16456, 5233, 31320, 7677)

    def spy(terms):
        calls.append(len(terms))
        return logsumexp_modes(terms)

    monkeypatch.setattr(analyticity, "logsumexp_modes", spy)
    rng = np.random.default_rng(31)
    grid = TorusGrid(16)
    u = field_from_modes(grid, {1: 0.5, 2: 0.2, 3: 0.05})
    for case in range(4):
        sigma, s = [(1.0, 2.0), (2.0, 0.0)][case % 2]
        size = 3000 + 500 * case
        times = rng.uniform(-1.0, 1.0, size)  # unsorted, of both signs
        coeffs = u.coeffs * (1.0 + 0.1 * rng.random((size, 1)))
        coeffs[rng.random(size) < 0.2] = 0.0  # zero rows
        if case >= 2:
            coeffs[-1, 2] = np.nan  # a NaN row late in the batch
            times[-1] = 0.1
        fields = u.with_coeffs(coeffs)
        calls.clear()
        got = ea_norm(times, fields, a=1.0, sigma=sigma, s=s)
        assert float.hex(got) == float.hex(ea_norm_unfolded(times, fields, 1.0, sigma, s))
        assert math.isnan(got) == (case >= 2)
        assert calls == [1] and sum(calls) < rows_at_the_bracket_prune[case]
    # cos x at t = 0 and s = 0 scores delta 2^(1/(2 sigma)) + sigma log(1 - delta)
    # up to a constant, which ties at widths 0.05 and 0.1 where 2^(1/(2 sigma))
    # / sigma = 20 log(0.95 / 0.9): 1100 equal rows leave 2 * 1100 - 1 pairs
    # within the margin after the first, two blocks of at most 1100
    lo, hi = 1.0, 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if 2.0 ** (0.5 / mid) / mid > 20.0 * math.log(0.95 / 0.9) else (lo, mid)
    cos = field_from_modes(grid, {1: 0.5})
    fields = cos.with_coeffs(np.repeat(cos.coeffs[None], 1100, axis=0))
    times = np.zeros(1100)
    scores = ea_pair_scores(times, fields, 1.0, lo, 0.0)
    assert abs(scores[0, 0] - scores[1, 0]) < 1e-12 and scores[1, 0] > scores[2, 0]
    calls.clear()
    got = ea_norm(times, fields, a=1.0, sigma=lo, s=0.0)
    assert float.hex(got) == float.hex(ea_norm_unfolded(times, fields, 1.0, lo, 0.0))
    assert calls == [1, 1100, 1099]
    # one row, and one live row among zero rows
    for fields in (rows(u), rows(0.0 * u, u, 0.0 * u)):
        times = np.linspace(-0.3, 0.2, len(fields.coeffs))
        got = ea_norm(times, fields, a=1.0, sigma=1.0, s=2.0)
        assert float.hex(got) == float.hex(ea_norm_unfolded(times, fields, 1.0, 1.0, 2.0))


def test_zero_rows_count_for_admissibility_but_never_reach_the_log_sum_exp(monkeypatch):
    seen = []

    def spy(terms):
        seen.append(terms.copy())
        return logsumexp_modes(terms)

    monkeypatch.setattr(analyticity, "logsumexp_modes", spy)
    u = field_from_modes(GRID, {1: 0.5, 3: 0.1, 7: 1e-3})
    times = np.array([0.0, 0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.9])
    fields = rows(u, 0.0 * u, 0.5 * u, 0.0 * u, 0.25 * u, 2.0 * u, 0.0 * u, u)
    got = ea_norm(times, fields, a=1.0, sigma=1.0, s=2.0)
    assert float.hex(got) == float.hex(ea_norm_unfolded(times, fields, 1.0, 1.0, 2.0))
    assert not any(np.any(np.all(terms == -np.inf, axis=-1)) for terms in seen)
    # each scored row is the terms of a live admissible (width, time) pair; rows
    # 0 and 7 hold the same field, so a scored row stands for the best-scoring
    # pair it matches that is not yet taken
    live = np.array([True, False, True, False, True, True, False, True])
    scores = ea_pair_scores(times, fields, 1.0, 1.0, 2.0)
    unscored = {
        (j, r)
        for j, d in enumerate(analyticity.EA_DELTA_GRID)
        for r in range(len(times))
        if live[r] and times[r] < 1.0 - d
    }
    k2 = GRID.wavenumbers**2
    weights = [2.0 * np.log1p(k2) + 2.0 * d * np.sqrt(1.0 + k2) for d in analyticity.EA_DELTA_GRID]
    with np.errstate(divide="ignore"):
        log_mag2 = 2.0 * np.log(np.abs(fields.coeffs))
    scored = [row for terms in seen for row in terms]
    for row in scored:
        match = [(j, r) for j, r in unscored if np.allclose(row, log_mag2[r] + weights[j])]
        assert match, "a scored row is no live admissible pair"
        unscored.remove(max(match, key=lambda jr: scores[jr]))
    assert 0 < len(scored) and unscored
    # a pair left out of the log-sum-exp scores strictly below the sup
    assert all(scores[jr] < np.max(scores) for jr in unscored)
    # admissibility is decided on all times, zero rows included
    assert ea_norm([0.01, 0.97], rows(0.0 * u, u), a=1.0, sigma=1.0, s=2.0) == 0.0
    with pytest.raises(WindowError):
        ea_norm([0.96], rows(0.0 * u), a=1.0, sigma=1.0, s=0.0)


def _stress_batch(rng, grid, kind):
    """A batch of 2-8 rows of one of four kinds, with its times."""
    half = grid.n_points // 2
    size = int(rng.integers(2, 9))
    m = np.arange(half + 1)
    top = rng.uniform(-300.0, 100.0, (size, 1))  # log10 of each row's largest |c|
    if kind == 0:  # random magnitudes spread over 8 decades below the top
        log10_mags = top + rng.uniform(-8.0, 0.0, (size, half + 1))
    elif kind == 1:  # steep decay: the product's sums underflow at the wide widths
        log10_mags = top - rng.uniform(0.2, 2.0, (size, 1)) * m
    elif kind == 2:  # rounding-level noise, heaviest in the top modes
        log10_mags = top + 4.0 * (m / half) ** 4 - 4.0
    else:  # flat rows, every term equal
        log10_mags = np.broadcast_to(top, (size, half + 1))
    phases = np.exp(2j * np.pi * rng.random((size, half + 1)))
    coeffs = 10.0 ** np.maximum(log10_mags, -320.0) * phases
    coeffs[:, 0] = coeffs[:, 0].real
    coeffs[:, half] = 0.0
    coeffs[rng.random((size, half + 1)) < 0.1] = 0.0  # vanishing coefficients
    coeffs[rng.random(size) < 0.2] = 0.0  # zero rows
    times = rng.uniform(-0.6, 0.6, size)
    times[rng.random(size) < 0.2] = 0.0
    if kind == 3:  # equal rows at +t and -t tie
        coeffs[1], times[1] = coeffs[0], -times[0]
    spoil = rng.random()
    if spoil < 0.15:
        coeffs[-1, int(rng.integers(half))] = np.nan
    elif spoil < 0.3:
        coeffs[-1, int(rng.integers(half))] = np.inf
    return times, SpectralField(grid, np.zeros(half + 1)).with_coeffs(coeffs)


def test_every_pair_lies_within_its_bound_and_the_sup_is_the_oracles():
    # the one-product bound, +inf where its sum underflows, holds every
    # (width, live row) pair's computed log-sum-exp on batches from n = 8 to
    # 1024 with magnitudes from 1e-320 to 1e100, zero modes and rows, NaN and
    # inf rows and tied sups; each value is the unfolded oracle's bit for bit
    rng = np.random.default_rng(53)
    loose = tight = tied = batches = 0
    for n in (8, 16, 64, 256, 1024):
        grid = TorusGrid(n)
        k2 = grid.wavenumbers**2
        for sigma in (1.0, 1.5, 2.0, 3.0):
            gevrey_root = (1.0 + k2) ** (1.0 / (2.0 * sigma))
            for s in (0.0, 1.0, 2.0, 3.5):
                times, fields = _stress_batch(rng, grid, kind=batches % 4)
                batches += 1
                got = _norm_or_error(ea_norm, times, fields, a=1.0, sigma=sigma, s=s)
                assert got == _norm_or_error(ea_norm_unfolded, times, fields, 1.0, sigma, s)
                scores = ea_pair_scores(times, fields, 1.0, sigma, s)
                tied += np.isfinite(np.max(scores)) and np.sum(scores == np.max(scores)) > 1
                live = fields.coeffs[np.any(fields.coeffs != 0.0, axis=-1)]
                with np.errstate(divide="ignore"):
                    log_mag2 = 2.0 * np.log(np.abs(live))
                log_w = s * np.log1p(k2) + (2.0 * analyticity.EA_DELTA_GRID)[:, None] * gevrey_root
                widths, pair_rows = np.indices((len(log_w), len(live))).reshape(2, -1)
                bound = analyticity._lse_upper(log_mag2, log_w, pair_rows, widths, grid)
                exact = logsumexp_modes(log_mag2[pair_rows] + log_w[widths])
                assert not np.any(exact > bound)
                assert np.array_equal(np.isnan(bound), np.isnan(exact))
                finite = np.isfinite(exact)
                gap = bound[finite] - exact[finite]
                loose += np.sum(gap > 1.0)  # the infinite bound past underflow
                tight += np.sum(gap < 1e-6)
    assert loose > 0 and tight > 0 and tied > 0


def test_a_datum_past_the_product_bound_scores_no_more_rows_than_the_bracket_did(monkeypatch):
    # at n = 1024 an e^-m datum's wide-width sums underflow below 2^-900, so
    # those pairs get an infinite bound and are scored exactly; the rows scored
    # stay at or under the counts that pruning by a top + log n bracket scored
    calls = []

    def spy(terms):
        calls.append(len(terms))
        return logsumexp_modes(terms)

    monkeypatch.setattr(analyticity, "logsumexp_modes", spy)
    grid = TorusGrid(1024)
    u = field_from_modes(grid, {m: math.exp(-m) for m in range(512)})
    fields = u.with_coeffs(u.coeffs * (1.0 + 0.01 * np.arange(32))[:, None])
    times = np.linspace(0.0, 0.5, 32)
    k2 = grid.wavenumbers**2
    with np.errstate(divide="ignore"):
        log_mag2 = 2.0 * np.log(np.abs(fields.coeffs))
    scaled = np.exp(log_mag2 - log_mag2.max(axis=-1, keepdims=True)) * grid.multiplicity
    for s, rows_by_the_bracket in ((2.0, 460), (0.0, 462)):
        calls.clear()
        got = ea_norm(times, fields, a=1.0, sigma=1.0, s=s)
        assert float.hex(got) == float.hex(ea_norm_unfolded(times, fields, 1.0, 1.0, s))
        assert 0 < sum(calls) <= rows_by_the_bracket
        log_w = s * np.log1p(k2) + 2.0 * analyticity.EA_DELTA_GRID[:, None] * np.sqrt(1.0 + k2)
        sums = scaled @ np.exp(log_w.T - log_w.max(axis=-1))
        assert np.any(sums < 2.0**-900)  # some pairs take the infinite bound


def test_sup_norm_reads_nan_when_an_admissible_row_is_nan():
    # the NaN row's scores used to lose every max, so they dropped widths
    # silently: 0.505 here, where u alone at t = 0 gives 1.513
    u = field_from_modes(TorusGrid(16), {1: 0.5})
    spoiled = u.coeffs.copy()
    spoiled[2] = np.nan
    batch = u.with_coeffs(np.stack([u.coeffs, spoiled]))
    assert math.isnan(ea_norm([0.0, 0.1], batch, a=1.0, sigma=1.0, s=2.0))
    all_nan = u.with_coeffs(np.full_like(batch.coeffs, np.nan))
    assert math.isnan(ea_norm([0.0, 0.1], all_nan, a=1.0, sigma=1.0, s=2.0))
    # a NaN row past every window is not scored
    assert ea_norm([0.0, 0.97], batch, 1.0, 1.0, 2.0) == ea_norm([0.0], rows(u), 1.0, 1.0, 2.0)
    assert math.isnan(ea_norm_unfolded([0.0, 0.1], batch, 1.0, 1.0, 2.0))


# --- width lower-bound ODE ------------------------------------------------------


def test_ode_starts_at_delta0():
    thetas, fs = width_bound([0.0], [1.0], 3.0, c_cal=2.0, delta0=0.5)
    assert thetas == [0.5]
    assert fs == [math.sqrt(2.0 * 16.0)]


def test_ode_with_constant_b_matches_the_exact_solution():
    # b = 1, C = 1: f^2 = 2 + 2t exactly (trapezoid is exact on linear data);
    # delta = 0.5*exp(-(8/5)[(2+2t)^{5/2} - 2^{5/2}])
    h, steps = 1e-3, 100
    times = [h * j for j in range(steps + 1)]
    thetas, fs = width_bound(times, [1.0] * len(times), 0.0, c_cal=1.0, delta0=0.5)
    t = times[-1]
    assert abs(fs[-1] ** 2 - (2.0 + 2.0 * t)) <= 1e-13
    exact = 0.5 * math.exp(-(8.0 / 5.0) * ((2.0 + 2.0 * t) ** 2.5 - 2.0**2.5))
    assert abs(thetas[-1] - exact) <= 1e-6 * exact
    assert len(thetas) == len(fs) == steps + 1


def test_ode_trapezoid_uses_the_previous_sample():
    # a repeated time is a zero step; the next step averages b over 2 and 4
    thetas, fs = width_bound([0.0, 0.0, 0.1], [1.0, 2.0, 4.0], 0.0, c_cal=1.0, delta0=0.5)
    assert thetas[:2] == [0.5, 0.5] and fs[:2] == [math.sqrt(2.0)] * 2
    f_sq = 2.0 + 0.1 * (2.0**5 + 4.0**5)
    assert abs(fs[2] ** 2 - f_sq) <= 1e-12
    assert thetas[2] == pytest.approx(0.5 * math.exp(-0.4 * (2.0**1.5 + f_sq**1.5)), rel=1e-12)


def test_ode_underflow_clamps():
    thetas, _ = width_bound([0.0, 1.0, 2.0], [100.0] * 3, 0.0, c_cal=1.0, delta0=0.5)
    assert thetas == [0.5, 1e-300, 1e-300]


def test_ode_validation():
    with pytest.raises(ValueError, match="c_cal"):
        width_bound([0.0], [1.0], 1.0, c_cal=0.0, delta0=0.5)
    with pytest.raises(ValueError, match="delta0"):
        width_bound([0.0], [1.0], 1.0, c_cal=1.0, delta0=1.5)
    with pytest.raises(ValueError, match="nonnegative"):
        width_bound([0.0], [1.0], -1.0, c_cal=1.0, delta0=0.5)
    with pytest.raises(ValueError, match=">= 1"):
        width_bound([0.0, 0.1], [1.0, 0.5], 0.0, c_cal=1.0, delta0=0.5)  # b >= 1 required
    with pytest.raises(ValueError, match="non-decreasing"):
        width_bound([0.0, 0.2, 0.1], [2.0] * 3, 0.0, c_cal=1.0, delta0=0.5)
    with pytest.raises(ValueError, match="parallel"):
        width_bound([0.0, 0.1], [2.0], 0.0, c_cal=1.0, delta0=0.5)
    with pytest.raises(ValueError, match="parallel"):
        width_bound([], [], 0.0, c_cal=1.0, delta0=0.5)


def test_ode_overflow_raises_the_norm_error():
    # finite inputs whose float powers overflow: 2(1 + 1e200)^2, b^5, f_sq^1.5
    with pytest.raises(NormOverflowError):
        width_bound([0.0], [1.0], 1e200, c_cal=1.0, delta0=0.5)
    with pytest.raises(NormOverflowError):
        width_bound([0.0, 0.1], [1.0, 1e100], 0.0, c_cal=1.0, delta0=0.5)
    with pytest.raises(NormOverflowError):
        width_bound([0.0, 0.1], [2.0, 2.0], 1e125, c_cal=1.0, delta0=0.5)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=1.0, max_value=10.0),
            st.floats(min_value=0.0, max_value=0.1),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_ode_width_never_increases(steps):
    times, bs = [0.0], [steps[0][0]]
    for b, dt in steps:
        times.append(times[-1] + dt)
        bs.append(b)
    thetas, _ = width_bound(times, bs, 1.0, c_cal=0.5, delta0=0.7)
    assert thetas[0] == 0.7
    assert all(new <= old for old, new in zip(thetas, thetas[1:]))
    assert min(thetas) >= 1e-300


# --- trajectory diagnostics -----------------------------------------------------


@pytest.fixture(scope="module")
def analytic_trajectory():
    u0 = exp_decay_field(rate=0.8)
    return integrate(u0, P, SolverConfig(dt=0.01, t_end=0.3, record_every=10))


def test_track_radius_fills_diagnostics(analytic_trajectory):
    traj = analytic_trajectory
    records = track_radius(traj, P, sigma=1.0, s=2.0, delta0=0.5, c_cal=1.0)
    assert len(records) == len(traj.times)
    r0 = records[0]
    assert r0.t == 0.0
    assert r0.delta_theory == 0.5
    assert abs(r0.delta_fit - 0.8) <= 1e-6
    assert abs(r0.b_val - (1.0 + sobolev_norm(traj.states[0], 2.0))) == 0.0
    assert r0.gevrey_at_delta_theory == gevrey_norm(
        traj.states[0], GevreyIndex(1.0, 0.5, 2.0)
    )
    thetas = [r.delta_theory for r in records]
    assert thetas == sorted(thetas, reverse=True)
    fs = [r.f_val for r in records]
    assert fs == sorted(fs)
    for r in records:
        assert math.isfinite(r.delta_fit)
        assert r.delta_fit >= r.delta_theory
        assert r.H_val > 0.0


def test_calibration_accepts_the_unit_constant(analytic_trajectory):
    c, records = calibrate_radius_constant(
        analytic_trajectory, P, sigma=1.0, s=2.0, delta0=0.5, c_algebra=1.0
    )
    assert c == 1.0
    # the accepted records are the ones track_radius gives for that constant
    again = track_radius(analytic_trajectory, P, 1.0, 2.0, 0.5, c)
    assert [_hexes(*dataclasses.astuple(r)) for r in records] == [
        _hexes(*dataclasses.astuple(r)) for r in again
    ]


def test_calibration_fails_when_the_datum_is_too_rough():
    u0 = exp_decay_field(rate=0.3)  # measured rate 0.3 < delta0 = 0.5
    traj = integrate(u0, P, SolverConfig(dt=0.01, t_end=0.05, record_every=5))
    with pytest.raises(CalibrationError, match="delta0"):
        calibrate_radius_constant(traj, P, sigma=1.0, s=2.0, delta0=0.5, c_algebra=1.0)


def test_calibration_fails_when_no_multiplier_reaches_a_negative_fit():
    # the start passes (fit 0.8 >= delta0), but the second record grows with
    # the mode (fit -0.05), below every positive width the bound can give
    rows = [
        field_from_modes(GRID, {m: amp * math.exp(rate * m) for m in range(32)}).coeffs
        for amp, rate in ((0.01, -0.8), (1e-6, 0.05))
    ]
    traj = Trajectory(times=np.array([0.0, 0.1]), states=SpectralField(GRID, rows))
    assert estimate_radius(traj.states, 1.0).delta_fit.tolist() == pytest.approx([0.8, -0.05])
    with pytest.raises(CalibrationError, match=r"no multiplier up to 2\^60 works"):
        calibrate_radius_constant(traj, P, sigma=1.0, s=2.0, delta0=0.5, c_algebra=1.0)


@pytest.mark.parametrize(
    "diagnose",
    [
        lambda traj: track_radius(traj, P, sigma=1.0, s=1.5, delta0=0.5, c_cal=1.0),
        lambda traj: calibrate_radius_constant(
            traj, P, sigma=1.0, s=1.5, delta0=0.5, c_algebra=1.0
        ),
    ],
    ids=["track", "calibrate"],
)
def test_the_radius_columns_need_s_above_three_halves(analytic_trajectory, diagnose):
    # the smallness functional H is stated for s > 3/2; s = 3/2 itself is refused
    with pytest.raises(ValueError, match=r"needs s > 3/2, got 1\.5$"):
        diagnose(analytic_trajectory)


def test_track_radius_rejects_times_out_of_step_with_the_states():
    states = SpectralField(GRID, [exp_decay_field().coeffs] * 2)
    traj = Trajectory(times=np.array([0.0]), states=states)
    with pytest.raises(ValueError, match="out of step"):
        track_radius(traj, P, sigma=1.0, s=2.0, delta0=0.5, c_cal=1.0)


def _walk_states(traj, p, sigma, s, delta0, c_cal):
    """The original per-state walk of track_radius: one decay fit, one Gevrey
    norm and one trapezoidal width step per recorded state, the step written
    out here so the walk stays an independent reference."""
    states = traj.states
    f_sq = 2.0 * (1.0 + gevrey_norm(states[0], GevreyIndex(sigma, delta0, s))) ** 2
    theta = delta0
    h_col = functional_H(states, p, s)
    records, prev = [], None
    for j, t in enumerate(map(float, traj.times)):
        u = states[j]
        b = 1.0 + sobolev_norm(u, s)
        if prev is not None:
            dt, b_old = t - prev[0], prev[1]
            f_sq_new = f_sq + c_cal * dt * (b_old**5 + b**5)
            theta *= math.exp(-4.0 * c_cal * dt * (f_sq**1.5 + f_sq_new**1.5))
            theta, f_sq = max(theta, 1e-300), f_sq_new
        fit = estimate_radius(u, sigma).delta_fit
        gevrey = gevrey_norm(u, GevreyIndex(sigma, theta, s))
        records.append((t, b - 1.0, gevrey, fit, theta, math.sqrt(f_sq), b, float(h_col[j])))
        prev = (t, b)
    return records


def test_track_radius_matches_the_per_state_walk():
    # a steep datum: the first records have too few modes above the floor to
    # fit (NaN), the later ones have widened enough to fit
    u0 = field_from_modes(GRID, {m: math.exp(-3.8 * m) for m in range(32)})
    traj = integrate(u0, P, SolverConfig(dt=0.01, t_end=0.5, record_every=5))
    records = track_radius(traj, P, sigma=2.0, s=2.0, delta0=0.5, c_cal=0.3)
    fits = [r.delta_fit for r in records]
    assert any(math.isnan(f) for f in fits) and any(math.isfinite(f) for f in fits)
    want = _walk_states(traj, P, 2.0, 2.0, 0.5, 0.3)
    assert [_hexes(*dataclasses.astuple(r)) for r in records] == [_hexes(*w) for w in want]


def test_track_radius_raises_when_a_later_norm_overflows():
    # row 0 has a finite norm at delta0; row 1 carries 1e-10 at mode 1000,
    # where exp(2 * 0.9 * 1000) overflows the sum of squares
    grid = TorusGrid(2048)
    calm = field_from_modes(grid, {1: 0.1})
    rough = field_from_modes(grid, {1: 0.1, 1000: 1e-10})
    traj = Trajectory(
        times=np.array([0.0, 1e-9]), states=SpectralField(grid, [calm.coeffs, rough.coeffs])
    )
    with pytest.raises(NormOverflowError):
        track_radius(traj, P, sigma=1.0, s=2.0, delta0=0.9, c_cal=1e-12)


def test_calibration_fits_once_and_re_marches_the_width(monkeypatch):
    u0 = field_from_modes(GRID, {m: math.exp(-0.9 * m) for m in range(32)})
    traj = integrate(u0, P, SolverConfig(dt=0.005, t_end=0.3, record_every=10))
    calls, marches, norms = [], [], []

    def counted(*args, **kwargs):
        calls.append(args[0].coeffs.shape)
        return estimate_radius(*args, **kwargs)

    def marched(*args, **kwargs):
        marches.append(args[3])
        return width_bound(*args, **kwargs)

    def normed(*args, **kwargs):
        norms.append(args[0].coeffs.shape[0])
        return batched_norm(*args, **kwargs)

    batched_norm = analyticity._gevrey_norm
    monkeypatch.setattr(analyticity, "estimate_radius", counted)
    monkeypatch.setattr(analyticity, "width_bound", marched)
    monkeypatch.setattr(analyticity, "_gevrey_norm", normed)
    c_cal, records = calibrate_radius_constant(
        traj, P, sigma=1.0, s=2.0, delta0=0.55, c_algebra=1e-6
    )
    assert calls == [traj.states.coeffs.shape]
    assert c_cal >= 4e-6  # two doublings or more
    # one width march per multiplier tried, one norm call for the accepted one only
    assert marches == [1e-6 * 2.0**j for j in range(len(marches))] and marches[-1] == c_cal
    assert norms == [len(traj.times)]
    again = track_radius(traj, P, 1.0, 2.0, 0.55, c_cal)
    assert [_hexes(*dataclasses.astuple(r)) for r in records] == [
        _hexes(*dataclasses.astuple(r)) for r in again
    ]


# --- continuity in the datum ----------------------------------------------------


def test_perturbed_runs_stay_within_twice_the_datum_distance():
    limit = field_from_modes(TorusGrid(32), {1: 0.005})
    report = continuity_experiment(
        limit, P, sigma=1.0, s=2.0, cfg=SolverConfig(dt=0.01, t_end=1.0),
        spec=ContinuitySpec(2, (1e-3, 1e-4)),
    )
    assert report.T > 0.0
    assert all(report.within_bounds)
    assert report.distances[1] < report.distances[0]
    assert all(d > 0.0 for d in report.distances)


def test_continuity_names_the_failing_run():
    limit = field_from_modes(TorusGrid(32), {1: 0.005})
    with pytest.raises(ExperimentError, match="run #1 blew up"):
        continuity_experiment(
            limit, P, sigma=1.0, s=2.0, cfg=SolverConfig(dt=0.01, t_end=1.0),
            spec=ContinuitySpec(2, (1e-3, 2e8)),
        )


def test_continuity_names_every_run_that_crosses_at_the_earliest_step():
    # the limit and run #1 cross together; run #0 cancels the limit's large
    # mode, leaving 0.01 cos x, and stays small
    limit = field_from_modes(TorusGrid(32), {1: 0.005, 2: 1e8})
    with pytest.raises(ExperimentError, match=r"run limit, #1 blew up"):
        continuity_experiment(
            limit, P, sigma=1.0, s=2.0, cfg=SolverConfig(dt=0.01, t_end=1.0),
            spec=ContinuitySpec(2, (-2e8, 2.0)),
        )


@pytest.mark.parametrize("c_prime", [0.0, -1.0, math.nan])
def test_continuity_rejects_a_c_prime_that_is_not_positive(c_prime):
    limit = field_from_modes(TorusGrid(32), {1: 0.005})
    with pytest.raises(ValueError, match="c_prime must be positive"):
        continuity_experiment(
            limit, P, sigma=1.0, s=2.0, cfg=SolverConfig(dt=0.01, t_end=1.0), c_prime=c_prime
        )


@pytest.mark.parametrize("budget", [-1.0, math.inf, math.nan])
def test_continuity_rejects_a_budget_that_is_negative_or_not_finite(budget):
    # a budget of -1 used to tighten every bound, so the verdict failed whatever
    # the distance; the spec, the experiment's one declaration, refuses it
    with pytest.raises(ValueError, match="^budget must be non-negative and finite"):
        ContinuitySpec(budget=budget)


def test_an_infinite_window_norm_raises_one_message_everywhere():
    # exp(2 * 2000) leaves the float range: the width-1 norm of mode 2000 is inf
    u0 = field_from_modes(TorusGrid(4096), {2000: 1.0})
    assert analyticity.window_norm(u0, 1.0, 2.0) == math.inf
    calls = (
        lambda: lifespan_bounds(math.inf, 1.0),
        lambda: analyticity.existence_window(u0, 1.0, 2.0),
        lambda: continuity_experiment(u0, P, sigma=1.0, s=2.0, cfg=SolverConfig(0.01, 1.0)),
    )
    for call in calls:
        with pytest.raises(NormOverflowError) as info:
            call()
        assert str(info.value) == "existence window: the datum's window norm overflowed"
