"""Right-hand-side assembly, the smallness functional, and the form mismatch.

The independent oracle here is a brute-force pipeline built on product_direct
(the O(N^2) convolution) and raw symbol arrays; the library path uses padded
FFT products.  On band-limited data both are exact, so they must agree to
rounding.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chgevrey.model import (
    ModelParams,
    RhsWork,
    functional_H,
    rhs,
    small_data_check,
)
from chgevrey.spectral import (
    GevreyIndex,
    SpectralField,
    TorusGrid,
    derivative,
    field_from_modes,
    gevrey_norm,
    product,
    random_field,
    sobolev_norm,
    to_physical,
    to_spectral,
)

from oracles import formulation_residual, h_of_u, nonlocal_source, product_direct

GRID = TorusGrid(64)
FREE = ModelParams(lam=1.0)  # all coupling coefficients zero


def constant_field(c, grid=GRID):
    return to_spectral(np.full(grid.n_points, float(c)), grid)


def brute_rhs(u: SpectralField, p: ModelParams) -> SpectralField:
    """Direct-convolution reference for F(u); exact for band <= n/8 data."""
    g = u.grid
    k = g.wavenumbers.copy()
    k[g.n_points // 2] = 0.0
    d = lambda f: f.with_coeffs(1j * k * f.coeffs)
    ux = d(u)
    u2 = product_direct(u, u)
    u3 = product_direct(u2, u)
    u4 = product_direct(u3, u)
    h = (
        (p.alpha + p.Gamma_coef) * u
        + (p.beta / 3.0) * u3
        + (p.gamma / 4.0) * u4
    )
    inner = -1.0 * h + u2 + 0.5 * product_direct(ux, ux)
    q = d(inner).coeffs / (1.0 + g.wavenumbers**2)
    advection = product_direct(u, ux) + p.Gamma_coef * ux
    return u.with_coeffs(
        -advection.coeffs - p.lam * u.coeffs - q
    )


# --- h -------------------------------------------------------------------


def test_h_zero_field():
    z = field_from_modes(GRID, {})
    p = ModelParams(alpha=1.0, beta=2.0, gamma=3.0, Gamma_coef=0.5)
    assert np.max(np.abs(h_of_u(z, p).coeffs)) == 0.0


def test_h_constant_closed_form():
    p = ModelParams(alpha=1.0, beta=2.0, gamma=3.0, Gamma_coef=0.5)
    c = 0.5
    expected = (p.alpha + p.Gamma_coef) * c + (p.beta / 3.0) * c**3 + (p.gamma / 4.0) * c**4
    out = h_of_u(constant_field(c), p)
    assert out.coeff(0) == pytest.approx(expected, rel=1e-12)
    assert np.max(np.abs(out.coeffs[1:])) < 1e-14


def test_h_linear_part_passes_cosine_through():
    p = ModelParams(alpha=1.0)
    u = field_from_modes(GRID, {1: 0.5})
    out = h_of_u(u, p)
    assert np.max(np.abs(out.coeffs - u.coeffs)) < 1e-14


# --- Q -------------------------------------------------------------------


def test_source_vanishes_on_constants():
    p = ModelParams(alpha=0.3, beta=1.0, gamma=-2.0, Gamma_coef=0.7)
    q = nonlocal_source(constant_field(1.7), p)
    assert np.max(np.abs(q.coeffs)) <= 1e-15


def test_source_of_cosine_closed_form():
    # u = cos x, all couplings zero: inner = u^2 + u_x^2/2 = 3/4 + cos(2x)/4,
    # so Q = -(1-dxx)^{-1} dx inner = sin(2x)/10
    u = field_from_modes(GRID, {1: 0.5})
    q = nonlocal_source(u, FREE)
    expected = np.sin(2 * GRID.x) / 10.0
    assert np.max(np.abs(to_physical(q) - expected)) < 1e-12


def test_source_is_mean_free():
    u = random_field(GRID, np.random.default_rng(1), band=GRID.n_points // 8)
    p = ModelParams(alpha=0.2, beta=0.4, gamma=0.1, Gamma_coef=-0.3)
    assert abs(nonlocal_source(u, p).coeff(0)) <= 1e-14


def test_source_linear_in_alpha():
    u = random_field(GRID, np.random.default_rng(2), band=GRID.n_points // 8)
    q0 = nonlocal_source(u, ModelParams(alpha=0.0))
    q1 = nonlocal_source(u, ModelParams(alpha=0.4))
    q2 = nonlocal_source(u, ModelParams(alpha=0.8))
    lhs = q2.coeffs - q0.coeffs
    rhs_ = 2.0 * (q1.coeffs - q0.coeffs)
    assert np.max(np.abs(lhs - rhs_)) <= 1e-12 * max(1.0, np.max(np.abs(q2.coeffs)))


# --- F -------------------------------------------------------------------


def test_rhs_zero_field():
    z = field_from_modes(GRID, {})
    assert np.max(np.abs(rhs(z, FREE).coeffs)) == 0.0


def test_rhs_constant_decays_exponentially():
    p = ModelParams(alpha=0.0, lam=2.0)
    c = 0.3
    out = rhs(constant_field(c), p)
    assert out.coeff(0) == pytest.approx(-p.lam * c, rel=1e-13)
    assert np.max(np.abs(out.coeffs[1:])) < 1e-14


def test_rhs_cosine_closed_form():
    # all parameters zero except lam; subtract the -lam*u part by hand
    u = field_from_modes(GRID, {1: 0.5})
    out = rhs(u, FREE)
    nonlinear = out.coeffs + FREE.lam * u.coeffs
    expected = 0.6 * np.sin(2 * GRID.x)
    assert np.max(np.abs(to_physical(u.with_coeffs(nonlinear)) - expected)) < 1e-12


def test_rhs_matches_direct_convolution_oracle():
    rng = np.random.default_rng(3)
    for p in (
        FREE,
        ModelParams(alpha=0.2, beta=0.7, gamma=-0.4, Gamma_coef=0.3, lam=0.5),
    ):
        u = random_field(GRID, rng, band=GRID.n_points // 8)
        fast = rhs(u, p)
        slow = brute_rhs(u, p)
        scale = max(1.0, float(np.max(np.abs(slow.coeffs))))
        assert np.max(np.abs(fast.coeffs - slow.coeffs)) <= 1e-12 * scale


# --- fused kernel against the product-based references --------------------

coefficient = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
rate = st.floats(min_value=0.1, max_value=2.0)
model_params = st.builds(
    ModelParams,
    alpha=coefficient,
    beta=coefficient,
    gamma=coefficient,
    Gamma_coef=coefficient,
    lam=rate,
)
quadratic_params = st.builds(ModelParams, alpha=coefficient, Gamma_coef=coefficient, lam=rate)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def composed_rhs(u: SpectralField, p: ModelParams) -> SpectralField:
    """F assembled from padded product() calls, h_of_u and nonlocal_source."""
    ux = derivative(u)
    advection = product(u, ux, 1.5) + p.Gamma_coef * ux
    return -1.0 * advection - p.lam * u + nonlocal_source(u, p)


def full_band_field(grid: TorusGrid, seed: int, decay: float) -> SpectralField:
    """Random real field on the whole band, modes |m| < n/2."""
    rng = np.random.default_rng(seed)
    return random_field(grid, rng, band=grid.n_points // 2 - 1, decay=decay)


def convolution_rhs(u: SpectralField, p: ModelParams) -> np.ndarray:
    """F by np.convolve over modes -n/2..n/2 (Nyquist split as c/2 at both
    ends), powers formed without truncation, projected onto the stored modes
    0..n/2."""
    g = u.grid
    half = g.n_points // 2
    band = np.arange(-half, half + 1)
    c = np.concatenate((np.conj(u.coeffs[:0:-1]), u.coeffs))
    c[0] = c[-1] = 0.5 * u.coeffs[half]
    k = 2.0 * math.pi * band / g.period
    cx = 1j * k * c
    cx[0] = cx[-1] = 0.0
    u2 = np.convolve(c, c)
    u3 = np.convolve(u2, c)
    u4 = np.convolve(u3, c)

    def stored(full):  # modes 0..n/2 of a centred convolution
        mid = (len(full) - 1) // 2
        return full[mid : mid + half + 1]

    inner = (
        stored(u2)
        + 0.5 * stored(np.convolve(cx, cx))
        - (p.beta / 3.0) * stored(u3)
        - (p.gamma / 4.0) * stored(u4)
        - (p.alpha + p.Gamma_coef) * u.coeffs
    )
    ik = 1j * g.wavenumbers
    ik[half] = 0.0
    advection = stored(np.convolve(c, cx)) + p.Gamma_coef * ik * u.coeffs
    return -advection - p.lam * u.coeffs - ik / (1.0 + g.wavenumbers**2) * inner


def assert_close(fast: np.ndarray, reference: np.ndarray, rel: float) -> None:
    scale = float(np.max(np.abs(reference)))
    assert np.max(np.abs(fast - reference)) <= rel * scale


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([16, 64, 256]), seeds, model_params)
def test_fused_rhs_matches_composition_on_band_limited_data(n, seed, p):
    grid = TorusGrid(n)
    u = random_field(grid, np.random.default_rng(seed), band=n // 8, decay=1.0)
    assert_close(rhs(u, p).coeffs, composed_rhs(u, p).coeffs, 1e-13)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([16, 64]), seeds, quadratic_params)
def test_fused_rhs_matches_composition_on_full_band_quadratic_data(n, seed, p):
    # rhs and product() both zero slot n/2 of what reaches it
    u = full_band_field(TorusGrid(n), seed, decay=1.0)
    assert_close(rhs(u, p).coeffs, composed_rhs(u, p).coeffs, 1e-13)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([16, 64]), seeds, model_params)
def test_fused_rhs_matches_untruncated_convolution_oracle(n, seed, p):
    # the fused kernel keeps u^3 and u^4 whole; the product() chain would
    # truncate u^2 and u^3 to the band and differ on this full-band datum
    u = full_band_field(TorusGrid(n), seed, decay=1.0)
    fast = rhs(u, p).coeffs
    # F reaches past n/2; slot n/2 holds zero, the modes below are exact
    assert_close(fast[:-1], convolution_rhs(u, p)[:-1], 1e-14)
    assert fast[-1] == 0.0


@pytest.mark.parametrize(
    "p",
    [ModelParams(alpha=0.1, beta=0.3, gamma=0.2, Gamma_coef=0.05), ModelParams(alpha=0.1, Gamma_coef=0.05)],
    ids=["quartic", "linear"],
)
def test_batched_rhs_rows_equal_single_field_calls_bit_for_bit(p):
    grid = TorusGrid(512)
    singles = [full_band_field(grid, seed, decay=1.0) for seed in range(3)]
    batch = SpectralField(grid, np.array([u.coeffs for u in singles]))
    batched = rhs(batch, p).coeffs
    for row, u in zip(batched, singles):
        assert np.array_equal(row.view(float), rhs(u, p).coeffs.view(float))


# --- the rhs plan: held buffers and symbols ------------------------------------


def buffers(work: RhsWork) -> tuple:
    return work.pair, work.samples, work.spectrum, work.forward, work.linear, work.back


def full_band_batch(grid: TorusGrid, rng: np.random.Generator, lead: tuple) -> SpectralField:
    """Random real fields on the whole band, modes |m| < n/2: one, or a batch of lead[0]."""
    band = grid.n_points // 2 - 1
    return random_field(grid, rng, band=band, decay=1.5, size=lead[0] if lead else None)


COEFS = st.sampled_from([0.0, 0.3, -1.25])


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([8, 10, 16, 34, 64]),
    lead=st.sampled_from([(), (1,), (3,)]),
    p=st.builds(ModelParams, COEFS, COEFS, COEFS, COEFS, st.sampled_from([0.5, 1.0])),
    seed=st.integers(0, 2**16),
)
def test_one_buffer_set_reused_gives_what_fresh_calls_give(n, lead, p, seed):
    grid = TorusGrid(n)
    rng = np.random.default_rng(seed)
    inputs = [full_band_batch(grid, rng, lead) for _ in range(3)]
    work = RhsWork(inputs[0], p)
    held = [rhs(u, p, work=work).coeffs for u in inputs]
    for u, out in zip(inputs, held):
        assert out.tobytes() == rhs(u, p).coeffs.tobytes()
        assert not any(np.shares_memory(out, buf) for buf in buffers(work))


def test_a_buffer_set_for_another_shape_or_padded_size_is_refused():
    quartic = ModelParams(beta=0.3, gamma=0.2)
    u = full_band_field(GRID, 0, decay=1.0)
    batch = SpectralField(GRID, np.array([u.coeffs, u.coeffs]))
    wrong = [
        (RhsWork(batch, FREE), u, FREE),  # a batch's set for one field
        (RhsWork(u, FREE), batch, FREE),  # one field's set for a batch
        (RhsWork(full_band_field(TorusGrid(32), 0, 1.0), FREE), u, FREE),  # other n
        (RhsWork(u, FREE), u, quartic),  # padded 3/2, needs 5/2
        (RhsWork(u, quartic), u, FREE),  # padded 5/2, needs 3/2
        # the same padded size, but the linear symbol is built from p
        (RhsWork(u, ModelParams(alpha=2.0, Gamma_coef=1.0)), u, FREE),
        # the same n and shape, but the symbols are built from the grid's wavenumbers
        (RhsWork(full_band_field(TorusGrid(64, period=3.0), 0, 1.0), FREE), u, FREE),
    ]
    for work, v, p in wrong:
        with pytest.raises(ValueError, match="rhs buffers"):
            rhs(v, p, work=work)


def test_the_plan_symbols_are_read_only():
    work = RhsWork(full_band_field(GRID, 0, decay=1.0), ModelParams(alpha=0.1, beta=0.3))
    for symbol in (work.forward, work.linear, work.back):
        with pytest.raises(ValueError, match="read-only"):
            symbol[..., 0] = 1.0


# --- smallness functional -------------------------------------------------


def test_functional_H_frozen_values():
    z = field_from_modes(GRID, {})
    assert functional_H(z, ModelParams(alpha=1.0, Gamma_coef=-2.0), s=2.0) == pytest.approx(3.0)
    u = field_from_modes(GRID, {3: 0.5})  # cos 3x, H^2 norm sqrt(50)
    p = ModelParams(beta=3.0)
    assert functional_H(u, p, s=2.0) == pytest.approx(math.sqrt(50.0) + 50.0, rel=1e-12)


def test_functional_H_leaves_out_a_zero_power_term_past_the_float_range():
    u = field_from_modes(GRID, {1: 1e110})  # H^2 norm sqrt(8) 1e110, its cube past the range
    assert functional_H(u, ModelParams(alpha=1.0), s=2.0) == 1.0 + sobolev_norm(u, 2.0)


def test_functional_H_requires_s_above_three_halves():
    u = field_from_modes(GRID, {1: 0.5})
    with pytest.raises(ValueError):
        functional_H(u, FREE, s=1.5)


def test_small_data_boundary_included():
    z = field_from_modes(GRID, {})
    p = ModelParams(alpha=0.1, lam=1.0)  # H0 == lam*epsilon exactly
    assert small_data_check(z, p, s=2.0)
    p_over = ModelParams(alpha=0.1 + 1e-9, lam=1.0)
    assert not small_data_check(z, p_over, s=2.0)


def test_an_overflowing_datum_is_not_small():
    big = field_from_modes(GRID, {1: 1e200})  # its H^2 norm reads inf
    assert small_data_check(big, ModelParams(), s=2.0) is False


# --- form mismatch --------------------------------------------------------


def test_formulation_residual_zero_for_alpha_zero():
    u = field_from_modes(GRID, {1: 0.5})
    p = ModelParams(alpha=0.0, beta=0.5, gamma=0.2, Gamma_coef=0.3, lam=1.0)
    assert formulation_residual(u, p) <= 1e-10


def test_formulation_residual_detects_alpha():
    c = 0.5
    p = ModelParams(alpha=0.3, lam=1.0)
    # constant field: lifted form gives -lam*c, local form alpha*c - lam*c
    assert formulation_residual(constant_field(c), p) == pytest.approx(
        abs(p.alpha * c), rel=1e-12
    )
    assert formulation_residual(field_from_modes(GRID, {}), p) == 0.0


# --- Lipschitz ratio ------------------------------------------------------


def test_lipschitz_ratio_bounded_by_fixed_point_constant():
    # ratios measured in a unit ball around a small datum stay far below
    # L/(delta_wide-delta_narrow)^sigma with the calibration constant at 1
    from chgevrey.analyticity import lifespan_bounds

    rng = np.random.default_rng(5)
    sigma, s = 1.0, 2.0
    dw, dn = 0.75, 0.5
    u0 = field_from_modes(GRID, {1: 0.005})
    ball_radius = 1.0
    norm_u0 = gevrey_norm(u0, GevreyIndex(sigma, 1.0, s))
    bounds = lifespan_bounds(norm_u0 + ball_radius, sigma, c_prime=1.0)
    ceiling = bounds.L / (dw - dn) ** sigma
    worst = 0.0
    for _ in range(20):
        du = random_field(GRID, rng, band=8)
        dv = random_field(GRID, rng, band=8)
        du = du * (0.3 / max(gevrey_norm(du, GevreyIndex(sigma, dw, s)), 1e-30))
        dv = dv * (0.3 / max(gevrey_norm(dv, GevreyIndex(sigma, dw, s)), 1e-30))
        # ||F(u)-F(v)||_{G^dn} / ||u-v||_{G^dw}, the ratio the fixed-point argument bounds
        u, v = u0 + du, u0 + dv
        num = gevrey_norm(rhs(u, FREE) - rhs(v, FREE), GevreyIndex(sigma, dn, s))
        r = num / gevrey_norm(u - v, GevreyIndex(sigma, dw, s))
        worst = max(worst, r)
    assert worst <= ceiling
    assert worst > 0.0
