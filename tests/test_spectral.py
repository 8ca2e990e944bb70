"""Grid/field plumbing, transforms, weighted norms, and the two product routes.

Expected values are hand mode sums frozen here, independent of the library
code paths (e.g. cos 3x has coefficients 1/2 at modes +-3, so the s=2 Sobolev
mode sum is 2*(1+9)^2*(1/4) = 50).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from chgevrey import verify
from chgevrey.analyticity import window_norm
from chgevrey.cli import InitialDataSpec
from chgevrey.integrate import cumulative_trapezoid, step_rk4
from chgevrey.model import ModelParams, functional_H, irfft, rhs
from chgevrey.spectral import (
    GevreyIndex,
    GridMismatchError,
    NonFiniteError,
    SpectralField,
    TorusGrid,
    _gevrey_norm,
    _sqrt_exp,
    _unfold,
    derivative,
    field_from_modes,
    gevrey_norm,
    gevrey_norm_bar,
    helmholtz_inv,
    logsumexp_modes,
    product,
    random_field,
    sobolev_norm,
    to_physical,
    to_spectral,
)

from oracles import helmholtz, logsumexp_port, product_direct

GRID = TorusGrid(64)


def cos_field(mode: int, grid: TorusGrid = GRID, amplitude: float = 1.0) -> SpectralField:
    return field_from_modes(grid, {mode: amplitude / 2.0})


def without_nyquist(samples: np.ndarray) -> np.ndarray:
    """``samples`` less their (-1)^j component, the Nyquist mode on the grid."""
    alternating = (-1.0) ** np.arange(len(samples))
    return samples - np.mean(samples * alternating) * alternating


# --- grid -----------------------------------------------------------------


def test_grid_validation():
    with pytest.raises(ValueError):
        TorusGrid(6)
    with pytest.raises(ValueError):
        TorusGrid(33)
    with pytest.raises(ValueError):
        TorusGrid(64, period=0.0)


def test_grid_mode_layout():
    g = TorusGrid(8)
    assert [g.index_of(m) for m in range(5)] == list(np.arange(g.n_points // 2 + 1))
    assert g.index_of(-3) == 3  # mode -3 is the conjugate of mode 3
    assert g.index_of(4) == g.index_of(-4) == 4
    with pytest.raises(ValueError):
        g.index_of(5)
    # default period 2*pi gives integer wavenumbers
    assert np.allclose(g.wavenumbers, np.arange(g.n_points // 2 + 1))
    gp = TorusGrid(8, period=4.0 * math.pi)
    assert gp.wavenumbers[1] == pytest.approx(0.5)


def test_grid_symbols_are_cached_read_only():
    g = TorusGrid(8)
    assert not g.wavenumbers.flags.writeable
    with pytest.raises(ValueError):
        g.wavenumbers[0] = 1
    assert g.wavenumbers is g.wavenumbers


# --- transforms -----------------------------------------------------------


def test_constant_field_coefficients():
    f = to_spectral(np.full(GRID.n_points, 2.5), GRID)
    assert f.coeff(0) == pytest.approx(2.5)
    assert np.max(np.abs(f.coeffs[1:])) < 1e-14


def test_cosine_coefficients():
    f = to_spectral(np.cos(3 * GRID.x), GRID)
    assert f.coeff(3) == pytest.approx(0.5, abs=1e-14)
    assert f.coeff(-3) == pytest.approx(0.5, abs=1e-14)
    assert abs(f.coeff(2)) < 1e-14


def test_a_field_is_complex128_or_a_wider_complex_dtype_kept_as_it_is():
    m = GRID.n_points // 2 + 1
    narrow = [[0.0] * m, np.zeros(m, np.int64), np.zeros(m, np.float32), np.zeros(m, np.complex64)]
    assert [SpectralField(GRID, c).coeffs.dtype for c in narrow] == [np.complex128] * 4
    for wide in (np.longdouble, np.clongdouble):  # the 80-bit rung of x86-64
        assert SpectralField(GRID, np.zeros(m, wide)).coeffs.dtype == np.clongdouble


@pytest.mark.skipif(
    not (np.finfo(np.longdouble).eps < 1e-18 and "Gg->g" in irfft.types),
    reason="np.longdouble is not 80-bit here, or NumPy's irfft kernel has no longdouble loop",
)
def test_80_bit_samples_transform_to_80_bit_coefficients():
    grid = TorusGrid(16)
    x = np.arange(16, dtype=np.longdouble) * (2 * np.arccos(np.longdouble(-1.0)) / 16)
    f = to_spectral(np.cos(x), grid)
    assert f.coeffs.dtype == np.clongdouble
    # within 80-bit rounding of cos x's one mode; float64 samples miss by ~5e-17
    assert np.max(np.abs(f.coeffs - np.eye(9)[1] / 2)) < 1e-18
    for narrow in (np.arange(16), np.cos(x).astype(np.float32)):
        assert to_spectral(narrow, grid).coeffs.dtype == np.complex128


@settings(max_examples=50, deadline=None)
@given(n=st.sampled_from([8, 16, 32, 64, 128, 256, 512, 1024]), data=st.data())
def test_round_trip(n, data):
    grid = TorusGrid(n)
    samples = without_nyquist(data.draw(arrays(np.float64, n, elements=st.floats(-1e6, 1e6))))
    f = to_spectral(samples, grid)
    assert f.coeffs.shape == (n // 2 + 1,) and f.coeffs[-1] == 0.0
    back = to_physical(f)
    assert np.max(np.abs(back - samples)) <= 1e-12 * max(1.0, np.max(np.abs(samples)))
    # (-1)^j = cos(n/2 x) on the grid lies wholly in slot n/2, which holds zero
    assert not np.any(to_spectral((-1.0) ** np.arange(n), grid).coeffs)


def test_to_physical_tolerance_is_relative_to_the_samples():
    # samples of size ~1e17 after the product are exact to a relative 1e-14
    u = field_from_modes(GRID, {3: 1e8, 5: 2e8})
    x = GRID.x
    direct = (2e8 * np.cos(3 * x) + 4e8 * np.cos(5 * x)) ** 2
    samples = to_physical(product(u, u))
    assert np.max(np.abs(samples - direct)) <= 1e-14 * np.max(np.abs(direct))


def test_non_finite_input_raises_the_non_finite_error():
    coeffs = cos_field(3).coeffs.copy()
    coeffs[3] = math.nan
    with pytest.raises(NonFiniteError, match="coefficients"):
        SpectralField(GRID, coeffs)
    batch = np.stack([cos_field(1).coeffs, cos_field(2).coeffs])
    batch[1, 5] = math.inf  # one bad row rejects the whole batch
    with pytest.raises(NonFiniteError, match="coefficients"):
        SpectralField(GRID, batch)
    samples = np.ones(GRID.n_points)
    samples[7] = -math.inf
    with pytest.raises(NonFiniteError, match="samples"):
        to_spectral(samples, GRID)


def test_samples_and_the_gevrey_index_are_checked_where_they_come_in():
    with pytest.raises(ValueError, match="must be real"):
        to_spectral(np.ones(GRID.n_points, dtype=complex), GRID)
    with pytest.raises(ValueError, match=f"expected {GRID.n_points} samples"):
        to_spectral(np.ones(GRID.n_points + 2), GRID)
    with pytest.raises(ValueError, match="s must be finite"):
        GevreyIndex(1.0, 0.0, math.inf)


def test_field_from_modes_folds_a_negative_mode_and_rejects_a_pair():
    f = field_from_modes(GRID, {-3: 0.5j, 31: 0.25})
    assert f.coeff(3) == -0.5j and f.coeff(-3) == 0.5j and f.coeff(-31) == 0.25
    for nyquist in (32, -32):  # slot n/2 holds zero
        with pytest.raises(ValueError, match="n/2"):
            field_from_modes(GRID, {nyquist: 0.25})
        assert field_from_modes(GRID, {nyquist: 0.0}).coeff(nyquist) == 0.0
    with pytest.raises(ValueError, match="conjugate pair"):
        field_from_modes(GRID, {3: 0.5, -3: 0.5})
    with pytest.raises(ValueError):
        field_from_modes(GRID, {33: 1.0})


# --- diagonal operators ---------------------------------------------------


def test_derivative_cosine():
    f = cos_field(3)
    expected = -3.0 * np.sin(3 * GRID.x)
    assert np.max(np.abs(to_physical(derivative(f)) - expected)) < 1e-12


def test_derivative_constant_and_single_mode():
    const = to_spectral(np.full(GRID.n_points, 4.0), GRID)
    assert np.max(np.abs(derivative(const).coeffs)) == 0.0
    raw = field_from_modes(GRID, {2: 1.0})
    d = derivative(raw)
    assert d.coeff(2) == pytest.approx(2j)


def test_helmholtz_inverse_pair():
    f = cos_field(3)
    assert to_physical(helmholtz_inv(f)) == pytest.approx(np.cos(3 * GRID.x) / 10.0)
    rng = np.random.default_rng(7)
    g = random_field(GRID, rng)
    round_trip = helmholtz(helmholtz_inv(g))
    assert np.max(np.abs(round_trip.coeffs - g.coeffs)) < 1e-12


# --- norms ----------------------------------------------------------------


def test_sobolev_norm_frozen_values():
    f = cos_field(3)
    assert sobolev_norm(f, 2.0) == pytest.approx(math.sqrt(50.0), rel=1e-12)
    assert sobolev_norm(f, 0.0) == pytest.approx(math.sqrt(0.5), rel=1e-12)
    const = to_spectral(np.ones(GRID.n_points), GRID)
    assert sobolev_norm(const, 5.0) == pytest.approx(1.0, rel=1e-14)
    zero = field_from_modes(GRID, {})
    assert sobolev_norm(zero, 2.0) == 0.0


def test_gevrey_norm_frozen_value():
    f = cos_field(3)
    expected = math.sqrt(0.5 * math.exp(math.sqrt(10.0)))
    assert gevrey_norm(f, GevreyIndex(1.0, 0.5, 0.0)) == pytest.approx(expected, rel=1e-12)


def test_gevrey_norm_delta_zero_is_sobolev():
    rng = np.random.default_rng(3)
    f = random_field(GRID, rng)
    for s in (0.0, 1.0, 2.5):
        assert gevrey_norm(f, GevreyIndex(1.0, 0.0, s)) == pytest.approx(
            sobolev_norm(f, s), rel=1e-12
        )


def test_gevrey_norm_monotone_in_delta_s_sigma():
    rng = np.random.default_rng(5)
    for _ in range(10):
        f = random_field(GRID, rng)
        n_small = gevrey_norm(f, GevreyIndex(1.0, 0.2, 1.0))
        assert gevrey_norm(f, GevreyIndex(1.0, 0.6, 1.0)) >= n_small
        assert gevrey_norm(f, GevreyIndex(1.0, 0.2, 2.0)) >= n_small
        # smaller sigma weights every mode more heavily
        assert gevrey_norm(f, GevreyIndex(2.0, 0.2, 1.0)) <= n_small


def test_gevrey_norm_bar_single_mode():
    # sqrt(2) cos 2x: |c|^2 = 1/2 at each of the modes +-2
    raw = field_from_modes(GRID, {2: math.sqrt(0.5)})
    assert gevrey_norm_bar(raw, GevreyIndex(1.0, 1.0, 0.0)) == pytest.approx(
        math.exp(2.0), rel=1e-12
    )


def test_norm_equivalence_sandwich():
    rng = np.random.default_rng(9)
    for delta in (0.1, 0.7):
        f = random_field(GRID, rng)
        idx = GevreyIndex(1.0, delta, 1.5)
        bar = gevrey_norm_bar(f, idx)
        smooth = gevrey_norm(f, idx)
        assert bar <= smooth * (1.0 + 1e-12)
        assert smooth <= math.exp(delta) * bar * (1.0 + 1e-12)


@pytest.mark.parametrize(
    "norm, over, calm",
    [
        # the H^s sum is not taken in log space: huge coefficients overflow it
        (lambda u: sobolev_norm(u, 2.0), field_from_modes(GRID, {1: 1e200}), cos_field(1)),
        (lambda u: gevrey_norm(u, GevreyIndex(1.0, 100.0, 0.0)), cos_field(31), cos_field(1)),
        # log of the squared sum 1419.8: below the old 1420 guard, but its square
        # root e^709.9 is past the float range, where math.exp raised a bare
        # OverflowError
        (
            lambda u: gevrey_norm(u, GevreyIndex(1.0, 709.9, 0.0)),
            field_from_modes(GRID, {0: 1.0}),
            field_from_modes(GRID, {0: 1e-300}),
        ),
        (lambda u: gevrey_norm_bar(u, GevreyIndex(1.0, 100.0, 0.0)), cos_field(31), cos_field(1)),
        (lambda u: window_norm(u, 1.0, 2.0), cos_field(31, amplitude=1e300), cos_field(1)),
        # a finite norm whose cube leaves the float range, where n**3 raised a
        # bare OverflowError
        (
            lambda u: functional_H(u, ModelParams(gamma=1.0), 2.0),
            field_from_modes(GRID, {1: 1e110}),
            cos_field(1),
        ),
        # an inf norm under zero power coefficients reads inf, not 0 * inf = NaN
        (
            lambda u: functional_H(u, ModelParams(), 2.0),
            field_from_modes(GRID, {1: 1e200}),
            cos_field(1),
        ),
    ],
    ids=["sobolev", "gevrey", "gevrey-709.9", "gevrey-bar", "window", "H-cube", "H-linear"],
)
def test_an_overflowing_norm_reads_inf_alone_and_in_its_batch_row(norm, over, calm):
    alone = norm(over)
    assert type(alone) is float and alone == math.inf
    batched = norm(SpectralField(GRID, np.array([over.coeffs, calm.coeffs])))
    assert batched.tolist() == [math.inf, norm(calm)]
    assert math.isfinite(norm(calm))


def test_an_overflowing_width_leaves_the_other_rows_as_they_are():
    pair = SpectralField(GRID, np.array([cos_field(1).coeffs, cos_field(1).coeffs]))
    (batched,) = _gevrey_norm(pair, 1.0, [np.array([[1000.0], [0.5]])], 0.0)
    assert batched.tolist() == [math.inf, gevrey_norm(cos_field(1), GevreyIndex(1.0, 0.5, 0.0))]


def test_the_norm_tail_is_math_exp_of_each_half_total():
    # one vectorized tail for every total of a call: math.exp's rounding, not
    # np.exp's, and inf wherever math.exp overflows
    def one(total):
        try:
            return math.exp(0.5 * total)
        except OverflowError:
            return math.inf

    edge = 2.0 * 709.782712893384  # twice log of the largest double, rounded down
    past = np.nextafter(edge, np.inf)
    special = [edge, past, np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, -1400.0, 1e308]
    rng = np.random.default_rng(5)
    grid = np.concatenate([special, rng.uniform(-1500.0, 1500.0, 400)]).reshape(41, 10)
    for total in [np.array(t) for t in special] + [grid]:
        got = _sqrt_exp(total)
        assert got.shape == total.shape
        assert [v.hex() for v in got.ravel().tolist()] == [
            one(t).hex() for t in total.ravel().tolist()
        ]
    assert math.isfinite(_sqrt_exp(np.array(edge))) and _sqrt_exp(np.array(past)) == math.inf


def test_parseval_mean_square():
    rng = np.random.default_rng(13)
    samples = without_nyquist(rng.standard_normal(GRID.n_points))
    f = to_spectral(samples, GRID)
    mode_sum_sq = gevrey_norm(f, GevreyIndex(1.0, 0.0, 0.0)) ** 2
    assert mode_sum_sq == pytest.approx(np.mean(samples**2), rel=1e-10)


# --- products -------------------------------------------------------------


def test_product_by_one_and_by_zero():
    rng = np.random.default_rng(17)
    f = random_field(GRID, rng)
    one = to_spectral(np.ones(GRID.n_points), GRID)
    zero = field_from_modes(GRID, {})
    assert np.max(np.abs(product(f, one).coeffs - f.coeffs)) < 1e-14
    assert np.max(np.abs(product(f, zero).coeffs)) == 0.0


def test_product_cosine_squared():
    f = cos_field(1)
    sq = product(f, f)
    # cos^2 x = 1/2 + cos(2x)/2
    assert sq.coeff(0) == pytest.approx(0.5, abs=1e-14)
    assert sq.coeff(2) == pytest.approx(0.25, abs=1e-14)
    assert abs(sq.coeff(1)) < 1e-14


def test_product_direct_single_modes():
    # cos x * cos 2x = (cos x + cos 3x) / 2
    f = field_from_modes(GRID, {1: 0.5})
    g = field_from_modes(GRID, {2: 0.5})
    fg = product_direct(f, g)
    assert fg.coeff(1) == fg.coeff(3) == pytest.approx(0.25)
    nz = np.flatnonzero(np.abs(fg.coeffs) > 0)
    assert list(nz) == [GRID.index_of(1), GRID.index_of(3)]


def test_product_agrees_with_direct_on_band_limited_pairs():
    grid = TorusGrid(128)
    rng = np.random.default_rng(42)
    for _ in range(20):
        f = random_field(grid, rng, band=grid.n_points // 3)
        g = random_field(grid, rng, band=grid.n_points // 3)
        fast = product(f, g)
        slow = product_direct(f, g)
        # the product reaches past n/2; slot n/2 holds zero, the modes below are exact
        assert np.max(np.abs(fast.coeffs[:-1] - slow.coeffs[:-1])) <= 1e-10
        assert fast.coeffs[-1] == 0.0


def test_product_direct_commutes_exactly():
    grid = TorusGrid(64)
    rng = np.random.default_rng(23)
    f = random_field(grid, rng)
    g = random_field(grid, rng)
    assert product_direct(f, g).coeffs.tobytes() == product_direct(g, f).coeffs.tobytes()


def test_product_direct_size_guard():
    grid = TorusGrid(1024)
    f = field_from_modes(grid, {1: 1.0})
    with pytest.raises(ValueError):
        product_direct(f, f)


def test_product_grid_mismatch():
    f = cos_field(1)
    g = field_from_modes(TorusGrid(32), {1: 0.5})
    with pytest.raises(GridMismatchError):
        product(f, g)


def test_product_preserves_hermitian_symmetry():
    # a real field's modes -m are the conjugates of its stored modes m; the one
    # condition left on the stored half is a real mean coefficient
    rng = np.random.default_rng(29)
    f = random_field(GRID, rng, band=GRID.n_points // 8)
    g = random_field(GRID, rng, band=GRID.n_points // 8)
    for op_out in (product(f, g), derivative(f), helmholtz_inv(f)):
        assert op_out.coeffs[0].imag == 0.0


def test_product_reaching_n_over_2_drops_the_nyquist_term_whole():
    # cos x cos 15x = (cos 14x + cos 16x)/2 at n = 32: cos 16x is the Nyquist mode
    grid = TorusGrid(32)
    fg = product(cos_field(1, grid), cos_field(15, grid))
    assert fg.coeffs[16] == 0.0
    assert np.max(np.abs(to_physical(fg) - 0.5 * np.cos(14.0 * grid.x))) <= 1e-14


_N16 = TorusGrid(16)
_QUARTIC = ModelParams(alpha=0.1, beta=0.3, gamma=0.2, Gamma_coef=0.05)
_LINEAR = ModelParams(alpha=0.1, Gamma_coef=0.05)


def _full_band(seed: int) -> SpectralField:
    return random_field(_N16, np.random.default_rng(seed), band=7, decay=0.5)


def _coeff_file_datum(tmp_path) -> SpectralField:
    path = tmp_path / "coeffs.txt"
    # the mean is real; the modes above it are complex
    path.write_text("".join(f"{0.5**m} {0.25**m if m else 0.0}\n" for m in range(8)))
    return InitialDataSpec("coeff_file", path=str(path)).build(_N16)


# each writer on inputs whose result reaches mode n/2 (or, for a generator, could)
_WRITERS = {
    "product": lambda tmp: product(_full_band(0), _full_band(1)),
    "rhs-quartic-dealias": lambda tmp: rhs(_full_band(2), _QUARTIC),
    "rhs-linear-dealias": lambda tmp: rhs(_full_band(2), _LINEAR),
    "to_spectral": lambda tmp: to_spectral(
        np.random.default_rng(3).standard_normal(16) + (-1.0) ** np.arange(16), _N16
    ),
    "step_rk4": lambda tmp: step_rk4(_full_band(4), _QUARTIC, 0.05),
    "random_field": lambda tmp: random_field(_N16, np.random.default_rng(5), band=100, size=3),
    "cosine": lambda tmp: InitialDataSpec("cosine", mode=7).build(_N16),
    "gaussian_bump": lambda tmp: InitialDataSpec("gaussian_bump", width=0.05).build(_N16),
    "exp_decay_modes": lambda tmp: InitialDataSpec("exp_decay_modes", rate=0.01).build(_N16),
    "coeff_file": _coeff_file_datum,
}


@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_every_writer_leaves_slot_n_over_2_zero(tmp_path, writer):
    out = _WRITERS[writer](tmp_path).coeffs
    assert np.all(out[..., -1] == 0.0)
    assert np.all(np.abs(out[..., -2]) > 0.0)  # the mode below n/2 is live


def test_a_nonzero_slot_n_over_2_is_rejected_at_ingest():
    c = np.zeros((2, 17), dtype=complex)
    c[1, 16] = 1e-300
    with pytest.raises(ValueError, match="n/2"):
        SpectralField(TorusGrid(32), c)
    c[1, 16] = 0.0
    assert SpectralField(TorusGrid(32), c).coeffs[1, 16] == 0.0


def test_field_arithmetic():
    f = cos_field(1)
    g = cos_field(2)
    h = 2.0 * f + g - f
    assert h.coeff(1) == pytest.approx(0.5)
    assert h.coeff(2) == pytest.approx(0.5)
    with pytest.raises(TypeError):
        f * g  # field*field must go through product()


# --- batch axis -----------------------------------------------------------


def _old_random_field(grid, rng, band=None, decay=2.0):
    # the per-mode construction random_field replaced, kept as its reference
    if band is None:
        band = grid.n_points // 4
    band = min(band, grid.n_points // 2 - 1)
    c = np.zeros(grid.n_points // 2 + 1, dtype=np.complex128)
    c[0] = rng.standard_normal()
    for m in range(1, band + 1):
        z = (rng.standard_normal() + 1j * rng.standard_normal()) / math.sqrt(2.0)
        c[grid.index_of(m)] = z * m ** (-decay)
    return c


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([8, 16, 64, 128]),
    band=st.none() | st.integers(0, 80),
    decay=st.floats(-1.0, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=64, band=31, decay=2.0, seed=0)  # band n/2 - 1, the default decay
@example(n=64, band=None, decay=1.37, seed=3)
def test_random_field_matches_the_per_mode_loop(n, band, decay, seed):
    grid = TorusGrid(n)
    new = random_field(grid, np.random.default_rng(seed), band=band, decay=decay)
    old = _old_random_field(grid, np.random.default_rng(seed), band=band, decay=decay)
    assert new.coeffs.tobytes() == old.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([8, 16, 64, 128]),
    band=st.none() | st.integers(0, 80),
    decay=st.floats(-1.0, 4.0),
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(0, 6),
)
@example(n=64, band=None, decay=2.0, seed=42, size=400)  # the largest verify ensemble
def test_batched_draw_equals_successive_single_draws(n, band, decay, seed, size):
    grid = TorusGrid(n)
    batch_rng, single_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    batch = random_field(grid, batch_rng, band=band, decay=decay, size=size)
    assert batch.coeffs.shape == (size, n // 2 + 1)
    for row in batch.coeffs:
        single = random_field(grid, single_rng, band=band, decay=decay)
        assert row.tobytes() == single.coeffs.tobytes()
    # both generators stand at the same place, so later draws do not shift
    assert batch_rng.bit_generator.state == single_rng.bit_generator.state
    # size=None is one field, not a batch of one
    assert random_field(grid, batch_rng, band=band, decay=decay).coeffs.shape == (n // 2 + 1,)


def _row_by_row_ensemble(seed, count):
    # the per-row ensemble verify._ensemble replaced, kept as its reference
    rng = np.random.default_rng(seed)
    rows = [random_field(verify.GRID, rng).coeffs for _ in range(count)]
    return np.reshape(rows, (count, verify.GRID.n_points // 2 + 1))


@pytest.mark.parametrize("count", [50, 100, 200, 210, 400])  # the seed-42 run's sizes
def test_verify_ensemble_equals_the_row_by_row_draw(count):
    drawn = verify._ensemble(42, count).coeffs
    assert drawn.tobytes() == _row_by_row_ensemble(42, count).tobytes()


# the model whose rhs pads by 3/2 or 5/2 beside product at each pad; at pad 1 only
# product runs unpadded, and rhs pads the quartic model by 5/2
_RHS_AT_PAD = {
    1.0: ModelParams(alpha=0.1, beta=0.3, gamma=0.2, Gamma_coef=0.05),
    1.5: ModelParams(alpha=0.1, Gamma_coef=0.05, lam=0.7),
    2.5: ModelParams(alpha=0.1, beta=0.3, gamma=0.2, Gamma_coef=0.05),
}


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([8, 16, 64]),
    rows=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    sigma=st.floats(1.0, 3.0),
    delta=st.floats(0.0, 4.0),
    s=st.floats(-1.0, 4.0),
    pad=st.sampled_from([1.0, 1.5, 2.5]),
)
def test_batched_rows_equal_single_calls_bit_for_bit(n, rows, seed, sigma, delta, s, pad):
    grid = TorusGrid(n)
    rng = np.random.default_rng(seed)
    singles = [random_field(grid, rng, band=int(rng.integers(0, n // 2))) for _ in range(2 * rows)]
    f = SpectralField(grid, np.array([u.coeffs for u in singles[:rows]]))
    g = SpectralField(grid, np.array([u.coeffs for u in singles[rows:]]))
    index = GevreyIndex(sigma, delta, s)
    p = _RHS_AT_PAD[pad]
    for norm in (
        lambda u: gevrey_norm(u, index),
        lambda u: gevrey_norm_bar(u, index),
        lambda u: sobolev_norm(u, s),
    ):
        batched = norm(f)
        assert batched.shape == (rows,)
        assert batched.tolist() == [norm(u) for u in singles[:rows]]
    # one width per row: row i is the single call at width i
    widths = rng.uniform(0.0, 4.0, rows)
    (batched,) = _gevrey_norm(f, sigma, [widths[:, None]], s)
    assert batched.tolist() == [
        gevrey_norm(u, GevreyIndex(sigma, w, s)) for u, w in zip(singles[:rows], widths.tolist())
    ]
    for op, batched in (
        (lambda u, v: product(u, v, pad_factor=pad), product(f, g, pad_factor=pad)),
        (lambda u, v: derivative(u), derivative(f)),
        (lambda u, v: helmholtz_inv(u), helmholtz_inv(f)),
        (lambda u, v: rhs(u, p), rhs(f, p)),
        (lambda u, v: step_rk4(u, p, 0.01), step_rk4(f, p, 0.01)),
    ):
        for i in range(rows):
            single = op(singles[i], singles[rows + i])
            assert batched[i].coeffs.tobytes() == single.coeffs.tobytes()
    if s > 1.5:
        assert functional_H(f, p, s).tolist() == [functional_H(u, p, s) for u in singles[:rows]]


def test_field_accepts_one_row_or_a_batch_of_rows():
    assert SpectralField(GRID, np.zeros((3, 33))).coeffs.shape == (3, 33)
    # the full band of n = 64 coefficients is not a field
    for shape in ((64,), (3, 64), (32,), (3, 32), (2, 3, 33), ()):
        with pytest.raises(ValueError, match=r"n/2 \+ 1 modes of an n = 64 grid"):
            SpectralField(GRID, np.zeros(shape))


def test_row_access_on_a_batch():
    rows = np.array([cos_field(1).coeffs, cos_field(2).coeffs, cos_field(3).coeffs])
    batch = SpectralField(GRID, rows)
    assert batch[1].coeffs.tobytes() == cos_field(2).coeffs.tobytes()
    assert batch[-1].coeffs.tobytes() == cos_field(3).coeffs.tobytes()
    assert batch[1:].coeffs.shape == (2, 33)
    assert [u.coeff(2) for u in batch] == [0.0, 0.5, 0.0]  # iteration stops at the last row
    single = cos_field(1)
    with pytest.raises(TypeError):
        single[0]
    assert bool(single)  # no __len__: a single field stays truthy


def test_coeff_on_a_batch_reads_the_mode_slot_of_every_row():
    grid = TorusGrid(16)
    rows = np.arange(27, dtype=float).reshape(3, 9) * (1.0 - 2.0j)
    rows[:, 8] = 0.0  # slot n/2
    batch = SpectralField(grid, rows)
    assert np.array_equal(batch.coeff(2), rows[:, 2])
    assert np.array_equal(batch.coeff(-2), np.conj(rows[:, 2]))
    assert [batch[i].coeff(-2) for i in range(3)] == list(np.conj(rows[:, 2]))
    single = batch[1].coeff(-7)
    assert type(single) is complex and single == np.conj(rows[1, 7])


def _hex(values):
    flat = np.asarray(values)
    flat = flat.view(float) if np.iscomplexobj(flat) else flat.astype(float)
    return [float.hex(v) for v in flat.ravel().tolist()]


@pytest.mark.parametrize("n", [8, 16, 64])
def test_the_slot_multiplicity_counts_each_slot_in_the_unfolded_layout(n):
    mult = TorusGrid(n).multiplicity
    assert mult.tolist() == [1.0] + [2.0] * (n // 2 - 1) + [1.0]
    assert mult.sum() == n
    assert TorusGrid(n, period=3.0).multiplicity is mult  # one array per size
    with pytest.raises(ValueError, match="read-only"):
        mult[1] = 3.0


def test_logsumexp_leaves_the_multiplicity_unchanged():
    mult = TorusGrid(16).multiplicity
    before = mult.tobytes()
    rows = np.random.default_rng(1).normal(size=(4, 9))
    rows[1] = 2.0  # every slot tied
    logsumexp_modes(rows)
    logsumexp_modes(rows[0])
    assert mult.tobytes() == before and not mult.flags.writeable


def test_logsumexp_port_equals_scipy_bit_for_bit():
    pytest.importorskip("scipy", minversion="1.17")
    from scipy.special import logsumexp as scipy_logsumexp

    rng = np.random.default_rng(7)
    cases = []
    for _ in range(300):
        shape = (int(rng.integers(1, 9)), int(rng.integers(1, 300)))
        h = rng.normal(0.0, 10.0 ** rng.uniform(-2, 3), shape)
        h[rng.random(shape) < 0.05] = -np.inf  # vanishing coefficients
        cases += [h, h[0]]
        ties = rng.integers(-3, 2, shape).astype(float)  # tied maxima in most rows
        cases += [ties, ties[-1]]
    edge = np.array([[-np.inf] * 4, [0.0, np.inf, 1.0, -np.inf], [5.0, 5.0, 5.0, 5.0]])
    cases += [edge, edge[0], edge[1], np.array([2.5]), np.array([[-np.inf], [3.0]])]
    cases += [np.array([[1.5], [1.5]]), np.array([[0.5, 0.5], [-1.0, 2.0], [2.0, -np.inf]])]
    mixed = rng.normal(0.0, 3.0, (5, 9))
    mixed[2] = -np.inf  # an all -inf row among finite rows
    cases += [mixed, mixed[2]]
    # (K, T, L) stacks, as _weighted_norm takes a trajectory at K widths: ties
    # at the end slots, which count once, and in between, which count twice
    for length in (1, 2, 3, 4, 9, 33):
        cube = rng.integers(-2, 2, (3, 4, length)).astype(float)
        cube[0, :, 0] = cube[0, :, -1] = 5.0  # tied at slot 0 and slot L-1
        cube[1, 0, :] = 5.0  # tied everywhere
        cube[1, 1, -1] = 5.0  # the max at slot L-1 alone
        cube[1, 2, 0] = 5.0  # the max at slot 0 alone
        cube[2, 0, :] = -np.inf
        cube[2, 1, length // 2] = np.inf
        cases += [cube, cube + rng.normal(0.0, 1e-3, cube.shape)]
    for h in cases:
        ours, theirs = logsumexp_modes(h), scipy_logsumexp(_unfold(h), axis=-1)
        assert np.ndim(ours) == h.ndim - 1
        assert _hex(ours) == _hex(theirs)
        assert _hex(logsumexp_port(_unfold(h))) == _hex(theirs)
    assert logsumexp_modes(edge).tolist()[:2] == [-np.inf, np.inf]
    assert logsumexp_modes(mixed)[2] == -np.inf and np.isfinite(logsumexp_modes(mixed)).sum() == 4


def test_logsumexp_keeps_its_recorded_values_without_scipy():
    inf, nan = np.inf, np.nan
    rows = np.array(
        [
            [-inf, -inf, -inf, -inf],
            [1.0, inf, -2.0, 0.5],
            [1.0, nan, -2.0, 0.5],
            [3.25, -1.5, 3.25, 3.25],  # tied maxima
            [0.1, -700.0, 2.5, -inf],
            [-1e300, -1e300, 5e-324, -0.0],
        ]
    )
    # float.hex of logsumexp(_unfold(rows)) under the port that summed the
    # unfolded layout directly
    assert _hex(logsumexp_modes(rows)) == [
        "-inf", "inf", "nan", "0x1.28ffc4c5d72d1p+2", "0x1.9e66a586e047fp+1",
        "0x1.193ea7aad030ap+0",
    ]
    one = logsumexp_modes(np.array([0.3, -1.25, 7.5, 7.5, -inf, 2.0]))
    assert one.shape == () and _hex(one) == ["0x1.1c67107c2e485p+3"]
    cube = np.linspace(-5.0, 5.0, 24).reshape(2, 3, 4)
    cube[0, 1, 2] = -inf
    cube[1, 2, :] = 2.0
    assert logsumexp_modes(cube).shape == (2, 3)
    assert _hex(logsumexp_modes(cube)) == [
        "-0x1.3c3bcfe79dc4fp+1", "-0x1.35c3910a4e854p+0", "0x1.01f7ae1a81adcp+0",
        "0x1.5f97aa87b024cp+1", "0x1.1f19bf010fb96p+2", "0x1.e5585fd151001p+1",
    ]


def test_trapezoid_ports_equal_scipy_bit_for_bit():
    pytest.importorskip("scipy", minversion="1.17")
    from scipy import integrate

    rng = np.random.default_rng(11)
    for _ in range(100):
        nodes = int(rng.integers(2, 60))
        x = np.cumsum(rng.uniform(0.0, 0.3, nodes))
        y = rng.normal(size=(nodes, 17)) + 1j * rng.normal(size=(nodes, 17))
        for ys in (y, np.broadcast_to(y[0], y.shape)):  # the zero-stride first iterate
            expected = integrate.cumulative_trapezoid(ys, x, axis=0, initial=0.0)
            got = cumulative_trapezoid(ys, x)
            assert _hex(got) == _hex(expected) and got.flags.owndata
        y0 = y[:, 0].real
        assert _hex(verify.trapezoid(y0, x)) == _hex(integrate.trapezoid(y0, x))
