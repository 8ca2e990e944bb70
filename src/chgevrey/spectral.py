r"""Fourier-side representation of periodic fields and the exponential-weight
norms used throughout the package.

Conventions
-----------
* A field on the torus of period ``P`` is real, so it is stored as the half
  spectrum: the ``n/2 + 1`` Fourier coefficients ``c_m`` of modes
  ``m = 0 .. n/2``, in rfft layout.  Mode ``-m`` is ``conj(c_m)`` and is not
  stored.
* Slot ``n/2`` (the Nyquist mode) always holds zero: a field has modes
  ``|m| < n/2``.  ``SpectralField`` rejects a nonzero slot, and every writer
  (``to_spectral``, ``product``, ``model.rhs``) zeroes it.
* The forward transform is normalized by ``1/n`` so that ``c_0`` is the mean
  of the samples and a constant field ``c`` has ``c_0 = c``.
* Norms are pure coefficient mode sums over the modes ``|m| < n/2`` -- no
  ``2*pi`` measure factor.  With this choice the squared ``s=0`` norm
  equals the mean of ``|f|^2`` over the collocation points (discrete
  Parseval).
* Slot ``m`` stands for modes ``+-m``: a mode sum runs over the layout of
  ``_unfold`` (``0 .. n/2``, then ``n/2-1 .. 1``) or weighs slot ``m`` by
  ``TorusGrid.multiplicity`` ``(1, 2, ..., 2, 1)``; no other module builds either.
* Exponential weights ``exp(delta*(1+k^2)^(1/(2*sigma)))`` are evaluated in
  log space per mode so that heavy weights on tiny coefficients do not
  overflow prematurely.
* A batch of fields is one ``SpectralField`` with ``(N, n/2 + 1)`` coefficients;
  ``batch[i]`` is row ``i``.  The norms, ``product``, ``derivative`` and
  ``helmholtz_inv`` act on the last axis, so row ``i`` of a batched result
  equals the call on field ``i`` alone.  A trajectory of a batch stacks its
  recorded states as ``(T, N, n/2 + 1)``.
* The norms never raise on overflow: a single field reads ``inf`` and a batch
  reads ``inf`` in the rows that overflowed.  The callers that judge a norm
  raise ``NormOverflowError`` once, where they take it in.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

__all__ = [
    "TorusGrid",
    "SpectralField",
    "GevreyIndex",
    "GridMismatchError",
    "NonFiniteError",
    "NormOverflowError",
    "to_spectral",
    "to_physical",
    "field_from_modes",
    "random_field",
    "derivative",
    "helmholtz_inv",
    "sobolev_norm",
    "gevrey_norm",
    "gevrey_norm_bar",
    "product",
]


class GridMismatchError(ValueError):
    """Two fields that should share a grid do not."""


class NonFiniteError(ValueError):
    """Coefficients or samples contain NaN/inf."""


class NormOverflowError(OverflowError):
    """A norm, or a bound built from one, that a verdict needs left the float range."""


# --- grid and field containers -------------------------------------------------


@dataclass(frozen=True)
class TorusGrid:
    """Uniform collocation grid on a periodic interval.

    ``n_points`` must be even and at least 8; the stored slots are
    ``m = 0 .. n/2`` with wavenumbers ``k_m = 2*pi*m/period``, slot n/2 zero.
    """

    n_points: int
    period: float = 2.0 * math.pi

    def __post_init__(self):
        if self.n_points < 8 or self.n_points % 2 != 0:
            raise ValueError(f"n_points must be even and >= 8, got {self.n_points}")
        if not (self.period > 0.0) or not math.isfinite(self.period):
            raise ValueError(f"period must be positive and finite, got {self.period}")
        # computed once per grid and shared read-only by every caller
        k = 2.0 * math.pi * np.arange(self.n_points // 2 + 1) / self.period
        k.flags.writeable = False
        object.__setattr__(self, "_wavenumbers", k)

    @property
    def wavenumbers(self) -> np.ndarray:
        return self._wavenumbers

    @property
    def multiplicity(self) -> np.ndarray:
        """Read-only count (1, 2, ..., 2, 1) of the modes each slot stands for."""
        return _slot_multiplicity(self.n_points // 2 + 1)

    @property
    def x(self) -> np.ndarray:
        """Collocation points x_j = j*period/n."""
        return self.period * np.arange(self.n_points) / self.n_points

    def index_of(self, mode: int) -> int:
        """Storage slot of mode ``mode``; mode -m shares the slot of mode m."""
        half = self.n_points // 2
        if not abs(mode) <= half:
            raise ValueError(f"mode {mode} outside band [{-half}, {half}]")
        return abs(mode)


@dataclass(frozen=True, eq=False)
class SpectralField:
    """A real field stored as the coefficients of modes 0 .. n/2, slot n/2
    zero, or a batch of fields with one row of coefficients each."""

    grid: TorusGrid
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=np.complex128)
        m = self.grid.n_points // 2 + 1
        if c.ndim not in (1, 2) or c.shape[-1] != m:
            raise ValueError(
                f"coefficient array has shape {c.shape}, expected ({m},) or (N, {m}): "
                f"n/2 + 1 modes of an n = {self.grid.n_points} grid"
            )
        if not np.all(np.isfinite(c)):
            raise NonFiniteError("coefficients must be finite")
        if np.any(c[..., -1]):
            raise ValueError(f"slot n/2 = {m - 1} (the Nyquist mode) must hold zero")
        object.__setattr__(self, "coeffs", c)

    def __getitem__(self, index) -> "SpectralField":
        """Row access on a batch: ``batch[i]`` is a view of field i; a single
        field has no rows and raises TypeError."""
        if self.coeffs.ndim == 1:
            raise TypeError("a single SpectralField has no rows to index")
        return self.with_coeffs(self.coeffs[index])

    def coeff(self, mode: int) -> complex | np.ndarray:
        """Coefficient of ``mode``; one per row of a batch."""
        c = self.coeffs[..., self.grid.index_of(mode)]
        c = np.conj(c) if mode < 0 else c
        return complex(c) if c.ndim == 0 else c

    def with_coeffs(self, coeffs: np.ndarray) -> "SpectralField":
        """``coeffs`` on this grid, neither copied nor checked: a complex array of
        the grid's shape derived from checked data (the one unchecked path)."""
        field = object.__new__(SpectralField)
        object.__setattr__(field, "grid", self.grid)
        object.__setattr__(field, "coeffs", coeffs)
        return field

    # Scalar linear algebra; products of fields live in product().
    def __add__(self, other: "SpectralField") -> "SpectralField":
        _require_same_grid(self, other)
        return self.with_coeffs(self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _require_same_grid(self, other)
        return self.with_coeffs(self.coeffs - other.coeffs)

    def __neg__(self) -> "SpectralField":
        return self.with_coeffs(-self.coeffs)

    def __mul__(self, scalar) -> "SpectralField":
        if isinstance(scalar, SpectralField):
            raise TypeError("use product() to multiply fields")
        return self.with_coeffs(self.coeffs * complex(scalar))

    __rmul__ = __mul__


@dataclass(frozen=True)
class GevreyIndex:
    """Regularity triple: Gevrey exponent sigma >= 1, width delta >= 0, Sobolev order s."""

    sigma: float
    delta: float
    s: float

    def __post_init__(self):
        if not (self.sigma >= 1.0):
            raise ValueError(f"sigma must be >= 1, got {self.sigma}")
        if not (self.delta >= 0.0):
            raise ValueError(f"delta must be >= 0, got {self.delta}")
        if not math.isfinite(self.s):
            raise ValueError("s must be finite")


def _require_same_grid(f: SpectralField, g: SpectralField) -> None:
    if f.grid != g.grid:
        raise GridMismatchError(f"grids differ: {f.grid} vs {g.grid}")


# --- transforms ---------------------------------------------------------------


def to_spectral(samples, grid: TorusGrid) -> SpectralField:
    """Forward transform of real collocation samples (1/n normalization), with
    slot n/2 zeroed: the L^2 projection onto the modes |m| < n/2."""
    arr = np.asarray(samples)
    if np.iscomplexobj(arr):
        raise ValueError("physical samples must be real")
    arr = arr.astype(np.float64)
    if arr.shape != (grid.n_points,):
        raise ValueError(f"expected {grid.n_points} samples, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("samples must be finite")
    # the complex fft, not rfft: rfft rounds differently and would move every
    # datum built from samples
    c = np.fft.fft(arr)[: grid.n_points // 2 + 1] / grid.n_points
    c[-1] = 0.0
    return SpectralField(grid, c)


def to_physical(field: SpectralField) -> np.ndarray:
    """Inverse transform to real samples, one row per row of a batch."""
    return _samples(field.coeffs, field.grid.n_points)


def _padded_size(n: int, pad_factor: float) -> int:
    """Even size, at least n, of the grid that pads an n-point grid by ``pad_factor``."""
    fine = max(n, math.ceil(pad_factor * n))
    return fine + fine % 2


def _samples(c: np.ndarray, fine: int) -> np.ndarray:
    """Samples on ``fine`` points of the real fields whose modes 0 .. n/2 fill
    the last axis of ``c``."""
    # irfft pads the spectrum with zeros itself; 1/n normalization: irfft carries 1/fine
    samples = np.fft.irfft(c, fine, axis=-1)
    return np.multiply(samples, fine, out=samples)


def field_from_modes(grid: TorusGrid, amplitudes: Mapping[int, complex]) -> SpectralField:
    """Build a real field from {mode: coefficient}.  A negative mode -m sets
    mode m to the conjugate; giving both m and -m raises ValueError."""
    c = np.zeros(grid.n_points // 2 + 1, dtype=np.complex128)
    for m, a in amplitudes.items():
        if m < 0 and -m in amplitudes:
            raise ValueError(f"modes {-m} and {m} are one conjugate pair; give one of them")
        c[grid.index_of(m)] = np.conj(a) if m < 0 else a
    return SpectralField(grid, c)


def random_field(
    grid: TorusGrid,
    rng: np.random.Generator,
    band: int | None = None,
    decay: float = 2.0,
    size: int | None = None,
) -> SpectralField:
    """Random real band-limited field: complex Gaussian coefficients with
    |m|^-decay fall-off, modes |m| <= band (default n/4).  With ``size=k``, a
    ``(k, n/2 + 1)`` batch whose row i is the i-th of k successive single draws."""
    if band is None:
        band = grid.n_points // 4
    band = min(band, grid.n_points // 2 - 1)
    shape = () if size is None else (size,)
    # draws c_0, re_1, im_1, re_2, ... row after row; (re/sqrt 2) * m**-decay
    # with Python's pow rounds exactly as the earlier per-mode construction
    draws = rng.standard_normal(shape + (1 + 2 * band,))
    scale = np.array([m ** (-decay) for m in range(1, band + 1)])
    c = np.zeros(shape + (grid.n_points // 2 + 1,), dtype=np.complex128)
    c[..., 0] = draws[..., 0]
    c.real[..., 1 : band + 1] = draws[..., 1::2] / math.sqrt(2.0) * scale
    c.imag[..., 1 : band + 1] = draws[..., 2::2] / math.sqrt(2.0) * scale
    return SpectralField(grid, c)


# --- diagonal operators -------------------------------------------------------


def derivative(field: SpectralField) -> SpectralField:
    """Spectral d/dx: c_m -> i*k_m*c_m."""
    return field.with_coeffs(1j * field.grid.wavenumbers * field.coeffs)


def helmholtz_inv(field: SpectralField) -> SpectralField:
    """(1 - d^2/dx^2)^{-1}: divide by (1 + k^2)."""
    return field.with_coeffs(field.coeffs / (1.0 + field.grid.wavenumbers**2))


# --- norms --------------------------------------------------------------------


def _unfold(a: np.ndarray) -> np.ndarray:
    """Per-mode values over modes 0 .. n/2 laid out over all n modes in FFT order
    (0 .. n/2, then -n/2+1 .. -1, mode -m conjugating mode m): the mode sums' order."""
    tail = a[..., -2:0:-1]  # conjugating a real tail would only copy it
    return np.concatenate((a, np.conj(tail) if np.iscomplexobj(a) else tail), axis=-1)


@functools.lru_cache(maxsize=32)
def _slot_multiplicity(slots: int) -> np.ndarray:
    """How often each of ``slots`` stored slots appears in ``_unfold``; read-only."""
    mult = np.bincount(_unfold(np.arange(slots))).astype(float)
    mult.flags.writeable = False
    return mult


def logsumexp_modes(h: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over all n modes, for ``h`` the per-mode values on the
    stored modes 0 .. n/2 (last axis) and ``a = _unfold(h)``; a 1-D input gives
    a 0-d array.  It is SciPy 1.17's ``logsumexp(a, axis=-1)`` bit for bit, so
    results do not depend on the installed SciPy: the tied maxima count as
    ``m``, the tie mask times the slot multiplicities (exact, so SciPy's float
    sum of the unfolded mask); the result is log1p(s/m) + log(m) + max with s
    the sum of the shifted rest (Blanchard, Higham & Higham 2021); only the
    exponentials are unfolded, so the one sum adds SciPy's terms in SciPy's
    order, and the in-place steps are SciPy's operations on the same operands.
    Rows where that is not finite (all -inf, or holding +inf or NaN) fall back
    to log(sum(exp(a))), computed for those rows alone.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h_max = np.max(h, axis=-1, keepdims=True)
        tied = h == h_max
        m = (tied @ _slot_multiplicity(h.shape[-1]))[..., None]
        shifted = np.where(tied, -np.inf, h)
        shifted -= h_max
        s = np.sum(_unfold(np.exp(shifted, out=shifted)), axis=-1, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + h_max
        bad = ~np.isfinite(out[..., 0])
        if np.any(bad):
            out[bad] = np.log(np.sum(_unfold(np.exp(h[bad])), axis=-1, keepdims=True))
    return out[..., 0]


def sobolev_norm(field: SpectralField, s: float) -> float | np.ndarray:
    """H^s mode sum: sqrt(sum (1+k^2)^s |c_m|^2); one value per row of a batch."""
    k2 = field.grid.wavenumbers**2
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.sum(_unfold((1.0 + k2) ** s * np.abs(field.coeffs) ** 2), axis=-1)
    return np.sqrt(total) if total.ndim else math.sqrt(total)


_LOG_FLOAT_MAX = 709.782712893384  # log of the largest double, rounded down


def _sqrt_exp(total: np.ndarray) -> np.ndarray:
    """exp(total/2) value by value, in the shape of ``total``: math.exp's
    values (np.exp rounds differently on a few percent of inputs), and inf
    wherever math.exp would overflow."""
    half = 0.5 * total
    half = np.where(half > _LOG_FLOAT_MAX, np.inf, half)
    return np.array(list(map(math.exp, half.ravel().tolist()))).reshape(half.shape)


def _weighted_norm(field: SpectralField, rows) -> list:
    """sqrt(sum (1+k^2)^s w^2 |c|^2) for each ``(s, log w^2)`` of ``rows``: a
    float per row for a single field, an array per row for a batch.  Each sum
    is taken in log space, from one pass over log |c|^2 and log(1+k^2)."""
    log_k2 = np.log1p(field.grid.wavenumbers**2)
    with np.errstate(divide="ignore"):
        log_mag2 = 2.0 * np.log(np.abs(field.coeffs))  # -inf where c vanishes
    totals = [logsumexp_modes(s * log_k2 + log_weight2 + log_mag2) for s, log_weight2 in rows]
    roots = _sqrt_exp(np.stack(totals))
    return roots.tolist() if roots.ndim == 1 else list(roots)


def _log_weight2(k2: np.ndarray, sigma: float, delta: float | np.ndarray) -> np.ndarray:
    """log of the squared Gevrey weight, 2*delta*(1+k^2)^(1/(2*sigma))."""
    return 2.0 * delta * (1.0 + k2) ** (1.0 / (2.0 * sigma))


def _gevrey_norm(field: SpectralField, sigma: float, deltas, s: float) -> list:
    """gevrey_norm at each width of ``deltas``, all from one pass over the
    field; a width is a scalar, or an (N, 1) column with one width per row of
    an (N, n/2 + 1) batch.  A field or a row that overflows reads inf."""
    k2 = field.grid.wavenumbers**2
    return _weighted_norm(field, [(s, _log_weight2(k2, sigma, delta)) for delta in deltas])


def _gevrey_norms(field: SpectralField, smooth=(), bar=()) -> tuple:
    """({index: gevrey_norm(field, index)} over ``smooth``, {index:
    gevrey_norm_bar(field, index)} over ``bar``): each distinct index is scored
    once, and every score comes from one pass over the field."""
    smooth, bar = dict.fromkeys(smooth), dict.fromkeys(bar)
    k = field.grid.wavenumbers
    k2 = k**2
    rows = [(i.s, _log_weight2(k2, i.sigma, i.delta)) for i in smooth]
    rows += [(i.s, 2.0 * i.delta * k ** (1.0 / i.sigma)) for i in bar]
    norms = _weighted_norm(field, rows)
    return dict(zip(smooth, norms)), dict(zip(bar, norms[len(smooth) :]))


def gevrey_norm(field: SpectralField, index: GevreyIndex) -> float | np.ndarray:
    """sqrt(sum (1+k^2)^s exp(2*delta*(1+k^2)^(1/(2*sigma))) |c_m|^2)."""
    return _gevrey_norms(field, [index])[0][index]


def gevrey_norm_bar(field: SpectralField, index: GevreyIndex) -> float | np.ndarray:
    """Bar variant: weight exp(2*delta*|k|^(1/sigma)) in place of the smooth one."""
    return _gevrey_norms(field, bar=[index])[1][index]


# --- products -----------------------------------------------------------------


def product(f: SpectralField, g: SpectralField, pad_factor: float = 1.5) -> SpectralField:
    """Pointwise product, de-aliased by zero padding.

    ``pad_factor`` 3/2 is exact for a single quadratic product of full-band
    fields (two-thirds rule); callers forming cubic/quartic powers pass >= 5/2.
    ``pad_factor`` 1.0 disables de-aliasing (the product wraps).

    One padded irfft per factor, the pointwise product, one rfft back, as in
    ``model.rhs``.  Every mode below n/2 receives the Fourier coefficient of
    the padded product at that mode; slot n/2 and the modes beyond are dropped.
    """
    _require_same_grid(f, g)
    n = f.grid.n_points
    fine = _padded_size(n, pad_factor)
    fg = np.fft.rfft(_samples(f.coeffs, fine) * _samples(g.coeffs, fine), axis=-1)
    fg = fg[..., : n // 2 + 1] / fine
    fg[..., n // 2] = 0.0
    return f.with_coeffs(fg)
