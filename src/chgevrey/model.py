r"""The weakly dissipative Camassa-Holm flow in its nonlocal form.

The evolved equation is

    u_t = F(u) = -(u + Gamma) u_x - lambda u + Q(u),
    Q(u) = -(1 - d_xx)^{-1} d_x( -h(u) + u^2 + u_x^2 / 2 ),
    h(u) = (alpha + Gamma) u + (beta/3) u^3 + (gamma/4) u^4,

with lambda > 0 the dissipation rate.  The equivalent local form pulls the
Helmholtz operator across; the two differ in how the alpha term transforms
(alpha*u_x here, alpha*u there), which ``formulation_residual`` in the test
oracles measures; it is zero only for alpha = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.fft._pocketfft_umath import irfft, rfft_n_even

from .spectral import SpectralField, _padded_size, sobolev_norm

__all__ = [
    "ModelParams",
    "rhs",
    "RhsWork",
    "functional_H",
    "small_data_check",
]

SMALL_DATA_EPSILON = 0.1  # small_data_check's budget is lam * SMALL_DATA_EPSILON


@dataclass(frozen=True)
class ModelParams:
    """Coefficients of the flow; lam is the dissipation rate lambda > 0."""

    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0
    Gamma_coef: float = 0.0
    lam: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "Gamma_coef", "lam"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ValueError(f"{name} must be a finite real, got {v!r}")
        if not (self.lam > 0.0):
            raise ValueError(f"lam must be positive, got {self.lam}")


_BLOCK_POINTS = 1 << 14  # padded points per row block of a tall batch, before its rows split equally


class RhsWork:
    """The plan of ``rhs`` for one run: buffers, views and symbols for one grid, shape, dtype and p.

    A batch of more than _BLOCK_POINTS padded points is ``tall``: it runs in
    ceil(rows * fine / _BLOCK_POINTS) equal blocks of ``block`` rows, the last
    one ending on the last row, so it redoes fewer rows than there are blocks.
    A single field or a shorter batch is one block of its own shape.  The one
    buffer set, of one block and in the field's dtype: the triple (fine*c,
    fine*u_x, L c), the padded samples (u, u_x and two temporary rows) and the
    spectrum of the odd sample rows; on the bench picard shape (n = 64,
    quartic, 512 rows: 5 blocks of 103) 0.96 MB against 4.7 MB for the whole
    batch, more than a core's L2.  ``stage`` and ``staged``, the field over it,
    are None until ``step_rk4`` makes them, of u's shape, on the plan's first
    step.  The views of these that a call reads (among them ``fused0`` and
    ``fused1``, the two back-scaled spectra of one block), ``inv_fine`` =
    1/fine (the scale of the inverse transform), n/2, the quartic flag and
    beta/3, gamma/4 are taken once here.  The read-only symbols on modes 0 ..
    n/2, in the field's precision: the stacked (fine, fine*ik, L), with
    L = -(lambda + i Gamma k - (alpha+Gamma) ik/(1+k^2)), that yields the
    irfft input pair and the linear terms in one multiply; and the
    back-scaling pair (-1/fine, -ik/(1+k^2)/fine) of the fused rfft output.
    No result aliases them.

    ``rhs`` calls NumPy's pocketfft gufuncs ``irfft`` and ``rfft_n_even`` (fine
    is even) with the operands and scale ``np.fft`` gives them, so the bits are
    the same; skipping its wrapper saves ~5 us per call, as long as a 192-point
    transform, and an RK4 step makes 8 calls.
    """

    def __init__(self, u: SpectralField, p: ModelParams):
        grid, shape, dtype = u.grid, u.coeffs.shape, u.coeffs.dtype
        real = np.finfo(dtype).dtype
        self.quartic = p.beta != 0.0 or p.gamma != 0.0
        # pad 5/2 keeps quartic powers alias-free, 3/2 quadratic ones (Orszag)
        fine = _padded_size(grid.n_points, 2.5 if self.quartic else 1.5)
        half = grid.n_points // 2
        self.key, self.half, self.stage, self.staged = (grid, shape, dtype, p), half, None, None
        self.inv_fine = np.reciprocal(fine, dtype=real)  # np.fft's scale, in the field's precision
        self.beta3, self.gamma4 = p.beta / 3.0, p.gamma / 4.0
        n_rows = math.prod(shape[:-1])
        self.block = math.ceil(n_rows / max(1, math.ceil(n_rows * fine / _BLOCK_POINTS)))
        self.tall = n_rows > self.block
        lead = (self.block,) if self.tall else shape[:-1]
        self.triple = np.empty((3,) + lead + (half + 1,), dtype=dtype)
        self.pair, self.linear_c = self.triple[:2], self.triple[2]
        self.samples = np.empty((4,) + lead + (fine,), dtype=real)
        self.rows = tuple(self.samples)  # u, u_x, and the temporaries u^2, inner
        self.first, self.squares, self.odd = self.samples[:2], self.samples[2:], self.samples[1::2]
        self.spectrum = np.empty((2,) + lead + (fine // 2 + 1,), dtype=dtype)
        self.fused = self.spectrum[..., : half + 1]
        self.fused0, self.fused1 = self.fused
        k = grid.wavenumbers.astype(real)
        ik = 1j * k
        nonlocal_ = ik / (1.0 + k * k)
        stacked = (1,) * len(lead) + (half + 1,)
        linear = -(p.lam + p.Gamma_coef * ik - (p.alpha + p.Gamma_coef) * nonlocal_)
        self.symbol = np.array([np.full_like(ik, fine), fine * ik, linear]).reshape((3,) + stacked)
        self.back = np.array([np.full_like(ik, -self.inv_fine), -nonlocal_ / fine]).reshape((2,) + stacked)
        for symbol in (self.symbol, self.back):
            symbol.flags.writeable = False


def _padded_pass(work: RhsWork, c: np.ndarray) -> None:
    """rhs's pass over the rows of ``c`` in the plan's buffers; leaves the
    ``fused0`` and ``fused1`` spectra, to be added to its ``linear_c``."""
    np.multiply(work.symbol, c, out=work.triple)  # fine*(c, u_x) and L c
    # the irfft kernel zero-pads the n/2 + 1 stored modes to fine itself
    irfft(work.pair, work.inv_fine, out=work.first)
    np.multiply(work.first, work.first, out=work.squares)  # u^2, u_x^2
    w, wx, w2, inner = work.rows
    inner *= 0.5
    inner += w2  # u^2 + u_x^2/2
    wx *= w  # u u_x
    if work.quartic:  # inner -= u^2 u (beta/3 + (gamma/4) u)
        w2 *= w
        w *= work.gamma4
        w += work.beta3
        w2 *= w
        inner -= w2
    # u u_x and the inner term, rows 1 and 3, go back in one rfft
    rfft_n_even(work.odd, 1.0, out=work.spectrum)
    fused = work.fused
    fused *= work.back  # now -u u_x and -(1 - d_xx)^{-1} d_x inner; L c holds the rest of Q


def rhs(u: SpectralField, p: ModelParams, *, work: RhsWork | None = None) -> SpectralField:
    """F(u) = -(u+Gamma) u_x - lambda u + Q(u), from one padded real-FFT pass.

    One multiply by the plan's stacked symbol gives (fine*c, fine*ik*c, L c);
    one call of NumPy's irfft kernel, which zero-pads the n/2 + 1 stored modes
    itself, gives u and u_x on the padded grid, one multiply both squares, then
    u u_x and u^2 + u_x^2/2 - (beta/3) u^3 - (gamma/4) u^4 are formed pointwise
    (no truncation between the powers), and one call of the rfft kernel brings
    both back (see RhsWork).  Both spectra are then scaled by the back symbol
    and added to L c.  The padding (5n/2 points for a quartic model, 3n/2
    otherwise) makes the modes below n/2 the true convolution coefficients, as
    in product(), and slot n/2 is zeroed.  A batch is evaluated row by row on
    the last axis; a tall one (see RhsWork) block by block, each block's sum
    written into its rows of the result, so a row's bits do not depend on its
    block, and the rows the last block redoes are written again with the same
    bits.  The result is a fresh array in u's dtype, not revalidated: an
    overflow shows up as a non-finite coefficient at the caller's next check.
    ``work`` is the RhsWork plan for u's grid, shape and dtype and this p (else
    ValueError), or None for a plan of this call alone.
    """
    grid, c = u.grid, u.coeffs
    work = RhsWork(u, p) if work is None else work
    key = (grid, c.shape, c.dtype, p)
    if work.key != key:
        raise ValueError(f"rhs buffers for (grid, shape, dtype, p) {work.key}, not {key}")
    if work.tall:
        out = np.empty(c.shape, dtype=c.dtype)
        rows, out_rows, size = c.reshape(-1, c.shape[-1]), out.reshape(-1, c.shape[-1]), work.block
        for start in range(0, len(rows), size):
            start = min(start, len(rows) - size)  # the last block ends on the last row
            _padded_pass(work, rows[start : start + size])
            summed = np.add(work.fused1, work.linear_c, out=out_rows[start : start + size])
            summed += work.fused0
    else:
        _padded_pass(work, c)
        out = work.fused1 + work.linear_c
        out += work.fused0
    out[..., work.half] = 0.0
    return u.with_coeffs(out)


def functional_H(u: SpectralField, p: ModelParams, s: float) -> float | np.ndarray:
    """|alpha| + |Gamma| + n + (|beta|/3) n^2 + (|gamma|/4) n^3 with n = H^s norm;
    one value per row of a batch.  Like the norm, it reads inf past the float
    range; a term whose coefficient is zero is left out, not taken as 0*inf."""
    if not (s > 1.5):
        raise ValueError(f"the smallness functional needs s > 3/2, got {s}")
    h = _functional_H(sobolev_norm(u, s), p)
    return h if np.ndim(h) else float(h)


def _functional_H(norms, p: ModelParams):
    """functional_H of given H^s norms, a float or an array of them."""
    a0, b3, g4 = abs(p.alpha) + abs(p.Gamma_coef), abs(p.beta) / 3.0, abs(p.gamma) / 4.0
    # float_power is libm's pow, so n^2 and n^3 round as Python's n**2 and n**3;
    # np.power, np.square and ** on an array do not
    with np.errstate(over="ignore"):
        h = a0 + norms
        for coef, power in ((b3, 2.0), (g4, 3.0)):
            if coef:
                h = h + coef * np.float_power(norms, power)
    return h


def small_data_check(u0: SpectralField, p: ModelParams, s: float) -> bool:
    """True iff the t=0 functional is within the dissipation budget
    lam * SMALL_DATA_EPSILON (boundary included)."""
    return functional_H(u0, p, s) <= p.lam * SMALL_DATA_EPSILON

