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


def _fine_size(n: int, p: ModelParams) -> int:
    quartic = p.beta != 0.0 or p.gamma != 0.0
    # pad 5/2 keeps quartic powers alias-free, 3/2 quadratic ones (Orszag)
    return _padded_size(n, 2.5 if quartic else 1.5)


class RhsWork:
    """The plan of ``rhs`` for one run: buffers and symbols for one grid, shape of u and p.

    The buffers, on a leading axis: the pair (c, u_x), its padded samples, two
    temporaries and a spectrum.  The read-only symbols on modes 0 .. n/2: the
    forward pair (fine, fine*ik) that yields the sampled (u, u_x) from one
    irfft; the linear symbol L = -(lambda + i Gamma k - (alpha+Gamma) ik/(1+k^2));
    and the back-scaling pair (-1/fine, -ik/(1+k^2)/fine) of the fused rfft
    output.  No result aliases them.
    """

    def __init__(self, u: SpectralField, p: ModelParams):
        grid, shape = u.grid, u.coeffs.shape
        lead, fine = shape[:-1], _fine_size(grid.n_points, p)
        self.key = (grid, shape, p)
        self.pair = np.empty((2,) + shape, dtype=np.complex128)
        self.samples = np.empty((4,) + lead + (fine,))
        self.spectrum = np.empty((2,) + lead + (fine // 2 + 1,), dtype=np.complex128)
        ik, nonlocal_ = grid.dx_symbol, grid.nonlocal_symbol
        stacked = (2,) + (1,) * len(lead) + (grid.n_points // 2 + 1,)
        self.forward = np.array([np.full_like(ik, fine), fine * ik]).reshape(stacked)
        self.linear = -(p.lam + p.Gamma_coef * ik - (p.alpha + p.Gamma_coef) * nonlocal_)
        self.back = np.array([np.full_like(ik, -1.0 / fine), -nonlocal_ / fine]).reshape(stacked)
        for symbol in (self.forward, self.linear, self.back):
            symbol.flags.writeable = False


def rhs(u: SpectralField, p: ModelParams, *, work: RhsWork | None = None) -> SpectralField:
    """F(u) = -(u+Gamma) u_x - lambda u + Q(u), from one padded real-FFT pass.

    One irfft of (fine*c, fine*ik*c) gives u and u_x on the padded grid, u u_x
    and u^2 + u_x^2/2 - (beta/3) u^3 - (gamma/4) u^4 are formed pointwise (no
    truncation between the powers), and one rfft brings both back.  Both
    spectra are then scaled by one stacked symbol, and the linear terms enter
    as one symbol L times c.  The padding (5n/2 points for a quartic model,
    3n/2 otherwise) makes the modes below n/2 the true convolution coefficients,
    as in product(), and slot n/2 is zeroed.  A batch is evaluated row by row on
    the last axis.  The result is not revalidated: an overflow shows up as a
    non-finite coefficient at the caller's next check.  ``work`` is the RhsWork
    plan for u's grid and shape and this p (else ValueError), or None for a
    plan of this call alone.
    """
    grid, c = u.grid, u.coeffs
    work = RhsWork(u, p) if work is None else work
    if work.key != (grid, c.shape, p):
        raise ValueError(f"rhs buffers for (grid, shape, p) {work.key}, not {(grid, c.shape, p)}")
    np.multiply(work.forward, c, out=work.pair)  # fine*(c, u_x)
    # irfft pads the spectrum with zeros itself and carries 1/fine
    np.fft.irfft(work.pair, work.samples.shape[-1], axis=-1, out=work.samples[:2])
    w, wx, w2, inner = work.samples
    np.multiply(w, w, out=w2)
    np.multiply(wx, 0.5, out=inner)
    inner *= wx
    inner += w2  # u^2 + u_x^2/2
    wx *= w  # u u_x
    if p.beta != 0.0 or p.gamma != 0.0:  # inner -= u^2 u (beta/3 + (gamma/4) u)
        w2 *= w
        w *= p.gamma / 4.0
        w += p.beta / 3.0
        w2 *= w
        inner -= w2
    # u u_x and the inner term, rows 1 and 3, go back in one rfft
    half = grid.n_points // 2
    fused = np.fft.rfft(work.samples[1::2], axis=-1, out=work.spectrum)[..., : half + 1]
    fused *= work.back  # now -u u_x and -(1 - d_xx)^{-1} d_x inner; L c holds the rest of Q
    out = work.linear * c
    out += fused[1]
    out += fused[0]
    out[..., half] = 0.0
    return u.with_coeffs(out)


def functional_H(u: SpectralField, p: ModelParams, s: float) -> float | np.ndarray:
    """|alpha| + |Gamma| + n + (|beta|/3) n^2 + (|gamma|/4) n^3 with n = H^s norm;
    one value per row of a batch.  Like the norm, it reads inf past the float
    range; a term whose coefficient is zero is left out, not taken as 0*inf."""
    if not (s > 1.5):
        raise ValueError(f"the smallness functional needs s > 3/2, got {s}")
    norms = sobolev_norm(u, s)
    a0, b3, g4 = abs(p.alpha) + abs(p.Gamma_coef), abs(p.beta) / 3.0, abs(p.gamma) / 4.0

    def h(n: float) -> float:
        # Python float powers per value: numpy's n**2 and n**3 round differently
        try:
            return a0 + n + (b3 * n**2 if b3 else 0.0) + (g4 * n**3 if g4 else 0.0)
        except OverflowError:  # a float power raises where n was finite
            return math.inf

    values = [h(n) for n in np.ravel(norms).tolist()]
    return np.array(values).reshape(np.shape(norms)) if np.ndim(norms) else values[0]


def small_data_check(u0: SpectralField, p: ModelParams, s: float) -> bool:
    """True iff the t=0 functional is within the dissipation budget
    lam * SMALL_DATA_EPSILON (boundary included)."""
    return functional_H(u0, p, s) <= p.lam * SMALL_DATA_EPSILON

