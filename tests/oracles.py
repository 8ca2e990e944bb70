r"""Reference implementations that the tests judge the toolkit against.

* ``product_direct`` is the O(N^2) convolution over the full complex band,
  which the padded ``product`` and the fused ``rhs`` must reproduce.
* ``full_band`` unfolds stored coefficients to the full complex band.
* ``helmholtz`` is the operator (1 - d_xx) that ``formulation_residual``
  applies to ``rhs``.
* ``h_of_u`` and ``nonlocal_source`` assemble the nonlocal source from
  ``product`` calls padded as ``rhs`` pads (5/2 for the powers of h, 3/2
  for the quadratic terms), truncating to the stored band between factors:
  the product-based pipeline that the one-pass ``rhs`` replaced.
* ``formulation_residual`` sets the evolved nonlocal form against the local
  form of the equation.
* ``delta_of_tau_window`` is the real-root window of ``delta_of_tau``.
* ``peakon`` is the periodic Camassa-Holm peakon carried through the
  dissipation map: an exact weak solution, in H^s only for s < 3/2, that
  the march must converge to at first order.
* ``ea_norm_unfolded`` is the weighted sup norm summed over the unfolded
  n-mode layout with ``logsumexp_port``, SciPy 1.17's ``logsumexp`` repeated
  operation for operation: the plain form that ``ea_norm`` must equal bit for
  bit.
* ``symbol_lemma_ratios`` is ``verify_symbol_lemma``'s ratio arrays on the
  full (xi, eta) meshgrid, every factor evaluated on the grid: the plain
  transcription that the suite's evaluation on the axes must equal bit for
  bit.
* ``pairing_ratio`` is one commutator case scored in Python floats, with
  libm's hypot (``abs(complex)``) and pow (``x**2``), and an overflow raised;
  ``commutator_scalar`` scores ``verify_commutator_estimate``'s cases with it,
  one at a time, as the suite did before it scored them as arrays.
* ``functional_H_scalar`` is the smallness functional of one H^s norm in
  Python floats, a float power that overflows reading inf.

None of them is library API; they live here so that they keep judging.
"""

from __future__ import annotations

import math

import numpy as np

from chgevrey import (
    GevreyIndex,
    GridMismatchError,
    ModelParams,
    NormOverflowError,
    SpectralField,
    TorusGrid,
    derivative,
    helmholtz_inv,
    product,
    rhs,
    sobolev_norm,
    to_physical,
)
from chgevrey import verify
from chgevrey.analyticity import EA_DELTA_GRID, WindowError
from chgevrey.spectral import _gevrey_norms, _unfold

_DIRECT_MAX_POINTS = 512


def full_band(c: np.ndarray) -> np.ndarray:
    """Coefficients of modes -n/2+1 .. n/2 of a real field stored as modes
    0 .. n/2: mode -m is conj(c_m), and slot n/2 (zero in a field, live in a
    ``product_direct`` result that reaches it) has no partner."""
    return np.concatenate((np.conj(c[..., -2:0:-1]), c), axis=-1)


def product_direct(f: SpectralField, g: SpectralField) -> SpectralField:
    """O(N^2) convolution oracle over the full complex band.

    Each operand is unfolded to modes -n/2+1 .. n/2, and
    coeffs[m] = sum_j f_j * g_{m-j} over in-range j for m = 0 .. n/2; no
    truncation beyond the band.  Guarded to n_points <= 512.  Operands are
    canonicalized by byte order internally so the computation is exactly
    symmetric in (f, g).
    """
    if f.grid != g.grid:
        raise GridMismatchError(f"grids differ: {f.grid} vs {g.grid}")
    n = f.grid.n_points
    if n > _DIRECT_MAX_POINTS:
        raise ValueError(
            f"product_direct is O(N^2) and limited to {_DIRECT_MAX_POINTS} points; got {n}"
        )
    a, b = f.coeffs, g.coeffs
    if b.tobytes() < a.tobytes():
        a, b = b, a
    half = n // 2
    full = np.convolve(full_band(a), full_band(b))
    # full[q] collects mode sums m1+m2 = q + 2*(-half+1)
    return f.with_coeffs(full[2 * half - 2 : 3 * half - 1])


def helmholtz(field: SpectralField) -> SpectralField:
    """(1 - d^2/dx^2): multiply by (1 + k^2)."""
    return field.with_coeffs((1.0 + field.grid.wavenumbers**2) * field.coeffs)


def h_of_u(u: SpectralField, p: ModelParams) -> SpectralField:
    """(alpha + Gamma) u + (beta/3) u^3 + (gamma/4) u^4, de-aliased powers.

    Each power goes through product() and is truncated to the stored band
    before the next factor; pad 5/2 keeps quartic powers alias-free.
    """
    out = (p.alpha + p.Gamma_coef) * u
    if p.beta != 0.0 or p.gamma != 0.0:
        pad = 2.5
        u2 = product(u, u, pad)
        u3 = product(u2, u, pad)
        if p.beta != 0.0:
            out = out + (p.beta / 3.0) * u3
        if p.gamma != 0.0:
            out = out + (p.gamma / 4.0) * product(u3, u, pad)
    return out


def nonlocal_source(u: SpectralField, p: ModelParams) -> SpectralField:
    """Q(u) = -(1-d_xx)^{-1} d_x(-h(u) + u^2 + u_x^2/2); exactly mean free."""
    ux = derivative(u)
    inner = -1.0 * h_of_u(u, p) + product(u, u, 1.5) + 0.5 * product(ux, ux, 1.5)
    return -1.0 * helmholtz_inv(derivative(inner))


def formulation_residual(u: SpectralField, p: ModelParams) -> float:
    """Max-norm mismatch between the evolved nonlocal form and the local form.

    Applies (1 - d_xx) to rhs(u) and subtracts the local-form right-hand side

        -3 u u_x + 2 u_x u_xx + u u_xxx + alpha u + beta u^2 u_x
        + gamma u^3 u_x + Gamma u_xxx - lambda (u - u_xx).

    The two agree identically for alpha = 0; for alpha != 0 they differ (the
    nonlocal form carries alpha*u_x where the local form has alpha*u).  This is
    a diagnostic: report it, never assert it to zero.
    """
    pad = 2.5
    ux = derivative(u)
    uxx = derivative(ux)
    uxxx = derivative(uxx)
    lifted = helmholtz(rhs(u, p))
    local = (
        -3.0 * product(u, ux, pad)
        + 2.0 * product(ux, uxx, pad)
        + product(u, uxxx, pad)
        + p.alpha * u
        + p.Gamma_coef * uxxx
        - p.lam * (u - uxx)
    )
    if p.beta != 0.0 or p.gamma != 0.0:
        u2 = product(u, u, pad)
        if p.beta != 0.0:
            local = local + p.beta * product(u2, ux, pad)
        if p.gamma != 0.0:
            local = local + p.gamma * product(product(u2, u, pad), ux, pad)
    diff = lifted - local
    return float(np.max(np.abs(to_physical(diff))))


def delta_of_tau_window(delta: float, sigma: float, a: float) -> float:
    """Largest tau for which the schedule's inner root stays real: a(1-delta)^sigma."""
    return a * (1.0 - delta) ** sigma


def peakon(grid: TorusGrid, a: float, lam: float, t: float) -> SpectralField:
    """The CH peakon u = a e^(-lam t) cosh(pi - |x - q|)/cosh(pi) on period 2 pi,
    |.| taken mod 2 pi and q(t) = a (1 - e^(-lam t))/lam, at time t: modes
    c_m = a e^(-lam t) (tanh(pi)/pi)/(1 + m^2) e^(-i m q) for m < n/2, slot n/2 zero."""
    m = np.arange(grid.n_points // 2 + 1)
    decay = math.exp(-lam * t)
    q = a * (1.0 - decay) / lam
    c = a * decay * (math.tanh(math.pi) / math.pi) / (1.0 + m * m) * np.exp(-1j * m * q)
    c[-1] = 0.0
    return SpectralField(grid, c)


def logsumexp_port(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over the last axis, as SciPy 1.17 computes it: the tied
    maxima counted as m and taken out, log1p(s/m) + log(m) + max, and
    log(sum(exp(a))) on the rows where that is not finite."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, axis=-1, keepdims=True)
        tied = a == a_max
        m = np.count_nonzero(tied, axis=-1, keepdims=True).astype(float)
        shifted = np.where(tied, -np.inf, a)
        shifted -= a_max
        s = np.sum(np.exp(shifted, out=shifted), axis=-1, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        bad = ~np.isfinite(out)
        if np.any(bad):
            out = np.where(bad, np.log(np.sum(np.exp(a), axis=-1, keepdims=True)), out)
    return out[..., 0]


def ea_pair_scores(times, fields: SpectralField, a: float, sigma: float, s: float) -> np.ndarray:
    """The log score of every (width, time) pair of ``ea_norm``, one row per
    width of ``EA_DELTA_GRID``, each row scored over the unfolded n-mode
    layout; an inadmissible pair scores -inf, and so does an all-zero row."""
    t_arr = np.abs(np.asarray(times, dtype=float))
    k2 = _unfold(fields.grid.wavenumbers**2)
    with np.errstate(divide="ignore"):
        log_mag2 = _unfold(2.0 * np.log(np.abs(fields.coeffs)))
    scores = np.full((len(EA_DELTA_GRID), len(t_arr)), -np.inf)
    for j, delta in enumerate(EA_DELTA_GRID):
        shrink = a * (1.0 - delta) ** sigma
        mask = t_arr < shrink / (2.0**sigma - 1.0)
        log_w = s * np.log1p(k2) + 2.0 * delta * (1.0 + k2) ** (1.0 / (2.0 * sigma))
        terms = log_mag2[mask]
        terms += log_w
        scores[j, mask] = (
            0.5 * logsumexp_port(terms)
            + sigma * math.log(1.0 - delta)
            + 0.5 * np.log1p(-t_arr[mask] / shrink)
        )
    return scores


def ea_norm_unfolded(times, fields: SpectralField, a: float, sigma: float, s: float) -> float:
    """The weighted sup norm of ``ea_norm``: the largest of ``ea_pair_scores``."""
    t_arr = np.abs(np.asarray(times, dtype=float))
    admissible = np.any(t_arr < a * (1.0 - EA_DELTA_GRID[0]) ** sigma / (2.0**sigma - 1.0))
    best = np.max(ea_pair_scores(times, fields, a, sigma, s), initial=-np.inf)  # NaN stays NaN
    if not admissible:
        raise WindowError("no admissible (time, width) pair on the grid")
    if best == -np.inf:
        return 0.0
    try:
        value = math.exp(best)
    except OverflowError:
        value = math.inf
    if math.isinf(value):
        raise NormOverflowError("weighted sup norm overflowed")
    return value


def symbol_lemma_ratios(extent: int, params) -> list:
    """|W(xi) - W(eta)| / (|xi - eta| bracket) on [-extent, extent]^2, one array
    per (delta, sigma, s) of ``params``, every factor taken on the meshgrid."""
    xi = np.arange(-extent, extent + 1, dtype=float)
    xg, eg = np.meshgrid(xi, xi, indexing="ij")
    ratios = []
    for delta, sigma, s in params:

        def weight(x):
            return (1.0 + x**2) ** (s / 2.0) * np.exp(
                delta * (1.0 + x**2) ** (1.0 / (2.0 * sigma))
            )

        lhs = np.abs(weight(xg) - weight(eg))
        a2 = 1.0 + (xg - eg) ** 2
        b2 = 1.0 + eg**2
        half = (s - 1.0) / 2.0
        bump = half + 1.0 / (2.0 * sigma)
        bracket = (
            a2**half
            + b2**half
            + delta
            * (a2**bump + b2**bump)
            * np.exp(delta * a2 ** (1.0 / (2.0 * sigma)))
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios.append(lhs / (np.abs(xg - eg) * bracket))
    return ratios


def pairing_ratio(delta, pairing, a_s, b_s, a_plain, b_bumped, a_bumped, b_plain) -> float:
    """One commutator case from its pairing sum and norms, in Python floats;
    raises OverflowError when the pairing, a norm or a square overflowed."""
    lhs = abs(pairing)
    if not all(map(math.isfinite, (lhs, a_s, b_s, a_plain, b_bumped, a_bumped, b_plain))):
        raise NormOverflowError("pairing overflowed")
    rhs = a_s * b_s**2 + delta * (a_plain * b_bumped**2 + a_bumped * b_bumped * b_plain)
    if rhs == 0.0:
        return math.nan if lhs == 0.0 else math.inf
    return lhs / rhs


def commutator_scalar(ensemble_size: int, seed: int) -> tuple:
    """(cases, skipped, worst ratio) of ``verify_commutator_estimate``, each
    case scored alone by ``pairing_ratio`` on the suite's fields and norms."""
    sigma, s, grid = 1.0, 2.0, verify.GRID
    k2 = grid.wavenumbers**2
    n_drawn = 2 * ensemble_size
    drawn = verify._ensemble(seed, n_drawn + 10).coeffs
    one = np.zeros_like(drawn[0])
    one[0] = 1.0
    u = SpectralField(grid, np.vstack([drawn[0:n_drawn:2], np.tile(one, (10, 1))]))
    v = SpectralField(grid, np.vstack([drawn[1:n_drawn:2], drawn[n_drawn:]]))
    du = derivative(u)
    deltas = (0.0, 0.25, 60.0)
    indices = [GevreyIndex(sigma, d, s + bump) for d in deltas for bump in (0.0, 1.0 / sigma)]
    ratios, skipped = [], 0
    for delta in deltas:
        plain, bumped = GevreyIndex(sigma, delta, s), GevreyIndex(sigma, delta, s + 1.0 / sigma)
        with np.errstate(over="ignore", invalid="ignore"):
            w = (1.0 + k2) ** s * np.exp(2.0 * delta * (1.0 + k2) ** (1.0 / (2.0 * sigma)))
        for a, b in ((u, v), (du, u)):
            with np.errstate(over="ignore", invalid="ignore"):
                pairing = np.sum(_unfold(w * product(a, b).coeffs * np.conj(b.coeffs)), axis=-1)
            na, nb = _gevrey_norms(a, indices)[0], _gevrey_norms(b, indices)[0]
            norms = (
                sobolev_norm(a, s), sobolev_norm(b, s), na[plain], nb[bumped], na[bumped], nb[plain]
            )
            for case in zip(pairing.tolist(), *(norm.tolist() for norm in norms)):
                try:
                    ratios.append(pairing_ratio(delta, *case))
                except OverflowError:
                    skipped += 1
    worst = max((r for r in ratios if not math.isnan(r)), default=0.0)
    return len(ratios) + skipped, skipped, worst


def functional_H_scalar(norm: float, p: ModelParams) -> float:
    """|alpha| + |Gamma| + n + (|beta|/3) n**2 + (|gamma|/4) n**3 at n = ``norm``,
    a term with a zero coefficient left out; inf where a float power overflows."""
    b3, g4 = abs(p.beta) / 3.0, abs(p.gamma) / 4.0
    try:
        return (
            abs(p.alpha) + abs(p.Gamma_coef) + norm
            + (b3 * norm**2 if b3 else 0.0) + (g4 * norm**3 if g4 else 0.0)
        )
    except OverflowError:
        return math.inf
