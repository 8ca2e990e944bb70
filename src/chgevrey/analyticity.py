r"""Radius-of-analyticity measurement and the quantitative existence bounds.

Three ingredients live here:

* ``estimate_radius`` reads the exponential decay rate of Fourier
  coefficients off a least-squares fit of log|c_m| against |k_m|^(1/sigma),
  for a field or each row of a (T, n/2 + 1) batch: one masked closed-form line
  per row, computed on the whole batch at once; a field is fitted as a
  one-row batch.
* ``lifespan_bounds`` / ``delta_of_tau`` / ``ea_norm`` render the fixed-point
  existence window, the shrinking-width schedule, and the weighted sup norm
  over (time, width) pairs at desk scale.
* ``width_bound`` marches the lower-bound ODE for the width
  (f^2' = 2*C*b^5, delta' = -8*C*delta*f^3) over a column of recorded times,
  and ``track_radius`` sets it against the measured decay rate along a
  trajectory: one decay fit of the (T, n/2 + 1) batch, the width bound on the b
  column, then one Gevrey-norm call at the theory widths, one width per row.
  ``calibrate_radius_constant`` fits once, re-marches only the width bound for
  each multiplier it tries, and takes the norms for the one it accepts.

Nothing here marches: the experiments that march data and score it with
``ea_norm`` (Picard contraction, continuity in the datum) live in ``integrate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .model import ModelParams, _functional_H
from .spectral import (
    GevreyIndex,
    NormOverflowError,
    SpectralField,
    _gevrey_norm,
    _log_weight2,
    gevrey_norm,
    logsumexp_modes,
    sobolev_norm,
)

if TYPE_CHECKING:  # the diagnostics only read a trajectory's times and states
    from .integrate import Trajectory

__all__ = [
    "RadiusEstimate",
    "LifespanBounds",
    "RadiusRecord",
    "WindowError",
    "CalibrationError",
    "estimate_radius",
    "lifespan_bounds",
    "existence_window",
    "window_norm",
    "delta_of_tau",
    "ea_norm",
    "width_bound",
    "track_radius",
    "calibrate_radius_constant",
]

EA_DELTA_GRID = np.linspace(0.05, 0.95, 19)
DELTA_CLAMP = 1e-300
MAX_DOUBLINGS = 60  # calibrate_radius_constant tries c_algebra * 2^0 .. 2^60
NOISE_FLOOR = 1e-14  # estimate_radius fits coefficients above this share of the largest
MIN_MODES = 8  # and needs at least this many of them


class WindowError(ValueError):
    """A time/width argument fell outside its admissible window."""


class CalibrationError(RuntimeError):
    """No tested multiplier makes the measured-vs-theory invariant hold."""


# --- measured radius ----------------------------------------------------------


@dataclass(frozen=True)
class RadiusEstimate:
    """Fitted decay rate: log|c_m| ~ intercept - delta_fit * |k_m|^(1/sigma) over
    modes ``modes_used`` = (first, last); NaN where unfitted, arrays for a batch."""

    delta_fit: float
    intercept: float
    residual: float
    modes_used: tuple


def estimate_radius(field: SpectralField, sigma: float = 1.0) -> RadiusEstimate:
    """Least-squares decay fit over positive modes m >= 2, one per row of a batch.

    Modes 0 and 1 are excluded (they pollute the intercept); the scan walks
    upward and stops at the first coefficient below ``NOISE_FLOOR`` relative
    to the largest one, at slot n/2 (which holds zero) at the latest.  A field
    is fitted as a one-row batch and returns that row as floats; on a
    (T, n/2 + 1) batch each field of the estimate holds one entry per row.  A
    row with fewer than ``MIN_MODES`` usable modes, or a zero row, is NaN
    throughout, ``modes_used`` included: the fit never raises on its data.

    Every row is fitted at once: the modes past a row's stop are masked out,
    and the slope is the ratio of the sums sum(dx*dy) / sum(dx*dx) of the
    deviations from the row's mean abscissa and mean log-magnitude.
    """
    if not (sigma >= 1.0):
        raise ValueError(f"sigma must be >= 1, got {sigma}")
    if field.coeffs.ndim > 2:
        raise ValueError(f"need a field or a (T, n/2 + 1) batch, got shape {field.coeffs.shape}")
    grid = field.grid
    half = grid.n_points // 2
    mags = np.abs(np.atleast_2d(field.coeffs))
    floor = NOISE_FLOOR * np.max(mags, axis=-1)
    below = mags[:, 2 : half + 1] < floor[:, None]
    counts = below.argmax(axis=-1)  # a nonzero row stops by slot n/2, which holds zero
    fitted = (floor != 0.0) & (counts >= MIN_MODES)
    # row r fits modes 2 .. counts[r] + 1
    used = np.arange(half - 2) < counts[:, None]
    x = grid.wavenumbers[2:half] ** (1.0 / sigma)
    with np.errstate(divide="ignore", invalid="ignore"):  # unfitted rows: NaN below
        y = np.where(used, np.log(mags[:, 2:half]), 0.0)
        x_bar = np.where(used, x, 0.0).sum(axis=-1) / counts
        y_bar = y.sum(axis=-1) / counts
        dx = np.where(used, x - x_bar[:, None], 0.0)
        dy = np.where(used, y - y_bar[:, None], 0.0)
        slope = (dx * dy).sum(axis=-1) / (dx * dx).sum(axis=-1)
        residual = np.sqrt(np.square(slope[:, None] * dx - dy).sum(axis=-1) / counts)
        line = [-slope, y_bar - slope * x_bar, residual, np.full_like(slope, 2.0), counts + 1.0]
        fit = np.where(fitted, line, math.nan)
    rows = fit if field.coeffs.ndim == 2 else fit[:, 0].tolist()
    return RadiusEstimate(*rows[:3], tuple(rows[3:]))


# --- existence window ---------------------------------------------------------


@dataclass(frozen=True)
class LifespanBounds:
    """Constants of the fixed-point existence argument for one datum; a
    constant past the float range reads inf."""

    L: float
    M: float
    R: float
    D_sigma: float
    T0_closed_form: float


def lifespan_bounds(u0_norm: float, sigma: float, c_prime: float = 1.0) -> LifespanBounds:
    """Existence-window constants from the datum's ``window_norm``.

    R = 1 + ||u0||;  base = C'(e^-sigma sigma^sigma + 2);
    L = 2^4 base R^4;  M = (base/2)||u0|| R^4;
    D_sigma = 1/(2^sigma - 2 + 2^-(sigma+1));
    T0 = 1/(2^(2sigma+8) base R^4).

    The paper's window is min(1/(2^(2sigma+4) L), (2^sigma-1)R /
    ((2^sigma-1) 2^(2sigma+3) L R + M D_sigma)).  Its first branch is T0 with
    only powers of 2 moved, and the second is never smaller: that needs
    (2^sigma-1) 2^(2sigma+8) R >= ||u0|| D_sigma, where R > ||u0||, D_sigma <= 4
    and the left factor is at least 1024.  So T0 is the min, without forming
    L*R, which overflows first.  A negative norm raises ValueError here; the
    window's own checks are ``_closed_window``'s.
    """
    if not (u0_norm >= 0.0):
        raise ValueError(f"norm must be nonnegative, got {u0_norm}")
    R = 1.0 + u0_norm
    base, r4, t0 = _closed_window(R, sigma, c_prime)
    return LifespanBounds(
        L=2.0**4 * base * r4,
        M=0.5 * base * u0_norm * r4,
        R=R,
        D_sigma=1.0 / (2.0**sigma - 2.0 + 2.0 ** -(sigma + 1.0)),
        T0_closed_form=t0,
    )


def _closed_window(R: float, sigma: float, c_prime: float) -> tuple:
    """(base, R^4, T0) of the closed-form window T0 = 1/(2^(2sigma+8) base R^4),
    base = C'(e^-sigma sigma^sigma + 2); the one check of the window's inputs.
    In order: an infinite R raises NormOverflowError, sigma < 1 or c_prime not
    > 0 ValueError, and a window that underflows to zero NormOverflowError
    naming the window norm R - 1."""
    if R == math.inf:
        raise NormOverflowError("existence window: the datum's window norm overflowed")
    if not (sigma >= 1.0):
        raise ValueError(f"sigma must be >= 1, got {sigma}")
    if not (c_prime > 0.0):
        raise ValueError(f"c_prime must be positive, got {c_prime}")
    try:
        base = c_prime * (math.exp(-sigma) * sigma**sigma + 2.0)
        r4 = R**4
        t0 = 1.0 / (2.0 ** (2 * sigma + 8) * base * r4)
    except OverflowError:  # a float power raises where its inputs were finite
        t0 = 0.0
    if not t0 > 0.0:
        raise NormOverflowError(f"existence window at window norm {R - 1.0:.3g} underflows to 0")
    return base, r4, t0


def _log10_window(u0_norm: float, sigma: float, c_prime: float) -> float:
    """log10 of the closed-form window T0 of ``lifespan_bounds``, formed in log
    space, so it stays finite for a finite norm where T0 underflows."""
    log_base = math.log(c_prime) + np.logaddexp(sigma * math.log(sigma) - sigma, math.log(2.0))
    log_t0 = -((2.0 * sigma + 8.0) * math.log(2.0) + log_base + 4.0 * math.log1p(u0_norm))
    return float(log_t0 / math.log(10.0))


def window_norm(u: SpectralField, sigma: float, s: float) -> float | np.ndarray:
    """Gevrey norm at width 1, the norm the existence window is stated in;
    one value per row of a batch."""
    return gevrey_norm(u, GevreyIndex(sigma, 1.0, s))


def existence_window(u0: SpectralField, sigma: float, s: float, c_prime: float = 1.0) -> float:
    """Fixed-point existence window of the datum, which a Picard horizon must
    not exceed: the closed-form lifespan bound (``_closed_window``) of its
    ``window_norm`` over 2^sigma - 1, finite wherever that closed form is."""
    return _closed_window(1.0 + window_norm(u0, sigma, s), sigma, c_prime)[2] / (2.0**sigma - 1.0)


# --- shrinking-width schedule -------------------------------------------------


def delta_of_tau(tau: float, delta: float, sigma: float, a: float) -> float:
    """Width schedule delta(tau) interpolating from (1+delta)/2 down to delta.

    delta(tau) = (1+delta)/2 + (1/2)^(2+1/sigma) *
                 ( [(1-delta)^sigma - tau/a]^(1/sigma)
                   - [(1-delta)^sigma + (2^(sigma+1)-1) tau/a]^(1/sigma) ).

    For sigma = 1 this is (1+delta)/2 - tau/(2a).  Raises WindowError outside
    the real-root window tau in [0, a(1-delta)^sigma].
    """
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if not (sigma >= 1.0):
        raise ValueError(f"sigma must be >= 1, got {sigma}")
    if not (a > 0.0):
        raise ValueError(f"a must be positive, got {a}")
    if tau < 0.0:
        raise WindowError(f"tau must be nonnegative, got {tau}")
    pow_gap = (1.0 - delta) ** sigma
    root_arg = pow_gap - tau / a
    if root_arg < -1e-12 * pow_gap:
        raise WindowError(
            f"tau = {tau:.6g} beyond the real-root window {a * pow_gap:.6g}"
        )
    root_arg = max(root_arg, 0.0)  # absorb one-ulp overshoot at the endpoint
    inv_sigma = 1.0 / sigma
    bracket = root_arg**inv_sigma - (pow_gap + (2.0 ** (sigma + 1.0) - 1.0) * tau / a) ** inv_sigma
    return 0.5 * (1.0 + delta) + 0.5 ** (2.0 + inv_sigma) * bracket


# --- weighted sup norm over (time, width) -------------------------------------


def ea_norm(
    times,
    fields: SpectralField,
    a: float,
    sigma: float,
    s: float,
) -> float:
    """sup over the width grid and admissible times of
    ||u(t)||_{G^delta} (1-delta)^sigma sqrt(1 - |t|/(a(1-delta)^sigma)),
    with times admissible when |t| < a(1-delta)^sigma/(2^sigma - 1).
    ``fields`` is a (T, n/2 + 1) batch, one row per time.

    Evaluated in log space so heavy Gevrey weights cannot overflow.  An
    all-zero row counts towards admissibility but is never scored (its
    score is -inf), so a batch whose admissible rows are all zero reads 0.0.
    Reads NaN when an admissible row scores NaN.  Raises WindowError when no
    (time, width) pair is admissible.  The window shrinks as the width
    grows, so the first width decides admissibility.

    The admissible (width, live row) pairs come from one comparison, and
    ``_lse_upper`` bounds every pair's log-sum-exp from above in one matrix
    product.  The pair with the largest bound is scored first (a NaN bound,
    whose pair scores NaN, is the largest), and its score starts the best.
    Then the log-sum-exp is computed, in blocks of at most
    max(live rows, 1024) pairs, only for the pairs whose bound is not below
    the best score so far.  Rounded addition is monotone, so a skipped pair
    scores strictly below the sup; once the best is NaN nothing else is
    scored, as the value is NaN whatever follows.  A row's log-sum-exp does
    not depend on the rows scored with it, so the result is the full scan's
    bit for bit.
    """
    if not (a > 0.0):
        raise ValueError(f"a must be positive, got {a}")
    if not (sigma >= 1.0):
        raise ValueError(f"sigma must be >= 1, got {sigma}")
    t_arr = np.abs(np.asarray(times, dtype=float))
    if t_arr.ndim != 1 or fields.coeffs.shape[:-1] != t_arr.shape:
        raise ValueError("times and the rows of fields must be parallel")
    # float_power is libm's pow, as Python's float ** is (np.power and ** on an
    # array are not); np.log rounds unlike math.log, so width_c stays per width
    shrink = a * np.float_power(1.0 - EA_DELTA_GRID, sigma)
    width_c = np.array([sigma * math.log(1.0 - delta) for delta in EA_DELTA_GRID])
    window = shrink / (2.0**sigma - 1.0)
    if not np.any(t_arr < window[0]):
        raise WindowError("no admissible (time, width) pair on the grid")
    live = np.any(fields.coeffs != 0.0, axis=-1)
    widths, rows = np.nonzero((t_arr < window[:, None]) & live)
    if rows.size == 0:
        return 0.0
    k2 = fields.grid.wavenumbers**2
    log_w = s * np.log1p(k2) + _log_weight2(k2, sigma, EA_DELTA_GRID[:, None])
    log_mag2 = np.abs(fields.coeffs)  # -inf on the rows left out, which no pair reads
    with np.errstate(divide="ignore"):
        np.log(log_mag2, out=log_mag2)
    log_mag2 *= 2.0
    pair_c = width_c[widths]
    time_c = 0.5 * np.log1p(-t_arr[rows] / shrink[widths])
    block = max(np.count_nonzero(live), 1024)
    upper = 0.5 * _lse_upper(log_mag2, log_w, rows, widths, fields.grid) + pair_c + time_c

    def score(pairs):
        lse = logsumexp_modes(log_mag2[rows[pairs]] + log_w[widths[pairs]])
        return np.max(0.5 * lse + pair_c[pairs] + time_c[pairs])  # a NaN score stays NaN

    first = np.argmax(upper)  # the first NaN bound, if there is one
    best = score([first])
    upper[first] = -np.inf
    kept = np.flatnonzero(upper >= best)  # nothing once best is NaN
    for i in range(0, kept.size, block):
        pairs = kept[i : i + block]
        pairs = pairs[upper[pairs] >= best]  # best has risen with the blocks before
        if pairs.size:
            best = np.maximum(best, score(pairs))
    try:
        value = math.exp(best)
    except OverflowError:
        value = math.inf
    if math.isinf(value):
        raise NormOverflowError("weighted sup norm overflowed")
    return value


def _lse_upper(log_mag2, log_w, rows, widths, grid) -> np.ndarray:
    """Upper bounds on logsumexp_modes(log_mag2[r] + log_w[w]), one per pair
    (r, w) of ``rows`` and ``widths``: the computed value never exceeds them.

    With rho the row maxima of log_mag2 and omega the width maxima of log_w,
    one product P = (exp(log_mag2 - rho) * multiplicity) @ exp(log_w - omega).T
    holds each pair's sum of exp(term - rho - omega) over the n unfolded modes.
    The bound is log P + rho + omega plus the margin
    1e-9 + 2^-48 (|rho| + |omega| + n), which covers, with u = 2^-53:

    * the product's shifts and exps: a product term of at least 2^-1020 has
      two normal factors, each shift off by at most 709u and each exp by a
      few ulps; the smaller terms together lose under n 2^-1020, which is
      below n 2^-120 of a sum of at least 2^-900;
    * the product's sum of nonnegative terms: n u relative, in any order;
    * the log and the add-back of rho + omega: u (|log P| + |rho| + |omega|)
      a rounding, with |log P| <= 624;
    * the scorer's own rounding: its terms fl(lm2 + lw) are off by u |term|,
      at most u (|rho| + |omega| + 3000) for each term within e^-3000 of
      rho + omega (the rest are negligible against 2^-900), and its shifts,
      exps, sum and final log1p(s/m) + log m + max add at most
      (750 + n) u + u (|rho| + |omega| + log n).

    In all under 5u (|rho| + |omega|) + (6500 + 2n) u: 2^-48 is 32u, and 1e-9
    is over 1000 times 6500u.  A pair whose P is below 2^-900 (its terms may
    have underflowed) gets the bound +inf instead, so ``ea_norm`` scores it
    exactly.  A NaN P comes from a NaN or an inf in its row, and takes the
    row maximum rho, NaN or inf, which is then the computed value.
    """
    n = grid.n_points
    rho = np.max(log_mag2, axis=-1)
    omega = np.max(log_w, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.subtract(log_mag2, rho[:, None])
        np.exp(scaled, out=scaled)
        scaled *= grid.multiplicity
        sums = (scaled @ np.exp(log_w - omega[:, None]).T)[rows, widths]
        rho += 1e-9 + 2.0**-48 * (np.abs(rho) + n)
        omega += 2.0**-48 * np.abs(omega)
        bound = np.log(sums)
        bound += rho[rows]
        bound += omega[widths]
    bound[sums < 2.0**-900] = np.inf  # terms may have underflowed: score these exactly
    return np.where(np.isnan(sums), rho[rows], bound)  # a NaN or inf row: rho is its value


# --- width lower-bound ODE ----------------------------------------------------


def width_bound(times, b, norm0: float, c_cal: float, delta0: float) -> tuple:
    """(delta_theory, f): the width lower bound marched over a column of
    recorded times and the b = 1 + ||u||_{H^s} samples taken there.

    f^2 starts at 2(1 + norm0)^2, norm0 = ||u0||_{G^{delta0}}, and integrates
    2*C*b^5; delta_theory starts at delta0 and decays by exp(-8*C*f^3 dt).
    Both updates are trapezoidal in consecutive samples, and the width is
    held at 1e-300 once it underflows.  Returns two lists, one entry per time.
    """
    if not (0.0 < delta0 < 1.0):
        raise ValueError(f"delta0 must lie in (0,1), got {delta0}")
    if not (c_cal > 0.0):
        raise ValueError(f"c_cal must be positive, got {c_cal}")
    if not (norm0 >= 0.0):
        raise ValueError(f"norm must be nonnegative, got {norm0}")
    t_col, b_col = np.asarray(times, dtype=float), np.asarray(b, dtype=float)
    if t_col.ndim != 1 or t_col.shape != b_col.shape or t_col.size == 0:
        raise ValueError("times and b must be parallel non-empty columns")
    if not np.all(b_col >= 1.0 - 1e-12):
        raise ValueError(f"b = 1 + Sobolev norm must be >= 1, got {b_col.min()}")
    dts = np.diff(t_col)
    if not np.all(dts >= 0.0):
        raise ValueError("times must be non-decreasing")
    bs = b_col.tolist()
    try:
        f_sq, thetas = [2.0 * (1.0 + norm0) ** 2], [delta0]
        for dt, b_old, b_now in zip(dts.tolist(), bs, bs[1:]):
            f_sq.append(f_sq[-1] + c_cal * dt * (b_old**5 + b_now**5))
            decay = math.exp(-4.0 * c_cal * dt * (f_sq[-2] ** 1.5 + f_sq[-1] ** 1.5))
            thetas.append(max(thetas[-1] * decay, DELTA_CLAMP))
    except OverflowError:  # a float power raises where its inputs were finite
        raise NormOverflowError(f"width bound from norm {norm0:.3g} overflowed") from None
    return thetas, [math.sqrt(x) for x in f_sq]


# --- trajectory diagnostics ---------------------------------------------------


@dataclass(frozen=True)
class RadiusRecord:
    """Per-time diagnostics row; delta_fit is NaN when the decay fit has too
    few usable modes at that time."""

    t: float
    sobolev_s: float
    gevrey_at_delta_theory: float
    delta_fit: float
    delta_theory: float
    f_val: float
    b_val: float
    H_val: float


def track_radius(
    traj: Trajectory, p: ModelParams, sigma: float, s: float, delta0: float, c_cal: float
) -> list:
    """Diagnostics of a recorded trajectory: the width bound marched on the
    recorded b samples, set against the measured decay rate at each time."""
    norm0, b_col, h_col, fits = _radius_columns(traj, p, sigma, s, delta0)
    thetas, f_vals = width_bound(traj.times, b_col, norm0, c_cal, delta0)
    return _radius_records(traj, sigma, s, thetas, f_vals, b_col, h_col, fits)


def _radius_columns(traj, p, sigma, s, delta0) -> tuple:
    """What track_radius needs besides the multiplier's own width bound: the
    datum's Gevrey norm at delta0 and the b, H and decay-fit columns, one
    entry per time."""
    states = traj.states
    if states.coeffs.shape[0] != len(traj.times):
        raise ValueError("trajectory times/states out of step")
    norm0 = gevrey_norm(states[0], GevreyIndex(sigma, delta0, s))
    if not (s > 1.5):
        raise ValueError(f"the smallness functional needs s > 3/2, got {s}")
    norms = sobolev_norm(states, s)
    b_col, h_col = 1.0 + norms, _functional_H(norms, p)  # h finite only where b is
    if not (math.isfinite(norm0) and np.all(np.isfinite(h_col))):
        raise NormOverflowError(f"the datum's Gevrey norm or the H^{s} functional overflowed")
    fits = estimate_radius(states, sigma).delta_fit.tolist()
    return norm0, b_col, h_col, fits


def _radius_records(traj, sigma, s, thetas, f_vals, b_col, h_col, fits) -> list:
    """Every state's Gevrey norm at its theory width, in one call with one
    width per row, and the records of all columns."""
    times = [float(t) for t in traj.times]
    (gevrey,) = _gevrey_norm(traj.states, sigma, [np.array(thetas)[:, None]], s)
    if not np.all(np.isfinite(gevrey)):
        raise NormOverflowError("Gevrey norm at delta_theory overflowed")
    return [
        RadiusRecord(t, b - 1.0, g, fit, theta, f, b, h)
        for t, b, g, fit, theta, f, h in zip(
            times, b_col.tolist(), gevrey.tolist(), fits, thetas, f_vals, h_col.tolist()
        )
    ]


def calibrate_radius_constant(
    traj: Trajectory,
    p: ModelParams,
    sigma: float,
    s: float,
    delta0: float,
    c_algebra: float,
    t_max: float = 1.0,
) -> tuple:
    """(c_cal, records): the smallest power-of-two multiple of the pinned
    algebra constant whose width bound stays below the measured decay rate up
    to t_max, and the track_radius records it gives.

    Larger multipliers only lower the theory curve, so the doubling search is
    monotone.  The t=0 comparison is multiplier-independent (theory starts at
    delta0); if it already fails, no multiplier can help.  Records whose fit
    is NaN are skipped; when no record up to t_max has a finite fit there is
    nothing to calibrate against, and CalibrationError is raised.  The fits,
    b and H are computed once; each doubling re-marches only the width bound,
    and the Gevrey norms are taken for the accepted multiplier alone.
    """
    norm0, b_col, h_col, fits = _radius_columns(traj, p, sigma, s, delta0)
    compared = [j for j, t in enumerate(traj.times) if t <= t_max and not math.isnan(fits[j])]
    if not compared:
        raise CalibrationError(
            f"no record up to t = {t_max:g} has a finite decay fit; nothing to calibrate against"
        )
    for j in range(MAX_DOUBLINGS + 1):
        c_cal = c_algebra * 2.0**j
        thetas, f_vals = width_bound(traj.times, b_col, norm0, c_cal, delta0)
        if all(thetas[i] <= fits[i] * (1.0 + 1e-12) for i in compared):
            return c_cal, _radius_records(traj, sigma, s, thetas, f_vals, b_col, h_col, fits)
        if fits[0] < delta0:  # False for a NaN fit
            raise CalibrationError(
                f"measured rate {fits[0]:.4g} at t=0 is below "
                f"delta0 = {delta0}; no multiplier can fix the start"
            )
    raise CalibrationError(f"no multiplier up to 2^{MAX_DOUBLINGS} works")
