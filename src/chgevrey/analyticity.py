r"""Radius-of-analyticity measurement and the quantitative existence bounds.

Three ingredients live here:

* ``estimate_radius`` reads the exponential decay rate of Fourier
  coefficients off a least-squares fit of log|c_m| against |k_m|^(1/sigma),
  for a field or each row of a (T, n/2 + 1) batch: one masked closed-form line
  per row, computed on the whole batch at once, so a batched row equals the
  single-field call bit for bit.
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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._numerics import logsumexp_modes
from .integrate import BlowUpError, SolverConfig, Trajectory, integrate
from .model import ModelParams, functional_H
from .spectral import (
    GevreyIndex,
    GridMismatchError,
    NormOverflowError,
    SpectralField,
    _gevrey_norm,
    gevrey_norm,
    sobolev_norm,
)

__all__ = [
    "RadiusEstimate",
    "LifespanBounds",
    "RadiusRecord",
    "ContinuityReport",
    "InsufficientDecayError",
    "WindowError",
    "CalibrationError",
    "ExperimentError",
    "estimate_radius",
    "lifespan_bounds",
    "existence_window",
    "window_norm",
    "delta_of_tau",
    "ea_norm",
    "width_bound",
    "track_radius",
    "calibrate_radius_constant",
    "continuity_experiment",
]

EA_DELTA_GRID = np.linspace(0.05, 0.95, 19)
DELTA_CLAMP = 1e-300
MAX_DOUBLINGS = 60  # calibrate_radius_constant tries c_algebra * 2^0 .. 2^60
NOISE_FLOOR = 1e-14  # estimate_radius fits coefficients above this share of the largest
MIN_MODES = 8  # and needs at least this many of them


class InsufficientDecayError(ValueError):
    """Too few coefficients above the noise floor to fit a decay rate."""


class WindowError(ValueError):
    """A time/width argument fell outside its admissible window."""


class CalibrationError(RuntimeError):
    """No tested multiplier makes the measured-vs-theory invariant hold."""


class ExperimentError(RuntimeError):
    """A sub-run of a multi-trajectory experiment failed."""


# --- measured radius ----------------------------------------------------------


@dataclass(frozen=True)
class RadiusEstimate:
    """Fitted decay rate: log|c_m| ~ intercept - delta_fit * |k_m|^(1/sigma);
    arrays with one entry per row for a batch."""

    delta_fit: float
    intercept: float
    residual: float
    modes_used: tuple


def estimate_radius(field: SpectralField, sigma: float = 1.0) -> RadiusEstimate:
    """Least-squares decay fit over positive modes m >= 2, one per row of a batch.

    Modes 0 and 1 are excluded (they pollute the intercept); the scan walks
    upward and stops at the first coefficient below ``NOISE_FLOOR`` relative
    to the largest one, at slot n/2 (which holds zero) at the latest.  Fewer
    than ``MIN_MODES`` usable modes, or a zero field, raises
    InsufficientDecayError.  On a (T, n/2 + 1) batch every field of the
    estimate is an array with one entry per row (``modes_used`` a pair of
    float arrays), and a row that would raise is NaN throughout.

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
        fit = np.where(fitted, [-slope, y_bar - slope * x_bar, residual], math.nan)
    if field.coeffs.ndim == 2:
        modes_used = (np.where(fitted, 2.0, math.nan), np.where(fitted, counts + 1.0, math.nan))
        return RadiusEstimate(*fit, modes_used)
    if floor[0] == 0.0:
        raise InsufficientDecayError("field is identically zero")
    if counts[0] < MIN_MODES:
        raise InsufficientDecayError(
            f"only {counts[0]} modes above the noise floor; need {MIN_MODES}"
        )
    return RadiusEstimate(*fit[:, 0].tolist(), (2, int(counts[0]) + 1))


# --- existence window ---------------------------------------------------------


@dataclass(frozen=True)
class LifespanBounds:
    """Constants of the fixed-point existence argument for one datum."""

    L: float
    M: float
    R: float
    D_sigma: float
    T0_min_formula: float
    T0_closed_form: float


def lifespan_bounds(u0_norm: float, sigma: float, c_prime: float = 1.0) -> LifespanBounds:
    """Existence-window constants from the datum's ``window_norm``.

    R = 1 + ||u0||;  base = C'(e^-sigma sigma^sigma + 2);
    L = 2^4 base R^4;  M = (base/2)||u0|| R^4;
    D_sigma = 1/(2^sigma - 2 + 2^-(sigma+1));
    T0 = min(1/(2^(2sigma+4) L), (2^sigma-1)R / ((2^sigma-1) 2^(2sigma+3) L R + M D_sigma))
    and the closed form 1/(2^(2sigma+8) base R^4), which the min never beats.
    An infinite norm, or a constant past the float range, raises NormOverflowError.
    """
    if not (u0_norm >= 0.0):
        raise ValueError(f"norm must be nonnegative, got {u0_norm}")
    if u0_norm == math.inf:
        raise NormOverflowError("existence window: the datum's window norm overflowed")
    if not (sigma >= 1.0):
        raise ValueError(f"sigma must be >= 1, got {sigma}")
    if not (c_prime > 0.0):
        raise ValueError(f"c_prime must be positive, got {c_prime}")
    R = 1.0 + u0_norm
    base, r4, t0_closed = _closed_window(R, sigma, c_prime)
    L = 2.0**4 * base * r4
    M = 0.5 * base * u0_norm * r4
    D_sigma = 1.0 / (2.0**sigma - 2.0 + 2.0 ** -(sigma + 1.0))
    two_sig = 2.0**sigma - 1.0
    t0_min = min(
        1.0 / (2.0 ** (2 * sigma + 4) * L),
        two_sig * R / (two_sig * 2.0 ** (2 * sigma + 3) * L * R + M * D_sigma),
    )
    if not t0_min > 0.0:  # L*R or M overflowed where the closed form did not
        raise NormOverflowError(f"existence-window constants at norm {u0_norm:.3g} overflowed")
    assert t0_closed <= t0_min * (1.0 + 1e-9), "closed form must not beat the min"
    return LifespanBounds(
        L=L,
        M=M,
        R=R,
        D_sigma=D_sigma,
        T0_min_formula=t0_min,
        T0_closed_form=t0_closed,
    )


def _closed_window(R: float, sigma: float, c_prime: float) -> tuple:
    """(base, R^4, T0) of the closed-form window T0 = 1/(2^(2sigma+8) base R^4),
    base = C'(e^-sigma sigma^sigma + 2); NormOverflowError where a power
    leaves the float range or the window underflows to zero."""
    try:
        base = c_prime * (math.exp(-sigma) * sigma**sigma + 2.0)
        r4 = R**4
        t0 = 1.0 / (2.0 ** (2 * sigma + 8) * base * r4)
    except OverflowError:  # a float power raises where its inputs were finite
        t0 = 0.0
    if not t0 > 0.0:
        raise NormOverflowError(f"existence window at R = {R:.3g} overflowed")
    return base, r4, t0


def window_norm(u: SpectralField, sigma: float, s: float) -> float | np.ndarray:
    """Gevrey norm at width 1, the norm the existence window is stated in;
    one value per row of a batch."""
    return gevrey_norm(u, GevreyIndex(sigma, 1.0, s))


def existence_window(u0: SpectralField, sigma: float, s: float, c_prime: float = 1.0) -> float:
    """Fixed-point existence window of the datum, which a Picard horizon must
    not exceed: the closed-form lifespan bound of its ``window_norm`` over
    2^sigma - 1."""
    norm0 = window_norm(u0, sigma, s)
    return lifespan_bounds(norm0, sigma, c_prime).T0_closed_form / (2.0**sigma - 1.0)


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

    Evaluated in log space so heavy Gevrey weights cannot overflow.
    Raises WindowError when no (time, width) pair is admissible.
    """
    if not (a > 0.0):
        raise ValueError(f"a must be positive, got {a}")
    if not (sigma >= 1.0):
        raise ValueError(f"sigma must be >= 1, got {sigma}")
    t_arr = np.abs(np.asarray(times, dtype=float))
    if t_arr.ndim != 1 or fields.coeffs.shape[:-1] != t_arr.shape:
        raise ValueError("times and the rows of fields must be parallel")
    if t_arr.shape[0] == 0:
        raise WindowError("empty trajectory")
    k2 = fields.grid.wavenumbers**2
    with np.errstate(divide="ignore"):
        log_mag2 = 2.0 * np.log(np.abs(fields.coeffs))
    best = -np.inf
    admissible = False
    for delta in EA_DELTA_GRID:
        shrink = a * (1.0 - delta) ** sigma
        window = shrink / (2.0**sigma - 1.0)
        mask = t_arr < window
        if not np.any(mask):
            continue
        admissible = True
        log_w = s * np.log1p(k2) + 2.0 * delta * (1.0 + k2) ** (1.0 / (2.0 * sigma))
        terms = log_mag2[mask]  # a copy
        terms += log_w
        score = (
            0.5 * logsumexp_modes(terms)
            + sigma * math.log(1.0 - delta)
            + 0.5 * np.log1p(-t_arr[mask] / shrink)
        )
        best = max(best, float(np.max(score)))
    if not admissible:
        raise WindowError("no admissible (time, width) pair on the grid")
    if best == -np.inf:
        return 0.0
    try:
        value = math.exp(best)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise NormOverflowError("weighted sup norm overflowed")
    return value


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
    b_col = 1.0 + sobolev_norm(states, s)
    h_col = functional_H(states, p, s)  # finite only where b is
    if not (math.isfinite(norm0) and np.all(np.isfinite(h_col))):
        raise NormOverflowError(f"the datum's Gevrey norm or the H^{s} functional overflowed")
    fits = estimate_radius(states, sigma).delta_fit.tolist()
    return norm0, b_col, h_col, fits


def _radius_records(traj, sigma, s, thetas, f_vals, b_col, h_col, fits) -> list:
    """Every state's Gevrey norm at its theory width, in one call with one
    width per row, and the records of all columns."""
    times = [float(t) for t in traj.times]
    gevrey = _gevrey_norm(traj.states, sigma, np.array(thetas)[:, None], s)
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


# --- continuity in the initial data -------------------------------------------


@dataclass(frozen=True)
class ContinuityReport:
    """Distances between perturbed and limit runs over a common horizon."""

    T: float
    distances: tuple
    bounds: tuple
    budget: float

    @property
    def within_bounds(self) -> tuple:
        return tuple(d <= b for d, b in zip(self.distances, self.bounds))


def continuity_experiment(
    u0_sequence,
    u0_limit: SpectralField,
    p: ModelParams,
    sigma: float,
    s: float,
    cfg: SolverConfig,
    c_prime: float = 1.0,
    budget: float = 1e-6,
) -> ContinuityReport:
    """Integrate the perturbed data and the limit datum to the common
    existence horizon and compare weighted-norm distances against twice the
    initial-datum distance plus a solver budget.

    ``u0_sequence`` holds the K perturbed data, as a (K, n/2 + 1) batch or a
    sequence of fields.  The limit and the perturbed data march as one
    (K+1, n/2 + 1) batch; the horizon uses the largest datum norm so one window
    serves all runs.  A blow-up raises ExperimentError naming the runs that
    crossed the limit at the earliest failing step.
    """
    grid = u0_limit.grid
    if any(u.grid != grid for u in u0_sequence):
        raise GridMismatchError("perturbed data and the limit datum need one grid")
    # row 0 is the limit, row i + 1 the perturbed datum #i
    data = SpectralField(grid, np.vstack([u0_limit.coeffs, *(u.coeffs for u in u0_sequence)]))
    worst = float(np.max(window_norm(data, sigma, s)))
    if not math.isfinite(worst):
        raise NormOverflowError(f"window norm of a datum overflowed (sigma={sigma}, s={s})")
    T = _closed_window(2.0 + worst, sigma, c_prime)[2]
    dt = min(cfg.dt, T / 64.0)
    try:
        traj = integrate(data, p, replace(cfg, dt=dt, t_end=T, record_every=1))
    except BlowUpError as err:
        names = ", ".join("limit" if r == 0 else f"#{r - 1}" for r in err.rows)
        raise ExperimentError(f"run {names} blew up at t = {err.time:.4g}") from err
    runs = traj.states.coeffs  # (T, K+1, n/2 + 1)
    diff = data.with_coeffs(runs[:, 1:] - runs[:, :1])
    k = runs.shape[1] - 1
    distances = tuple(ea_norm(traj.times, diff[:, i], T, sigma, s) for i in range(k))
    bounds = 2.0 * window_norm(data[1:] - data[0], sigma, s) + budget
    return ContinuityReport(T=T, distances=distances, bounds=tuple(bounds.tolist()), budget=budget)
