r"""Time stepping for the dissipative flow, and the two experiments that march
data and score it in the weighted sup norm ``ea_norm``: the integral-equation
(Picard) iteration behind the contraction of the existence proof, and the
continuity of the data-to-solution map.  ``integrate`` marches with classical RK4.

Every path is deterministic: identical inputs produce bit-identical states.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .analyticity import WindowError, _closed_window, ea_norm, existence_window, window_norm
from .model import ModelParams, RhsWork, rhs
from .spectral import NormOverflowError, SpectralField, TorusGrid, field_from_modes, to_physical

__all__ = [
    "SolverConfig",
    "PicardSpec",
    "ContinuitySpec",
    "Trajectory",
    "BlowUpError",
    "step_rk4",
    "integrate",
    "picard_iterate",
    "PicardResult",
    "continuity_experiment",
    "ContinuityReport",
    "ExperimentError",
]

BLOWUP_NORM = 1e6


class BlowUpError(RuntimeError):
    """The march's monitored norm crossed BLOWUP_NORM or went non-finite;
    carries the time of the failing step, the trajectory recorded before it
    and, for a batch, every row that crossed at that step (() for one field)."""

    def __init__(self, time: float, trajectory: "Trajectory", rows: tuple):
        self.time, self.trajectory, self.rows = time, trajectory, rows
        where = f" in batch rows {', '.join(map(str, rows))}" if rows else ""
        super().__init__(f"solution blew up at t = {time:.6g}{where}")


class ExperimentError(RuntimeError):
    """A sub-run of a multi-trajectory experiment failed."""


@dataclass(frozen=True)
class SolverConfig:
    """March parameters; s_monitor is the Sobolev order watched for blow-up."""

    dt: float
    t_end: float
    record_every: int = 1
    s_monitor: float = 2.0

    def __post_init__(self):
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not (self.t_end >= 0.0 and math.isfinite(self.t_end)):
            raise ValueError(f"t_end must be nonnegative, got {self.t_end}")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if not (self.s_monitor is None or math.isfinite(self.s_monitor)):  # None: gevrey.s
            raise ValueError(f"s_monitor must be finite, got {self.s_monitor}")


@dataclass(frozen=True)
class PicardSpec:
    """Picard iterates, quadrature nodes and horizon (None: half the existence window)."""

    n_iters: int = 8
    n_nodes: int = 129
    horizon: float | None = None

    def __post_init__(self):
        if not self.n_iters >= 1:
            raise ValueError(f"n_iters must be at least 1, got {self.n_iters!r}")
        if not self.n_nodes >= 2:
            raise ValueError(f"n_nodes must be at least 2, got {self.n_nodes!r}")
        if not (self.horizon is None or 0.0 < self.horizon < math.inf):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon!r}")


@dataclass(frozen=True)
class ContinuitySpec:
    """Cosine perturbations at ``mode``, one per amplitude, and the distance budget."""

    mode: int = 2
    amplitudes: tuple[float, ...] = (0.1, 0.01, 0.001, 0.0001)
    budget: float = 1e-6

    def __post_init__(self):
        if not (self.amplitudes and all(map(math.isfinite, self.amplitudes))):
            raise ValueError(f"amplitudes must be non-empty and finite, got {self.amplitudes!r}")
        if not 0.0 <= self.budget < math.inf:
            raise ValueError(f"budget must be non-negative and finite, got {self.budget!r}")


@dataclass
class Trajectory:
    """Recorded times and states.  ``states`` stacks the recorded states as
    one field of shape (T, n/2 + 1), or (T, K, n/2 + 1) for a batch."""

    times: np.ndarray
    states: SpectralField


def step_rk4(
    u: SpectralField, p: ModelParams, dt: float, *, work: RhsWork | None = None
) -> SpectralField:
    """One classical Runge-Kutta step of u_t = F(u), after which the mean
    coefficient is made real; slot n/2 stays zero, as rhs writes it.  A batch
    steps row by row.  ``work``, the run's RhsWork plan, is handed to every
    ``rhs`` call of the step; without it the step builds one.  Stages 2-4 are
    written into the plan's ``stage`` buffer as h k + c and passed as the
    plan's ``staged`` field over it; both are made, of u's shape and dtype, on
    the plan's first step and reused by every later one.  The four results of
    ``rhs`` are fresh, so the step's result is a fresh C-contiguous array
    that shares no memory with the plan; ``integrate``'s monitor reads it
    through a real view, which needs that contiguity.

    Nothing is checked here: a non-finite stage propagates into the returned
    state, and the caller's monitor is the one check of the step.
    """
    c = u.coeffs
    work = RhsWork(u, p) if work is None else work
    ks = [rhs(u, p, work=work).coeffs]  # checks the plan before its stage is made
    if work.stage is None:  # a plan that only evaluates rhs never holds one
        work.stage = np.empty(c.shape, dtype=c.dtype)
        work.staged = u.with_coeffs(work.stage)
    stage, staged = work.stage, work.staged  # stages 2-4, rewritten in place
    for h in (0.5 * dt, 0.5 * dt, dt):  # stage = c + h k, as h * k + c
        np.multiply(ks[-1], h, out=stage)
        stage += c
        ks.append(rhs(staged, p, work=work).coeffs)
    k1, k2, k3, k4 = ks
    # c + (dt/6) (k1 + 2 k2 + 2 k3 + k4), operation for operation, in place
    k2 *= 2.0
    k3 *= 2.0
    out = k1 + k2
    out += k3
    out += k4
    out *= dt / 6.0
    out += c
    out.imag[..., 0] = 0.0
    return u.with_coeffs(out)


def _advisory_dt_bound(u0: SpectralField, p: ModelParams) -> float:
    k_max = float(np.max(u0.grid.wavenumbers))
    u_max = float(np.max(np.abs(to_physical(u0))))
    return 1.0 / (k_max * (u_max + abs(p.Gamma_coef)) + p.lam)


def _step_count(t_end: float, dt: float) -> tuple:
    """(steps, shortened last step or None) that end the march at t_end.

    A horizon that is a whole number of steps up to rounding keeps that many
    full steps; otherwise the last step is shortened to land on t_end.
    """
    ratio = t_end / dt
    whole = round(ratio)
    if math.isclose(ratio, whole, rel_tol=1e-9):
        return whole, None
    n_steps = math.ceil(ratio)
    return n_steps, t_end - (n_steps - 1) * dt


def _monitor_weight(grid: TorusGrid, s: float) -> np.ndarray:
    """w_m = mult_m (1 + k_m^2)^s on slots 0 .. n/2, mult the grid's slot
    multiplicity: sqrt(|c|^2 @ w) is sobolev_norm up to rounding."""
    with np.errstate(over="ignore"):
        return grid.multiplicity * (1.0 + grid.wavenumbers**2) ** s


def _monitor_norm(c: np.ndarray, w2: np.ndarray) -> np.floating | np.ndarray:
    """The monitored H^s norm of the coefficients ``c`` (last axis contiguous),
    one per row of a batch: the real view of c, squared, against ``w2``, the
    monitor weight with each slot repeated for its real and imaginary part."""
    v = c.view(np.finfo(c.dtype).dtype)
    return np.sqrt((v * v) @ w2)


def integrate(u0: SpectralField, p: ModelParams, cfg: SolverConfig) -> Trajectory:
    """March u0 (a field or a batch) to cfg.t_end, recording every
    cfg.record_every steps (plus the initial and final states).  When t_end is
    not a whole number of steps the last step is shortened to end at t_end.

    After each step the monitored H^s norm (s = cfg.s_monitor) is the one
    check: BlowUpError -- with the partial trajectory and the crossing batch
    rows -- is raised when it exceeds 1e6 or is not finite.  The norm is one
    reduction of the squared real view of the step's result against the
    monitor weight, each slot repeated for its two parts, built once per run
    (``_monitor_norm``).  An s_monitor of None, RunConfig's placeholder for
    gevrey.s, raises ValueError.
    """
    if cfg.s_monitor is None:
        raise ValueError("s_monitor must be a number to march, got None")
    bound = _advisory_dt_bound(u0, p)
    if cfg.dt > bound:
        warnings.warn(
            f"dt = {cfg.dt:.3g} exceeds the advisory stability bound {bound:.3g} "
            "(k_max*(|u|+|Gamma|)+lambda)",
            stacklevel=2,
        )
    n_steps, last_dt = _step_count(cfg.t_end, cfg.dt)
    times = [0.0]
    states = [u0.coeffs]

    def recorded() -> Trajectory:
        return Trajectory(np.array(times), u0.with_coeffs(np.stack(states)))

    u, work, w2 = u0, RhsWork(u0, p), np.repeat(_monitor_weight(u0.grid, cfg.s_monitor), 2)
    for i in range(n_steps):
        dt = cfg.dt
        t_next = (i + 1) * dt
        if i + 1 == n_steps and last_dt is not None:
            dt, t_next = last_dt, cfg.t_end
        u = step_rk4(u, p, dt, work=work)
        with np.errstate(over="ignore", invalid="ignore"):  # past ~1e154 the norm reads inf
            below = _monitor_norm(u.coeffs, w2) <= BLOWUP_NORM  # NaN is not below
        if not (below.all() if below.ndim else below):  # a field's 0-d flag needs no reduction
            rows = tuple(np.flatnonzero(~below).tolist()) if below.ndim else ()  # the crossing rows
            raise BlowUpError(t_next, recorded(), rows)
        if (i + 1) % cfg.record_every == 0 or i + 1 == n_steps:
            times.append(t_next)
            states.append(u.coeffs)
    return recorded()


# --- integral-equation iteration ----------------------------------------------


def cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of the rows of the 2-D ``y`` over ``x``, from 0:
    SciPy 1.17's ``cumulative_trapezoid(y, x, axis=0, initial=0)`` bit for bit,
    SciPy's operations in SciPy's order, written into one fresh array."""
    out = np.empty(y.shape, np.result_type(y, x))
    out[0] = 0.0
    steps = np.add(y[1:], y[:-1], out=out[1:])
    steps *= np.diff(x)[:, None]
    steps /= 2.0
    np.cumsum(steps, axis=0, out=steps)
    return out


@dataclass
class PicardResult:
    """The last finite iterate as an (n_nodes, n/2 + 1) batch on [0, horizon],
    plus the contraction report.

    ``ratios[k]`` is d_{k+2}/d_{k+1} with d_j the weighted-norm distance
    between iterates j and j-1.  Ratios stop being reported once distances
    reach ``floor`` (rounding level); ``converged_at`` is the first such j.
    ``diverged_at`` is set instead of raising when an iterate overflows.
    """

    times: np.ndarray
    horizon: float
    final: SpectralField
    diffs: list
    ratios: list
    floor: float
    converged_at: int | None
    diverged_at: int | None


def picard_iterate(
    u0: SpectralField,
    p: ModelParams,
    sigma: float,
    s: float,
    spec: PicardSpec = PicardSpec(),
    c_prime: float = 1.0,
    enforce_window: bool = True,
) -> PicardResult:
    """Iterate u_{n+1}(t) = u0 + int_0^t F(u_n) dtau on [0, T], T the
    horizon of ``spec``, or half the fixed-point existence window of the datum
    when that is None; ``spec`` also sets the iterate and node counts.

    The zeroth iterate is the constant-in-time datum, so F of it is one
    ``rhs`` row broadcast over the nodes; later iterates evaluate F on all
    nodes as one batch (in row blocks, see RhsWork), whose rows are each the
    one-row call bit for bit.  Each iterate is written over its own trapezoid
    integral and its difference from the last one over F of the nodes, so an
    iterate holds at most three node arrays besides the plan.
    Integrals use composite trapezoid on uniform nodes.  T must sit inside
    the existence window, else WindowError is raised (disable with
    ``enforce_window=False`` to study divergence); the window is evaluated
    once, and not at all for an explicit horizon that is not enforced.  The
    convergence floor is 1e3 eps times the weighted sup norm of the zeroth
    iterate, taken on its t = 0 row, where that sup sits.
    """
    T = spec.horizon
    if T is None or enforce_window:
        window = existence_window(u0, sigma, s, c_prime)
        if T is None:
            T = window / 2.0
        elif T > window:
            raise WindowError(
                f"horizon {T:.3g} exceeds the existence window {window:.3g}; "
                "pass enforce_window=False to study divergence"
            )

    times = np.linspace(0.0, T, spec.n_nodes)
    final = u0.with_coeffs(np.broadcast_to(u0.coeffs, (spec.n_nodes,) + u0.coeffs.shape))
    scale = ea_norm(times[:1], u0.with_coeffs(u0.coeffs[None]), T, sigma, s)
    floor = 1e3 * np.finfo(float).eps * max(scale, 1e-300)

    work = RhsWork(final, p)
    diffs: list = []
    diverged_at = None
    for it in range(1, spec.n_iters + 1):
        # an overflowing node turns NaN downstream; diverged_at reports it
        with np.errstate(invalid="ignore"):
            if it == 1:
                f_nodes = np.broadcast_to(rhs(u0, p).coeffs, final.coeffs.shape)
            else:
                f_nodes = rhs(final, p, work=work).coeffs
            coeffs = cumulative_trapezoid(f_nodes, times)
        coeffs += u0.coeffs  # the iterate, written over its integral
        # one finite check per iterate stands for the check of each node's field
        if not np.all(np.isfinite(coeffs)):
            diverged_at = it
            break
        # F of the nodes is dead once integrated; the first iterate's is a broadcast
        diff = np.subtract(coeffs, final.coeffs, out=None if it == 1 else f_nodes)
        final = u0.with_coeffs(coeffs)
        diffs.append(ea_norm(times, u0.with_coeffs(diff), T, sigma, s))
        del f_nodes, diff  # freed before the next rhs output is made
    # the one rule: iterate j converged when d_j is the first distance at the floor
    above = next((k for k, d in enumerate(diffs) if d <= floor), len(diffs))
    return PicardResult(
        times=times,
        horizon=T,
        final=final,
        diffs=diffs,
        ratios=[b / a for a, b in zip(diffs[:above], diffs[1:])],
        floor=floor,
        converged_at=above + 1 if above < len(diffs) else None,
        diverged_at=diverged_at,
    )


# --- continuity in the initial data -------------------------------------------


@dataclass(frozen=True)
class ContinuityReport:
    """Distances between perturbed and limit runs over a common horizon."""

    T: float
    distances: tuple
    bounds: tuple

    @property
    def within_bounds(self) -> tuple:
        return tuple(d <= b for d, b in zip(self.distances, self.bounds))


def continuity_experiment(
    u0_limit: SpectralField,
    p: ModelParams,
    sigma: float,
    s: float,
    cfg: SolverConfig,
    spec: ContinuitySpec = ContinuitySpec(),
    c_prime: float = 1.0,
) -> ContinuityReport:
    """Integrate the limit datum and its ``spec`` perturbations to the common
    existence horizon and compare weighted-norm distances against twice the
    initial-datum distance plus ``spec.budget``.

    Perturbed datum #i is the limit plus amplitudes[i] cos(mode x).  The limit
    and the perturbed data march as one (K+1, n/2 + 1) batch; the horizon uses
    the largest datum norm so one window serves all runs.  Of ``cfg`` only dt,
    capped at T/64, and s_monitor are read: the march ends at the horizon and
    records every step.  A perturbed datum past the float range raises
    NormOverflowError naming it; a blow-up raises ExperimentError naming the
    runs that crossed the limit at the earliest failing step.
    """
    grid = u0_limit.grid
    # cos(mode x) <-> half on +-mode; the constant (mode 0) is the full amplitude
    unit = field_from_modes(grid, {spec.mode: 1.0 if spec.mode == 0 else 0.5}).coeffs
    # row 0 is the limit, row i + 1 the perturbed datum #i
    bumps = np.multiply.outer(spec.amplitudes, unit)
    with np.errstate(over="ignore"):
        batch = np.vstack([u0_limit.coeffs, u0_limit.coeffs + bumps])
    outside = np.flatnonzero(~np.isfinite(batch[1:]).all(axis=-1))
    if outside.size:
        names = ", ".join(f"#{i}" for i in outside)
        raise NormOverflowError(f"perturbed datum {names} leaves the float range")
    data = SpectralField(grid, batch)
    worst = float(np.max(window_norm(data, sigma, s)))
    T = _closed_window(2.0 + worst, sigma, c_prime)[2]
    dt = min(cfg.dt, T / 64.0)
    try:
        traj = integrate(data, p, replace(cfg, dt=dt, t_end=T, record_every=1))
    except BlowUpError as err:
        names = ", ".join("limit" if r == 0 else f"#{r - 1}" for r in err.rows)
        raise ExperimentError(f"run {names} blew up at t = {err.time:.4g}") from err
    runs = traj.states.coeffs  # (T, K+1, n/2 + 1)
    diff = data.with_coeffs(runs[:, 1:] - runs[:, :1])
    distances = tuple(ea_norm(traj.times, diff[:, i], T, sigma, s) for i in range(len(bumps)))
    bounds = 2.0 * window_norm(data[1:] - data[0], sigma, s) + spec.budget
    return ContinuityReport(T=T, distances=distances, bounds=tuple(bounds.tolist()))
