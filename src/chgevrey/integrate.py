r"""Time stepping for the dissipative flow: classical RK4 marching and the
integral-equation (Picard) iteration used for the contraction experiment.

Both paths are deterministic: identical inputs produce bit-identical states.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._numerics import cumulative_trapezoid
from .model import ModelParams, RhsWork, rhs
from .spectral import SpectralField, sobolev_norm, to_physical

__all__ = [
    "SolverConfig",
    "Trajectory",
    "BlowUpError",
    "step_rk4",
    "integrate",
    "picard_iterate",
    "PicardResult",
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
    ``rhs`` call of the step; without it the step builds one.

    Nothing is checked here: a non-finite stage propagates into the returned
    state, and the caller's monitor is the one check of the step.
    """
    c = u.coeffs
    work = RhsWork(u, p) if work is None else work
    k1 = rhs(u, p, work=work).coeffs
    k2 = rhs(u.with_coeffs(c + (0.5 * dt) * k1), p, work=work).coeffs
    k3 = rhs(u.with_coeffs(c + (0.5 * dt) * k2), p, work=work).coeffs
    k4 = rhs(u.with_coeffs(c + dt * k3), p, work=work).coeffs
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


def integrate(u0: SpectralField, p: ModelParams, cfg: SolverConfig) -> Trajectory:
    """March u0 (a field or a batch) to cfg.t_end, recording every
    cfg.record_every steps (plus the initial and final states).  When t_end is
    not a whole number of steps the last step is shortened to end at t_end.

    After each step the monitored Sobolev norm is the one check: BlowUpError
    -- with the partial trajectory and the crossing batch rows -- is raised
    when it exceeds 1e6 or is not finite.
    """
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

    u, work = u0, RhsWork(u0, p)
    for i in range(n_steps):
        dt = cfg.dt
        t_next = (i + 1) * dt
        if i + 1 == n_steps and last_dt is not None:
            dt, t_next = last_dt, cfg.t_end
        u = step_rk4(u, p, dt, work=work)
        below = np.less_equal(sobolev_norm(u, cfg.s_monitor), BLOWUP_NORM)  # NaN is not below
        if not below.all():  # the crossing batch rows; () for a single field
            rows = tuple(np.flatnonzero(~below).tolist()) if below.ndim else ()
            raise BlowUpError(t_next, recorded(), rows)
        if (i + 1) % cfg.record_every == 0 or i + 1 == n_steps:
            times.append(t_next)
            states.append(u.coeffs)
    return recorded()


# --- integral-equation iteration ----------------------------------------------


@dataclass
class PicardResult:
    """The last finite iterate as an (n_nodes, n/2 + 1) batch, plus the contraction report.

    ``ratios[k]`` is d_{k+2}/d_{k+1} with d_j the weighted-norm distance
    between iterates j and j-1.  Ratios stop being reported once distances
    reach ``floor`` (rounding level); ``converged_at`` is the first such j.
    ``diverged_at`` is set instead of raising when an iterate overflows.
    """

    times: np.ndarray
    final: SpectralField
    diffs: list
    ratios: list
    floor: float
    converged_at: int | None = None
    diverged_at: int | None = None


def picard_iterate(
    u0: SpectralField,
    p: ModelParams,
    sigma: float,
    s: float,
    T: float,
    n_iters: int,
    n_nodes: int = 512,
    c_prime: float = 1.0,
    enforce_window: bool = True,
) -> PicardResult:
    """Iterate u_{n+1}(t) = u0 + int_0^t F(u_n) dtau on [0, T].

    The zeroth iterate is the constant-in-time datum; integrals use composite
    trapezoid on ``n_nodes`` uniform nodes, and F is evaluated on all nodes
    as one batch.  ``T`` must sit inside the fixed-point existence window
    computed from the datum, else WindowError is raised (disable with
    ``enforce_window=False`` to study divergence).
    """
    # deferred: avoids an import cycle
    from .analyticity import WindowError, ea_norm, existence_window

    if n_nodes < 2:
        raise ValueError("need at least 2 quadrature nodes")
    if n_iters < 1:
        raise ValueError(f"need at least 1 iterate, got {n_iters}")
    if not (T > 0.0):
        raise ValueError(f"horizon must be positive, got {T}")
    if enforce_window:
        window = existence_window(u0, sigma, s, c_prime)
        if T > window:
            raise WindowError(
                f"horizon {T:.3g} exceeds the existence window {window:.3g}; "
                "pass enforce_window=False to study divergence"
            )

    times = np.linspace(0.0, T, n_nodes)
    final = u0.with_coeffs(np.broadcast_to(u0.coeffs, (n_nodes,) + u0.coeffs.shape))
    scale = ea_norm(times, final, T, sigma, s)
    floor = 1e3 * np.finfo(float).eps * max(scale, 1e-300)

    work = RhsWork(final, p)
    diffs: list = []
    ratios: list = []
    converged_at = None
    diverged_at = None
    for it in range(1, n_iters + 1):
        # an overflowing node turns NaN downstream; diverged_at reports it
        with np.errstate(invalid="ignore"):
            f_nodes = rhs(final, p, work=work).coeffs
            integral = cumulative_trapezoid(f_nodes, times)
        # one finite check per iterate stands for the check of each node's field
        coeffs = u0.coeffs + integral
        if not np.all(np.isfinite(coeffs)):
            diverged_at = it
            break
        d = ea_norm(times, u0.with_coeffs(coeffs - final.coeffs), T, sigma, s)
        final = u0.with_coeffs(coeffs)
        diffs.append(d)
        if converged_at is None and d <= floor:
            converged_at = it
    for k in range(len(diffs) - 1):
        if diffs[k] <= floor:
            break
        ratios.append(diffs[k + 1] / diffs[k])
    return PicardResult(
        times=times,
        final=final,
        diffs=diffs,
        ratios=ratios,
        floor=floor,
        converged_at=converged_at,
        diverged_at=diverged_at,
    )
