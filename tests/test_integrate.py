"""RK4 marching and Picard iteration tests.

The exactly-solvable cases: a spatially constant state decays like the RK4
stability polynomial applied to u' = -lam*u (every spatial term vanishes
identically), and the mean mode of any real field obeys the same law because
the advection term and the nonlocal source are both exactly mean free.
"""

import math
import sys
import tracemalloc

import numpy as np
import pytest

from chgevrey import (
    BlowUpError,
    GevreyIndex,
    ModelParams,
    NormOverflowError,
    PicardSpec,
    RhsWork,
    SolverConfig,
    SpectralField,
    TorusGrid,
    continuity_experiment,
    ea_norm,
    estimate_radius,
    existence_window,
    field_from_modes,
    functional_H,
    gevrey_norm,
    gevrey_norm_bar,
    integrate,
    picard_iterate,
    random_field,
    rhs,
    sobolev_norm,
    step_rk4,
    to_physical,
    to_spectral,
)
from chgevrey.integrate import BLOWUP_NORM, _monitor_norm, _monitor_weight, cumulative_trapezoid
from chgevrey.model import irfft
from oracles import peakon

GRID = TorusGrid(64)
P = ModelParams(alpha=1.0, beta=1.0, gamma=1.0, Gamma_coef=0.5, lam=1.0)
BENCH_QUARTIC = ModelParams(alpha=0.1, beta=0.3, gamma=0.2, Gamma_coef=0.05, lam=1.0)


def rk4_poly(z: float) -> float:
    """Stability polynomial of classical RK4."""
    return 1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0


def cos_field(grid=GRID, amp=1.0, mode=1):
    return field_from_modes(grid, {mode: amp / 2.0})


# --- RK4 -----------------------------------------------------------------------


def test_constant_state_decays_like_stability_polynomial():
    u = field_from_modes(GRID, {0: 0.7})
    p = ModelParams(alpha=0.3, beta=2.0, gamma=1.0, Gamma_coef=0.4, lam=0.9)
    dt, n_steps = 0.1, 10
    for _ in range(n_steps):
        u = step_rk4(u, p, dt)
    expected = 0.7 * rk4_poly(-p.lam * dt) ** n_steps
    assert abs(u.coeff(0).real - expected) <= 1e-14
    # FFT round-off on the constant samples seeds ~1e-17 dust in other modes
    assert float(np.max(np.abs(np.delete(u.coeffs, 0)))) <= 1e-16


def test_mean_mode_follows_scalar_decay_law():
    rng = np.random.default_rng(7)
    u = random_field(GRID, rng, band=8)
    c0 = u.coeff(0).real
    dt, n_steps = 0.02, 25
    traj = integrate(u, P, SolverConfig(dt=dt, t_end=dt * n_steps))
    expected = c0 * rk4_poly(-P.lam * dt) ** n_steps
    assert abs(traj.states[-1].coeff(0).real - expected) <= 1e-12 * max(1.0, abs(c0))


def test_rk4_is_fourth_order_in_dt():
    u0 = cos_field()
    t_end = 0.2

    def final_state(dt):
        return integrate(u0, P, SolverConfig(dt=dt, t_end=t_end)).states[-1]

    ref = final_state(t_end / 256)
    err_coarse = float(np.max(np.abs((final_state(t_end / 16) - ref).coeffs)))
    err_fine = float(np.max(np.abs((final_state(t_end / 32) - ref).coeffs)))
    ratio = err_coarse / err_fine
    assert 12.0 < ratio < 20.0, f"observed error ratio {ratio:.2f}"


def test_march_preserves_hermitian_symmetry():
    rng = np.random.default_rng(11)
    u = random_field(GRID, rng, band=16)
    traj = integrate(u, P, SolverConfig(dt=0.008, t_end=0.4, record_every=10))
    # the stored half spectrum is that of a real field when the mean coefficient
    # is real, which the march makes it, and slot n/2 stays exactly zero
    assert np.max(np.abs(traj.states.coeffs[1:, 1:-1])) > 0.0
    assert not np.any(traj.states.coeffs[:, 0].imag)
    assert not np.any(traj.states.coeffs[:, GRID.n_points // 2])


def test_recording_schedule():
    u0 = cos_field()
    traj = integrate(u0, P, SolverConfig(dt=0.01, t_end=0.1, record_every=3))
    assert np.allclose(traj.times, [0.0, 0.03, 0.06, 0.09, 0.1])
    assert traj.states.coeffs.shape == (len(traj.times), u0.grid.n_points // 2 + 1)
    assert traj.states[0].coeffs.tobytes() == u0.coeffs.tobytes()


def test_horizon_off_the_step_grid_ends_at_t_end():
    # 1.0 is not a whole number of 0.3 steps: the last step shrinks to 0.1
    u0 = field_from_modes(TorusGrid(8), {0: 0.1})
    p = ModelParams(alpha=0.3, beta=2.0, gamma=1.0, lam=0.9)
    traj = integrate(u0, p, SolverConfig(dt=0.3, t_end=1.0))
    assert list(traj.times) == [0.0, 0.3, 2 * 0.3, 3 * 0.3, 1.0]
    expected = 0.1 * rk4_poly(-0.3 * p.lam) ** 3 * rk4_poly(-0.1 * p.lam)
    assert abs(traj.states[-1].coeff(0).real - expected) <= 1e-14


def test_whole_step_horizon_keeps_its_step_times():
    # 0.07/0.01 evaluates to 7.000000000000001; the march still takes 7 full steps
    u0 = field_from_modes(TorusGrid(8), {0: 0.1})
    traj = integrate(u0, P, SolverConfig(dt=0.01, t_end=0.07))
    assert list(traj.times) == [j * 0.01 for j in range(8)]


def test_zero_horizon_records_only_the_datum():
    u0 = cos_field()
    traj = integrate(u0, P, SolverConfig(dt=0.01, t_end=0.0))
    assert list(traj.times) == [0.0]
    assert traj.states.coeffs.shape[0] == 1


def test_unstable_step_raises_blowup_with_partial_trajectory():
    u0 = cos_field(amp=40.0)
    cfg = SolverConfig(dt=0.5, t_end=5.0, s_monitor=2.0)
    with pytest.warns(UserWarning, match="advisory stability bound"):
        with pytest.raises(BlowUpError) as excinfo:
            integrate(u0, P, cfg)
    err = excinfo.value
    assert 0.0 < err.time <= 5.0
    assert err.trajectory is not None
    assert err.trajectory.states.coeffs.shape[0] >= 1
    assert err.trajectory.times[-1] < err.time


def test_norm_monitor_triggers_before_nonfinite():
    # mild growth into the 1e6 monitor threshold rather than a float overflow;
    # the blow-up step is the first whose state has sobolev_norm above 1e6
    p = ModelParams(lam=1e-8)
    u0 = cos_field(TorusGrid(16), amp=2000.0, mode=2)
    with pytest.warns(UserWarning):
        with pytest.raises(BlowUpError) as excinfo:
            integrate(u0, p, SolverConfig(dt=0.2, t_end=10.0, record_every=1))
    err = excinfo.value
    states, times = err.trajectory.states, err.trajectory.times
    assert np.all(sobolev_norm(states, 2.0) <= 1e6)
    assert err.time == len(times) * 0.2
    assert sobolev_norm(step_rk4(states[-1], p, 0.2), 2.0) > 1e6


@pytest.mark.parametrize("s", [2.0, 2.5])
@pytest.mark.parametrize("n", [16, 64, 512])
def test_the_monitor_weight_gives_the_sobolev_norm(n, s):
    # the march's monitor: the squared real view of c against the weight, built
    # once per run and repeated per part; on a field and on a batch it is the
    # H^s norm up to rounding
    grid = TorusGrid(n)
    w2 = np.repeat(_monitor_weight(grid, s), 2)
    rng = np.random.default_rng(n)
    for u in (random_field(grid, rng), random_field(grid, rng, size=5)):
        monitor = _monitor_norm(u.coeffs, w2)
        assert np.shape(monitor) == np.shape(sobolev_norm(u, s))
        np.testing.assert_allclose(monitor, sobolev_norm(u, s), rtol=1e-13, atol=0.0)


def test_the_monitor_finds_exactly_the_nan_and_inf_rows_of_a_batch():
    w2 = np.repeat(_monitor_weight(GRID, 2.0), 2)
    u = 0.1 * random_field(GRID, np.random.default_rng(11), band=12, size=4)
    c = u.coeffs.copy()
    c[1, 3] = complex(math.nan, 0.0)
    c[3, 5] = complex(0.0, math.inf)
    below = _monitor_norm(c, w2) <= BLOWUP_NORM
    assert np.flatnonzero(~below).tolist() == [1, 3]
    # the march reports the same rows, and a single NaN field crosses too
    batch = u.with_coeffs(c)
    with np.errstate(invalid="ignore"), pytest.raises(BlowUpError) as excinfo:
        integrate(batch, P, SolverConfig(dt=0.01, t_end=0.02))
    assert excinfo.value.rows == (1, 3) and excinfo.value.time == 0.01
    with np.errstate(invalid="ignore"), pytest.raises(BlowUpError) as excinfo:
        integrate(batch[1], P, SolverConfig(dt=0.01, t_end=0.02))
    assert excinfo.value.rows == ()


@pytest.mark.parametrize("s", [0.0, 2.0, 2.5])
def test_the_monitor_weight_reads_the_grid_multiplicity(s):
    grid = TorusGrid(64, period=3.0)
    expected = grid.multiplicity * (1.0 + grid.wavenumbers**2) ** s
    assert _monitor_weight(grid, s).tobytes() == expected.tobytes()


def test_a_batch_marches_each_row_as_it_marches_alone():
    rng = np.random.default_rng(8)
    singles = [0.1 * random_field(GRID, rng, band=12) for _ in range(3)]
    batch = SpectralField(GRID, np.array([u.coeffs for u in singles]))
    cfg = SolverConfig(dt=0.01, t_end=0.1, record_every=3)
    traj = integrate(batch, P, cfg)
    assert traj.states.coeffs.shape == (len(traj.times), 3, GRID.n_points // 2 + 1)
    for i, u in enumerate(singles):
        alone = integrate(u, P, cfg)
        assert list(alone.times) == list(traj.times)
        assert traj.states[:, i].coeffs.tobytes() == alone.states.coeffs.tobytes()


def record_buffer_sets(monkeypatch) -> list:
    """Every RhsWork built while the test runs, in order."""
    built = []
    init = RhsWork.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(RhsWork, "__init__", recording)
    return built


def held_buffers(built: list) -> list:
    """Every array each plan holds, alone or in a tuple: its one buffer set,
    views, symbols, and the stage and its field's coefficients once a step
    has made them."""
    values = [v for work in built for v in vars(work).values()]
    held = [a for v in values for a in (v if isinstance(v, tuple) else (v,))]
    held = [a.coeffs if isinstance(a, SpectralField) else a for a in held]
    return [a for a in held if isinstance(a, np.ndarray)]


@pytest.mark.parametrize("size", [None, 3])
def test_a_march_builds_one_buffer_set_and_no_state_shares_it(monkeypatch, size):
    u0 = 0.1 * random_field(GRID, np.random.default_rng(3), band=12, size=size)
    built = record_buffer_sets(monkeypatch)
    traj = integrate(u0, P, SolverConfig(dt=0.01, t_end=0.1))
    assert len(built) == 1
    assert len(traj.times) == 11
    assert built[0].stage.shape == u0.coeffs.shape  # made by the first step, then reused
    for row in traj.states.coeffs:
        assert not any(np.shares_memory(row, buf) for buf in held_buffers(built))
    stepped = step_rk4(u0, P, 0.01, work=built[0]).coeffs
    assert not any(np.shares_memory(stepped, buf) for buf in held_buffers(built))
    assert stepped.tobytes() == traj.states.coeffs[1].tobytes()
    # a second step on the same plan leaves the first one's result as it was
    step_rk4(traj.states[-1], P, 0.02, work=built[0])
    assert stepped.tobytes() == traj.states.coeffs[1].tobytes()
    assert len(built) == 1


@pytest.mark.parametrize("size", [None, 3])
def test_two_steps_on_one_plan_reuse_its_stage_and_its_staged_field(size):
    u0 = 0.1 * random_field(GRID, np.random.default_rng(6), band=12, size=size)
    work = RhsWork(u0, P)
    assert work.stage is None and work.staged is None
    first = step_rk4(u0, P, 0.01, work=work)
    stage, staged = work.stage, work.staged
    assert staged.coeffs is stage and stage.shape == u0.coeffs.shape
    kept = first.coeffs.tobytes()
    second = step_rk4(first, P, 0.01, work=work)
    assert work.stage is stage and work.staged is staged
    assert first.coeffs.tobytes() == kept
    held = held_buffers([work])
    assert any(buf is work.fused0 for buf in held) and any(buf is work.fused1 for buf in held)
    for result in (first, second):
        assert not any(np.shares_memory(result.coeffs, buf) for buf in held)


@pytest.mark.parametrize("size", [None, 3])
def test_a_step_without_a_plan_builds_one_for_its_four_stages(monkeypatch, size):
    u0 = 0.1 * random_field(GRID, np.random.default_rng(4), band=12, size=size)
    built = record_buffer_sets(monkeypatch)
    alone = step_rk4(u0, P, 0.01).coeffs
    assert len(built) == 1 and built[0].stage.shape == u0.coeffs.shape
    assert alone.tobytes() == step_rk4(u0, P, 0.01, work=RhsWork(u0, P)).coeffs.tobytes()


# --- the RK4 step against its textbook form ------------------------------------


def textbook_rk4(u: SpectralField, p: ModelParams, dt: float) -> np.ndarray:
    """One classical RK4 step written out: each stage from a fresh plan, and the
    combination k1 + 2 k2 + 2 k3 + k4 in step_rk4's order; the mean made real."""
    c = u.coeffs
    f = lambda coeffs: rhs(u.with_coeffs(coeffs), p, work=None).coeffs
    k1 = f(c)
    k2 = f(c + (0.5 * dt) * k1)
    k3 = f(c + (0.5 * dt) * k2)
    k4 = f(c + dt * k3)
    out = (k1 + 2.0 * k2 + 2.0 * k3 + k4) * (dt / 6.0) + c
    out.imag[..., 0] = 0.0
    return out


@pytest.mark.skipif(
    not (np.finfo(np.longdouble).eps < 1e-18 and "Gg->g" in irfft.types),
    reason="np.longdouble is not 80-bit here, or NumPy's irfft kernel has no longdouble loop",
)
@pytest.mark.parametrize("p", [ModelParams(lam=1.0), BENCH_QUARTIC], ids=["README", "quartic"])
def test_an_80_bit_field_keeps_its_dtype_through_rhs_the_step_and_the_march(monkeypatch, p):
    # the README simulate config's datum, 0.01 cos x on 256 points, for 20 steps
    double = field_from_modes(TorusGrid(256), {1: 0.005})
    u = SpectralField(double.grid, double.coeffs.astype(np.clongdouble))
    assert u.coeffs.dtype == rhs(u, p).coeffs.dtype == np.clongdouble
    with pytest.raises(ValueError, match="rhs buffers"):  # a float64 plan would narrow it
        rhs(u, p, work=RhsWork(double, p))
    built = record_buffer_sets(monkeypatch)
    cfg = SolverConfig(dt=0.01, t_end=0.2)
    wide = integrate(u, p, cfg).states.coeffs
    assert wide.dtype == step_rk4(u, p, 0.01, work=built[0]).coeffs.dtype == np.clongdouble
    assert {a.dtype for a in held_buffers(built)} == {np.dtype(np.clongdouble), np.dtype(np.longdouble)}
    narrow = integrate(double, p, cfg).states.coeffs
    assert len(wide) == 21 and narrow.dtype == np.complex128
    gap = np.max(np.abs(wide - narrow)) / np.max(np.abs(narrow))
    assert 0.0 < gap <= 1e-12  # the runs differ: the wide one was not narrowed


@pytest.mark.parametrize("p", [ModelParams(lam=0.1), BENCH_QUARTIC], ids=["CH", "quartic"])
@pytest.mark.parametrize("size", [None, 3])
def test_step_rk4_is_the_textbook_step_bit_for_bit(p, size):
    u = 0.1 * random_field(GRID, np.random.default_rng(5), band=20, size=size)
    work = RhsWork(u, p)
    for dt in (0.01, 0.0037):
        assert step_rk4(u, p, dt, work=work).coeffs.tobytes() == textbook_rk4(u, p, dt).tobytes()
        assert step_rk4(u, p, dt).coeffs.tobytes() == textbook_rk4(u, p, dt).tobytes()


@pytest.mark.parametrize("p", [ModelParams(lam=0.1), BENCH_QUARTIC], ids=["CH", "quartic"])
def test_a_march_with_a_shortened_last_step_is_textbook_steps_bit_for_bit(p):
    u0 = 0.1 * random_field(GRID, np.random.default_rng(6), band=20)
    cfg = SolverConfig(dt=0.01, t_end=0.035)
    traj = integrate(u0, p, cfg)
    assert len(traj.times) == 5 and traj.times[-1] == cfg.t_end
    u = u0
    for dt, state in zip((0.01, 0.01, 0.01, cfg.t_end - 3 * cfg.dt), traj.states.coeffs[1:]):
        u = u.with_coeffs(textbook_rk4(u, p, dt))
        assert state.tobytes() == u.coeffs.tobytes()


def test_the_norms_of_a_batched_trajectory_are_those_of_each_run():
    rng = np.random.default_rng(8)
    batch = SpectralField(GRID, [0.1 * random_field(GRID, rng, band=12).coeffs for _ in range(3)])
    states = integrate(batch, P, SolverConfig(dt=0.01, t_end=0.05)).states
    index = GevreyIndex(1.0, 0.5, 2.0)
    for norm in (
        lambda u: gevrey_norm(u, index),
        lambda u: gevrey_norm_bar(u, index),
        lambda u: functional_H(u, P, 2.0),
    ):
        table = norm(states)
        assert table.shape == states.coeffs.shape[:2]
        for i in range(3):
            assert table[:, i].tobytes() == norm(states[:, i]).tobytes()
    # the decay fit takes one field or one batch of them, not a batch of batches
    with pytest.raises(ValueError, match=r"shape \(6, 3, 33\)"):
        estimate_radius(states)


def test_blowup_names_the_batch_rows_that_crossed():
    grid = TorusGrid(16)
    p = ModelParams(lam=1e-8)
    amps = (0.01, 2000.0, 0.02, 2000.0)
    batch = SpectralField(grid, np.array([cos_field(grid, a, mode=2).coeffs for a in amps]))
    cfg = SolverConfig(dt=0.2, t_end=10.0)
    with pytest.warns(UserWarning):
        with pytest.raises(BlowUpError, match="rows 1, 3") as batched:
            integrate(batch, p, cfg)
        with pytest.raises(BlowUpError) as alone:
            integrate(cos_field(grid, 2000.0, mode=2), p, cfg)
    assert batched.value.rows == (1, 3)
    assert alone.value.rows == ()
    assert batched.value.time == alone.value.time
    assert batched.value.trajectory.states.coeffs.shape[1:] == (4, 9)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_blowup_lists_every_row_that_crossed_at_the_failing_step():
    # in the first step row 0 overflows to non-finite coefficients and row 1
    # crosses the 1e6 monitor; the one check after the step names both
    grid = TorusGrid(16)
    amps = (1e160, 5e6, 0.01)
    batch = SpectralField(grid, np.array([field_from_modes(grid, {1: a}).coeffs for a in amps]))
    with pytest.warns(UserWarning, match="advisory stability bound"):
        with pytest.raises(BlowUpError, match="rows 0, 1$") as err:
            integrate(batch, ModelParams(lam=1.0), SolverConfig(dt=1e-9, t_end=1e-9))
    assert err.value.rows == (0, 1)
    assert err.value.time == 1e-9
    assert err.value.trajectory.times.tolist() == [0.0]


# --- the H^1 energy law --------------------------------------------------------


def h1_energy(states: SpectralField) -> np.ndarray:
    """E = sum over all n modes of (1 + k^2)|c_m|^2, one value per recorded state."""
    weight = 2.0 * (1.0 + states.grid.wavenumbers**2)
    weight[0] = 1.0  # mode 0 has no mirror; slot n/2 holds zero
    return np.sum(weight * np.abs(states.coeffs) ** 2, axis=-1)


def energy_drift(u0: SpectralField, p: ModelParams, dt: float, rate: float) -> float:
    """max_j |E_j / (E_0 R(-rate dt)^(2j)) - 1| over a march to t = 2, every step recorded."""
    traj = integrate(u0, p, SolverConfig(dt=dt, t_end=2.0))
    energy = h1_energy(traj.states)
    steps = np.arange(len(energy))
    return float(np.max(np.abs(energy / (energy[0] * rk4_poly(-rate * dt) ** (2 * steps)) - 1.0)))


@pytest.mark.parametrize("p", [ModelParams(lam=0.1), BENCH_QUARTIC], ids=["CH", "quartic"])
def test_march_keeps_the_h1_energy_law(p):
    # along the flow E' = -2 lam E: the advection, nonlocal and h(u) terms cancel
    # against (1 - d_xx)u, and a dealiased Galerkin march keeps the cancellation,
    # so E_j = E_0 R(-lam dt)^(2j) up to the nonlinear part of the O(dt^4) error
    u = random_field(GRID, np.random.default_rng(0), band=10, decay=2.0)
    u = (0.1 / float(np.sqrt(np.mean(to_physical(u) ** 2)))) * u  # RMS 0.1
    coarse, fine = (energy_drift(u, p, dt, p.lam) for dt in (0.01, 0.005))
    assert coarse < 1e-9
    assert 14.0 < coarse / fine < 18.0, f"drift ratio {coarse / fine:.2f}"
    # the same check against a rate 1% off fails by orders of magnitude
    assert energy_drift(u, p, 0.01, 1.01 * p.lam) > 1e-3


# --- the amplitude symmetry ----------------------------------------------------


@pytest.mark.parametrize("a", [2.0, 4.0, 0.5, 0.25])
def test_the_march_keeps_the_amplitude_symmetry_bit_for_bit(a):
    # every term of rhs has degree 1 to 4 in u, so a w(a t) solves the model
    # when w solves it at (alpha/a, beta a, gamma a^2, Gamma/a, lambda/a); at a
    # power of two every floating-point operation of the march scales exactly
    p = BENCH_QUARTIC
    scaled = ModelParams(
        alpha=p.alpha / a,
        beta=p.beta * a,
        gamma=p.gamma * a**2,
        Gamma_coef=p.Gamma_coef / a,
        lam=p.lam / a,
    )
    u0 = 0.02 * random_field(TorusGrid(128), np.random.default_rng(22))  # RMS about 0.05
    dt = 1e-3
    big = integrate(a * u0, p, SolverConfig(dt=dt, t_end=256 * dt))
    small = integrate(u0, scaled, SolverConfig(dt=a * dt, t_end=256 * a * dt))
    assert big.times.tobytes() == (small.times / a).tobytes()
    assert big.states.coeffs.tobytes() == (a * small.states.coeffs).tobytes()


# --- the dissipation map ------------------------------------------------------


def map_defect(n_steps: int) -> float:
    """max|e^(l1 t1) c(t1) - e^(l2 t2) c(t2)| for CH marched at l1 = 0.1 to t1 = 1
    and at l2 = 0.5 to the t2 with the same undamped time tau = (1 - e^-0.1)/0.1."""
    u0 = field_from_modes(GRID, {1: 0.25, 2: 0.05})
    tau = (1.0 - math.exp(-0.1)) / 0.1
    scaled = []
    for lam, t in ((0.1, 1.0), (0.5, -math.log(1.0 - 0.5 * tau) / 0.5)):
        traj = integrate(u0, ModelParams(lam=lam), SolverConfig(dt=t / n_steps, t_end=t))
        assert traj.times[-1] == t
        scaled.append(math.exp(lam * t) * traj.states.coeffs[-1])
    return float(np.max(np.abs(scaled[0] - scaled[1])))


def test_the_march_keeps_the_dissipation_map():
    # for CH, u_lam(t) = e^(-lam t) v(tau_lam(t)) with v the undamped flow and
    # tau_lam(t) = (1 - e^(-lam t))/lam; the dealiased Galerkin system keeps the
    # map exactly, so two rates at one tau differ by the RK4 error alone
    defects = [map_defect(n_steps) for n_steps in (100, 200, 400)]
    assert defects[-1] < 5e-13
    for coarse, fine in zip(defects, defects[1:]):
        assert 14.0 < coarse / fine < 18.0, f"defects {defects}"


# --- the peakon: non-smooth data ----------------------------------------------


def peakon_error(n: int) -> float:
    """RMS of the samples of CH marched from the peakon with a = 0.5, lam = 0.1
    to t = 1 at dt = 0.25/n, less the closed form at t = 1."""
    grid, p = TorusGrid(n), ModelParams(lam=0.1)
    traj = integrate(peakon(grid, 0.5, p.lam, 0.0), p, SolverConfig(dt=0.25 / n, t_end=1.0))
    assert traj.times[-1] == 1.0
    exact = peakon(grid, 0.5, p.lam, 1.0)
    return float(np.sqrt(np.mean((to_physical(traj.states)[-1] - to_physical(exact)) ** 2)))


def test_the_march_converges_to_the_peakon_at_first_order():
    # |c_m| falls like m^-2, so no Gevrey or analytic test reaches this datum:
    # every mode of the padded transforms is live, and the truncated tail
    # leaves an error of order 1/n (5.2e-4 at n = 128, 2.4e-4 at n = 256)
    coarse, fine = peakon_error(128), peakon_error(256)
    assert coarse < 1e-3 and fine < 1e-3
    assert 1.8 <= coarse / fine <= 2.6, f"errors {coarse:.3g}, {fine:.3g}"


def test_a_stale_positional_flag_is_refused():
    u = cos_field()
    with pytest.raises(TypeError):
        rhs(u, P, True)
    with pytest.raises(TypeError):
        step_rk4(u, P, 0.01, False)


# --- Picard iteration ----------------------------------------------------------

SMALL = 0.05


def small_datum():
    return cos_field(amp=SMALL)


def test_picard_window_enforced():
    u0 = cos_field(amp=1.0)
    with pytest.raises(ValueError, match="existence window"):
        picard_iterate(u0, P, sigma=1.0, s=2.0, spec=PicardSpec(2, 17, horizon=1e-3))


def test_picard_contracts_inside_the_window():
    res = picard_iterate(small_datum(), P, sigma=1.0, s=2.0, spec=PicardSpec(horizon=7e-5))
    assert res.diverged_at is None
    assert len(res.diffs) == 8
    assert res.diffs[0] > res.floor
    for r in res.ratios:
        assert r < 0.5
    assert res.converged_at is not None
    assert res.diffs[res.converged_at - 1] <= res.floor


def test_picard_final_iterate_matches_rk4():
    T = 7e-5
    res = picard_iterate(small_datum(), P, sigma=1.0, s=2.0, spec=PicardSpec(horizon=T))
    traj = integrate(small_datum(), P, SolverConfig(dt=T / 64, t_end=T))
    gap = float(np.max(np.abs((res.final[-1] - traj.states[-1]).coeffs)))
    assert gap <= 1e-11


def test_a_picard_run_builds_one_buffer_set_and_its_iterate_does_not_share_it(monkeypatch):
    built = record_buffer_sets(monkeypatch)
    res = picard_iterate(small_datum(), P, sigma=1.0, s=2.0, spec=PicardSpec(4, 33, horizon=7e-5))
    # one plan for the nodes, and one for the datum row of the first iterate;
    # neither steps, so neither makes a stage
    m = GRID.n_points // 2 + 1
    assert [work.triple.shape[1:] for work in built] == [(33, m), (m,)]
    assert [work.stage for work in built] == [None, None]
    assert len(res.diffs) == 4
    assert not any(np.shares_memory(res.final.coeffs, buf) for buf in held_buffers(built))


def test_a_picard_run_over_several_row_blocks_is_the_one_row_loop_bit_for_bit(monkeypatch):
    # on the bench shape (quartic, n = 64, 512 nodes) F of the nodes runs in
    # 5 equal blocks of 103 rows, the last redoing 3; the node plan makes no
    # stage, and the loop below takes F one row at a time and writes every
    # iterate and difference into fresh arrays
    u0, T, n_nodes, n_iters = small_datum(), 7e-5, 512, 4
    built = record_buffer_sets(monkeypatch)
    res = picard_iterate(u0, BENCH_QUARTIC, 1.0, 2.0, PicardSpec(n_iters, n_nodes, horizon=T))
    nodes = built[0]
    assert (nodes.tall, nodes.block, nodes.triple.shape[1], nodes.stage) == (True, 103, 103, None)
    times = np.linspace(0.0, T, n_nodes)
    final = np.broadcast_to(u0.coeffs, (n_nodes,) + u0.coeffs.shape)
    diffs = []
    for _ in range(n_iters):
        f_nodes = np.array([rhs(u0.with_coeffs(row), BENCH_QUARTIC).coeffs for row in final])
        coeffs = u0.coeffs + cumulative_trapezoid(f_nodes, times)
        diffs.append(ea_norm(times, u0.with_coeffs(coeffs - final), T, 1.0, 2.0))
        final = coeffs
    assert [d.hex() for d in res.diffs] == [d.hex() for d in diffs]
    assert res.final.coeffs.tobytes() == final.tobytes()
    assert not any(np.shares_memory(res.final.coeffs, buf) for buf in held_buffers(built))


def test_a_picard_difference_is_scored_in_bounded_memory(monkeypatch):
    # the sup norm gathers its (time, width) pairs in blocks; gathering all
    # of them at once peaked at about 5 MB on this (512, 33) difference
    scored = []

    def spy(times, fields, *args):
        scored.append((times, fields, args))
        return ea_norm(times, fields, *args)

    monkeypatch.setattr(sys.modules["chgevrey.integrate"], "ea_norm", spy)
    picard_iterate(small_datum(), BENCH_QUARTIC, 1.0, 2.0, PicardSpec(1, 512, horizon=7e-5))
    times, diff, args = scored[-1]
    assert diff.coeffs.shape == (512, 33)
    tracemalloc.start()
    try:
        ea_norm(times, diff, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2e6


@pytest.mark.parametrize("p", [ModelParams(lam=0.1), BENCH_QUARTIC], ids=["CH", "quartic"])
def test_the_first_iterate_takes_one_rhs_row_for_every_node(p):
    # the zeroth iterate is the datum at every node, so picard_iterate
    # broadcasts rhs of the datum alone; the batch gives that row bit for bit
    u0 = 0.1 * random_field(GRID, np.random.default_rng(5), band=12)
    nodes = u0.with_coeffs(np.broadcast_to(u0.coeffs, (65,) + u0.coeffs.shape))
    row = rhs(u0, p).coeffs.tobytes()
    assert all(f.tobytes() == row for f in rhs(nodes, p).coeffs)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_picard_diverges_outside_the_window_when_unenforced():
    res = picard_iterate(
        cos_field(amp=2.0),
        P,
        sigma=1.0,
        s=2.0,
        spec=PicardSpec(15, 65, horizon=2.0),
        enforce_window=False,
    )
    assert res.diverged_at is not None


def test_an_unenforced_explicit_horizon_runs_where_the_window_underflows():
    # the window is evaluated only to pick or to check the horizon, so this
    # datum, whose window underflows, still runs
    u0 = field_from_modes(TorusGrid(512), {200: 1e-3})
    with pytest.raises(NormOverflowError, match="underflows"):
        existence_window(u0, 1.0, 2.0)
    res = picard_iterate(u0, P, 1.0, 2.0, PicardSpec(2, 9, horizon=1e-9), enforce_window=False)
    assert res.horizon == 1e-9 and len(res.diffs) == 2 and res.diverged_at is None


def test_picard_argument_validation():
    # the spec holds the horizon and node rules; picard_iterate has none of its own
    with pytest.raises(ValueError, match="^horizon must be positive"):
        PicardSpec(2, horizon=0.0)
    with pytest.raises(ValueError, match="^n_nodes must be at least 2"):
        PicardSpec(2, 1, horizon=1e-6)


@pytest.mark.parametrize("n_iters", [0, -1])
def test_picard_needs_at_least_one_iterate(n_iters):
    # zero iterates used to return empty diffs and ratios: a silent non-run
    with pytest.raises(ValueError, match="^n_iters must be at least 1"):
        PicardSpec(n_iters, horizon=1e-6)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.1, t_end=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.1, t_end=1.0, record_every=0)


def test_a_march_needs_a_monitor_order():
    # s_monitor=None is RunConfig's placeholder for gevrey.s; given straight to
    # the library it used to die in the monitor weight with a TypeError
    cfg = SolverConfig(dt=0.01, t_end=0.1, s_monitor=None)
    u0 = field_from_modes(TorusGrid(16), {1: 0.01})
    for march in (
        lambda: integrate(u0, P, cfg),
        lambda: continuity_experiment(u0, P, 1.0, 2.0, cfg),
    ):
        with pytest.raises(ValueError, match="^s_monitor must be a number"):
            march()


def test_integration_is_deterministic():
    rng = np.random.default_rng(5)
    u = random_field(GRID, rng, band=10)
    a = integrate(u, P, SolverConfig(dt=0.01, t_end=0.2)).states[-1]
    b = integrate(u, P, SolverConfig(dt=0.01, t_end=0.2)).states[-1]
    assert a.coeffs.tobytes() == b.coeffs.tobytes()


def test_dissipation_shrinks_the_norm_for_small_data():
    u0 = cos_field(amp=0.01)
    traj = integrate(u0, P, SolverConfig(dt=0.01, t_end=1.0, record_every=100))
    assert sobolev_norm(traj.states[-1], 2.0) < sobolev_norm(u0, 2.0)
