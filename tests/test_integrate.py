"""RK4 marching and Picard iteration tests.

The exactly-solvable cases: a spatially constant state decays like the RK4
stability polynomial applied to u' = -lam*u (every spatial term vanishes
identically), and the mean mode of any real field obeys the same law because
the advection term and the nonlocal source are both exactly mean free.
"""

import math

import numpy as np
import pytest

from chgevrey import (
    BlowUpError,
    GevreyIndex,
    ModelParams,
    RhsWork,
    SolverConfig,
    SpectralField,
    TorusGrid,
    estimate_radius,
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

GRID = TorusGrid(64)
P = ModelParams(alpha=1.0, beta=1.0, gamma=1.0, Gamma_coef=0.5, lam=1.0)


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
    # mild growth into the 1e6 monitor threshold rather than a float overflow
    u0 = cos_field(amp=2000.0, mode=2)
    p = ModelParams(lam=1e-8)
    grid_small = TorusGrid(16)
    u0 = cos_field(grid_small, amp=2000.0, mode=2)
    with pytest.warns(UserWarning):
        with pytest.raises(BlowUpError):
            integrate(u0, p, SolverConfig(dt=0.2, t_end=10.0))


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
    held = ("pair", "samples", "spectrum", "forward", "linear", "back")
    return [getattr(work, name) for work in built for name in held]


@pytest.mark.parametrize("size", [None, 3])
def test_a_march_builds_one_buffer_set_and_no_state_shares_it(monkeypatch, size):
    u0 = 0.1 * random_field(GRID, np.random.default_rng(3), band=12, size=size)
    built = record_buffer_sets(monkeypatch)
    traj = integrate(u0, P, SolverConfig(dt=0.01, t_end=0.1))
    assert len(built) == 1
    assert len(traj.times) == 11
    for row in traj.states.coeffs:
        assert not any(np.shares_memory(row, buf) for buf in held_buffers(built))
    stepped = step_rk4(u0, P, 0.01, work=built[0]).coeffs
    assert not any(np.shares_memory(stepped, buf) for buf in held_buffers(built))
    assert stepped.tobytes() == traj.states.coeffs[1].tobytes()
    assert len(built) == 1


@pytest.mark.parametrize("size", [None, 3])
def test_a_step_without_a_plan_builds_one_for_its_four_stages(monkeypatch, size):
    u0 = 0.1 * random_field(GRID, np.random.default_rng(4), band=12, size=size)
    built = record_buffer_sets(monkeypatch)
    alone = step_rk4(u0, P, 0.01).coeffs
    assert len(built) == 1
    assert alone.tobytes() == step_rk4(u0, P, 0.01, work=RhsWork(u0, P)).coeffs.tobytes()


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

BENCH_QUARTIC = ModelParams(alpha=0.1, beta=0.3, gamma=0.2, Gamma_coef=0.05, lam=1.0)


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
        picard_iterate(u0, P, sigma=1.0, s=2.0, T=1e-3, n_iters=2, n_nodes=17)


def test_picard_contracts_inside_the_window():
    res = picard_iterate(
        small_datum(), P, sigma=1.0, s=2.0, T=7e-5, n_iters=8, n_nodes=129
    )
    assert res.diverged_at is None
    assert len(res.diffs) == 8
    assert res.diffs[0] > res.floor
    for r in res.ratios:
        assert r < 0.5
    assert res.converged_at is not None
    assert res.diffs[res.converged_at - 1] <= res.floor


def test_picard_final_iterate_matches_rk4():
    T = 7e-5
    res = picard_iterate(
        small_datum(), P, sigma=1.0, s=2.0, T=T, n_iters=8, n_nodes=129
    )
    traj = integrate(small_datum(), P, SolverConfig(dt=T / 64, t_end=T))
    gap = float(np.max(np.abs((res.final[-1] - traj.states[-1]).coeffs)))
    assert gap <= 1e-11


def test_a_picard_run_builds_one_buffer_set_and_its_iterate_does_not_share_it(monkeypatch):
    built = record_buffer_sets(monkeypatch)
    res = picard_iterate(small_datum(), P, sigma=1.0, s=2.0, T=7e-5, n_iters=4, n_nodes=33)
    assert len(built) == 1
    assert len(res.diffs) == 4
    assert not any(np.shares_memory(res.final.coeffs, buf) for buf in held_buffers(built))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_picard_diverges_outside_the_window_when_unenforced():
    res = picard_iterate(
        cos_field(amp=2.0),
        P,
        sigma=1.0,
        s=2.0,
        T=2.0,
        n_iters=15,
        n_nodes=65,
        enforce_window=False,
    )
    assert res.diverged_at is not None


def test_picard_argument_validation():
    with pytest.raises(ValueError):
        picard_iterate(small_datum(), P, 1.0, 2.0, T=0.0, n_iters=2)
    with pytest.raises(ValueError):
        picard_iterate(small_datum(), P, 1.0, 2.0, T=1e-6, n_iters=2, n_nodes=1)


@pytest.mark.parametrize("n_iters", [0, -1])
def test_picard_needs_at_least_one_iterate(n_iters):
    # zero iterates used to return empty diffs and ratios: a silent non-run
    with pytest.raises(ValueError, match="at least 1 iterate"):
        picard_iterate(small_datum(), P, 1.0, 2.0, T=1e-6, n_iters=n_iters)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.1, t_end=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.1, t_end=1.0, record_every=0)


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
