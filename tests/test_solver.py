"""Mild-solution machinery: heat trajectories, B, Picard, equivariance.

Oracles: heat trajectories against the exact symbol; the Duhamel
bilinear term against a fine-grid quadrature of the exact integrand on
a single low mode, and its dealiased-box path against the full-layout
formula kept in this file; equivariance against the exact rescaling of a
converged solution; energy balance against the L^2 identity.
"""
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.fft

from bnslab.field import (SpectralField, _from_box, dealias, heat_flow,
                          hermitian_symmetrize, leray_project, random_band_limited,
                          set_threads, shell_bump, single_mode)
from bnslab.grid import GridSpec, dealias_mask, wavenumber_sq, wavevectors
from bnslab.littlewood_paley import besov_norm, critical_index
from bnslab.solver import (SolverConfig, _etd_weights, bilinear_B,
                           energy_balance_defect, forcing_integral, heat_trajectory,
                           monitor, nonlinear_term, picard_solve, solve)
from bnslab.spacetime import constant_trajectory, rescale_trajectory, script_norm


@pytest.fixture(scope="module")
def grid():
    return GridSpec(32)


def test_heat_trajectory_exact(grid):
    u0 = random_band_limited(grid, j_lo=0, j_hi=2, seed=40)
    times = np.linspace(0.0, 0.3, 7)
    traj = heat_trajectory(u0, times)
    for i, t in enumerate(times):
        ref = heat_flow(u0, t)
        assert (traj.snapshot(i) - ref).l2() < 1e-13 * max(ref.l2(), 1.0)


def test_nonlinear_term_skewsymmetric_trace(grid):
    # div(u x u) pairs with u to the energy flux, which vanishes for
    # divergence-free u: <u, div(u x u)> = 0
    ud = dealias(random_band_limited(grid, j_lo=0, j_hi=2, seed=17, amplitude=1.0))
    traj = constant_trajectory(ud, [0.0])
    f = SpectralField(grid, _from_box(grid.n_points, nonlinear_term(traj, traj))[0])
    inner = np.sum(np.conj(ud.coeffs) * f.coeffs).real * grid.period ** 3
    assert abs(inner) < 1e-10 * max(ud.l2() * f.l2(), 1.0)


def _full_layout_B(u, v):
    """The nonlinear term and B(u, v) on the full fftn layout: real part of
    the complex inverse, products, complex forward transform, 2/3 mask, ik,
    Leray, then the exponential trapezoid over every mode."""
    grid = u.grid
    up = np.real(scipy.fft.ifftn(u.coeffs, axes=(-3, -2, -1), norm="forward"))
    vp = np.real(scipy.fft.ifftn(v.coeffs, axes=(-3, -2, -1), norm="forward"))
    nn = wavevectors(grid).astype(float)
    k = nn * (2.0 * math.pi / grid.period)
    g = np.zeros(u.coeffs.shape, dtype=complex)
    for a in range(3):
        for b in range(a, 3):
            tab = 0.5 * (up[:, a] * vp[:, b] + vp[:, a] * up[:, b])
            that = scipy.fft.fftn(tab, axes=(-3, -2, -1), norm="forward")
            that *= dealias_mask(grid)
            g[:, a] += 1j * k[b] * that
            if b != a:
                g[:, b] += 1j * k[a] * that
    k2 = np.sum(nn * nn, axis=0)
    dot = np.sum(nn * g, axis=1) / np.where(k2 == 0.0, 1.0, k2)
    g -= nn * dot[:, None]
    out = np.zeros_like(g)
    for i in range(u.n_times - 1):
        dt = float(u.times[i + 1] - u.times[i])
        E, c_lo, c_hi = _etd_weights(wavenumber_sq(grid) * dt)
        out[i + 1] = E * out[i] + dt * (c_lo * g[i] + c_hi * g[i + 1])
    return g, -out


@pytest.mark.parametrize("n,period", [(32, 2.0 * math.pi), (64, 2.0 * math.pi),
                                      (32, 1.0)])
@pytest.mark.parametrize("same", [True, False])
def test_box_path_matches_full_layout(n, period, same):
    # inputs reach past the 2/3 sphere, so the products alias onto every mode
    grid = GridSpec(n, period=period)
    times = np.array([0.0, 0.004, 0.01, 0.011])

    def datum(seed):
        u0 = (random_band_limited(grid, j_lo=0, j_hi=grid.j_max - 1, seed=seed)
              + 0.3 * shell_bump(grid, grid.j_max, seed=seed + 1))
        return heat_trajectory(u0, times)

    u = datum(60)
    v = u if same else datum(62)
    g_ref, b_ref = _full_layout_B(u, v)
    g = _from_box(n, nonlinear_term(u, v))
    b = bilinear_B(u, v)
    assert np.max(np.abs(g - g_ref)) <= 1e-14 * np.max(np.abs(g_ref))
    assert np.max(np.abs(b.coeffs - b_ref)) <= 1e-14 * np.max(np.abs(b_ref))
    assert b.hermitian_defect() == 0.0
    assert np.all(b.coeffs[..., ~dealias_mask(grid)] == 0.0)


def test_projection_keeps_nyquist_content_real(grid):
    # on a Nyquist plane both Hermitian partners sit at -N/2 in the fftn
    # layout; projecting them there would make the field non-real
    shape = (3,) + (grid.n_points,) * 3
    rng = np.random.default_rng(51)
    u = hermitian_symmetrize(grid, rng.standard_normal(shape)
                             + 1j * rng.standard_normal(shape))
    assert np.max(np.abs(u.coeffs[:, grid.n_points // 2])) > 0.0
    forced = forcing_integral(constant_trajectory(u, [0.0, 0.01]))
    for f in (leray_project(u), forced):
        assert f.hermitian_defect() < 1e-15
        assert f.divergence_defect() < 1e-14


def test_bilinear_B_zero_on_zero(grid):
    u0 = random_band_limited(grid, j_lo=0, j_hi=2, seed=41)
    times = np.linspace(0.0, 0.1, 5)
    traj = heat_trajectory(u0, times)
    z = constant_trajectory(u0 * 0.0, times)
    b = bilinear_B(traj, z)
    assert all(b.snapshot(i).l2() == 0.0 for i in range(b.n_times))


def test_bilinear_B_quadratic_homogeneity(grid):
    u0 = random_band_limited(grid, j_lo=0, j_hi=2, seed=42)
    times = np.linspace(0.0, 0.1, 9)
    traj = heat_trajectory(u0, times)
    b1 = bilinear_B(traj, traj)
    b2 = bilinear_B(traj * 2.0, traj * 2.0)
    diff = max((b2.snapshot(i) - b1.snapshot(i) * 4.0).l2()
               for i in range(b1.n_times))
    assert diff < 1e-12 * max(b1.snapshot(-1).l2(), 1e-30)


def test_bilinear_B_refines_with_dt(grid):
    # second-order integrator: halving dt shrinks the defect ~4x
    u0 = random_band_limited(grid, j_lo=0, j_hi=2, seed=43, amplitude=1.0)
    errs = []
    for n in (8, 16, 32):
        times = np.linspace(0.0, 0.08, n + 1)
        traj = heat_trajectory(u0, times)
        b = bilinear_B(traj, traj)
        errs.append(b.snapshot(-1))
    e1 = (errs[0] - errs[2]).l2()
    e2 = (errs[1] - errs[2]).l2()
    assert e2 < 0.4 * e1


def test_picard_converges_small_data(grid):
    u0 = random_band_limited(grid, j_lo=0, j_hi=2, seed=44, amplitude=0.05)
    cfg = SolverConfig(dt=0.01, n_steps=16)
    traj, rep = picard_solve(u0, cfg)
    assert rep.classification == "decaying"
    assert rep.picard_residuals[-1] < cfg.picard_tol
    assert len(rep.picard_residuals) <= 20


def test_picard_diverges_large_data(grid):
    u0 = random_band_limited(grid, j_lo=0, j_hi=2, seed=45, amplitude=60.0)
    cfg = SolverConfig(dt=0.01, n_steps=8, max_picard_iters=8)
    _, rep = picard_solve(u0, cfg)
    assert rep.classification == "picard_diverged"


def test_solution_is_real_and_divergence_free(solved_small):
    traj, _, _ = solved_small
    assert traj.hermitian_defect() < 1e-10
    assert traj.divergence_defect() < 1e-10


def test_mild_solution_fixed_point(solved_small):
    # u = e^{tD}u0 + B(u,u) at the converged iterate
    traj, rep, cfg = solved_small
    u_lin = heat_trajectory(traj.snapshot(0), traj.times)
    rhs = u_lin + bilinear_B(traj, traj)
    defect = script_norm(rhs - traj, 1.0, math.inf, 3.0)
    scale = script_norm(traj, 1.0, math.inf, 3.0)
    assert defect < 10.0 * cfg.picard_tol * scale


def test_solver_equivariance(grid):
    # NS(u_{0,lambda}) equals the rescaled NS(u0) in coefficient space
    u0 = random_band_limited(grid, j_lo=0, j_hi=1, seed=46, amplitude=0.2)
    cfg = SolverConfig(dt=0.008, n_steps=10)
    traj, rep = picard_solve(u0, cfg)
    assert rep.classification != "picard_diverged"
    m = 1
    lam = 2.0 ** m
    from bnslab.field import scaling_transform
    u0_lam = scaling_transform(u0, m)
    cfg_lam = SolverConfig(dt=cfg.dt / lam ** 2, n_steps=cfg.n_steps,
                           picard_tol=cfg.picard_tol)
    traj_lam, rep_lam = picard_solve(u0_lam, cfg_lam)
    assert rep_lam.classification != "picard_diverged"
    ref = rescale_trajectory(traj, m)
    num = max(np.max(np.abs(traj_lam.snapshot(i).coeffs
                            - ref.snapshot(i).coeffs))
              for i in range(traj.n_times))
    den = max(np.max(np.abs(ref.snapshot(i).coeffs))
              for i in range(traj.n_times))
    assert num / den < 1e-4


def test_energy_balance(grid):
    u0 = random_band_limited(grid, j_lo=0, j_hi=2, seed=47, amplitude=0.4)
    cfg = SolverConfig(dt=0.0025, n_steps=24)
    traj, rep = picard_solve(u0, cfg)
    assert rep.classification != "picard_diverged"
    assert energy_balance_defect(traj) < 0.01


def test_monitor_heat_decays(grid):
    u0 = random_band_limited(grid, j_lo=1, j_hi=2, seed=48)
    traj = heat_trajectory(u0, np.linspace(0.0, 0.5, 17))
    rep = monitor(traj, critical_index(3.0, 3.0))
    assert rep.classification == "decaying"
    assert rep.besov_norms[-1] < rep.besov_norms[0]


@pytest.mark.parametrize("kind", ["heat", "picard"])
def test_running_script_is_script_norm_on_prefix(grid, kind):
    # the running norm in the report is the script norm on [0, t_i]
    u0 = random_band_limited(grid, j_lo=0, j_hi=2, seed=50, amplitude=0.05)
    cfg = SolverConfig(dt=0.01, n_steps=16)
    if kind == "heat":
        traj = heat_trajectory(u0, cfg.times)
    else:
        traj, _ = picard_solve(u0, cfg)
    rep = monitor(traj, critical_index(3.0, 3.0))
    assert rep.running_script[0] == 0.0
    for i in range(1, traj.n_times):
        want = script_norm(traj, 1.0, math.inf, 3.0, T=float(traj.times[i]))
        assert rep.running_script[i] == pytest.approx(want, rel=1e-13, abs=0.0)


def test_solve_reduces_to_picard(grid):
    # with no drift and no forcing, solve is picard_solve without its report
    u0 = random_band_limited(grid, j_lo=0, j_hi=2, seed=49, amplitude=0.05)
    cfg = SolverConfig(dt=0.01, n_steps=8)
    w, residuals, ok = solve(u0, cfg)
    assert ok
    traj, rep = picard_solve(u0, cfg)
    np.testing.assert_array_equal(w.coeffs, traj.coeffs)
    assert residuals == rep.picard_residuals


@pytest.mark.parametrize("k", [1, 2])
def test_solve_iterate_is_base_plus_duhamel_part(grid, k):
    # one more Picard step is e^{tD}u0 + B(w_k, w_k), to the byte, and its
    # residual is the script norm of the step relative to the base
    u0 = random_band_limited(grid, j_lo=0, j_hi=2, seed=52, amplitude=0.3)
    cfg = SolverConfig(dt=0.01, n_steps=8, picard_tol=1e-300, max_picard_iters=k)
    w_k, res_k, _ = solve(u0, cfg)
    w_next, res_next, _ = solve(u0, replace(cfg, max_picard_iters=k + 1))
    heat = heat_trajectory(u0, cfg.times)
    np.testing.assert_array_equal(w_next.coeffs, (heat + bilinear_B(w_k, w_k)).coeffs)
    assert res_next[:k] == res_k
    scale = script_norm(heat, 1.0, math.inf, 3.0)
    want = script_norm(w_next - w_k, 1.0, math.inf, 3.0) / scale
    assert res_next[k] == pytest.approx(want, rel=0.0, abs=1e-15)


@pytest.mark.parametrize("threads", [1, 2])
def test_picard_solve_holds_two_trajectories(grid, threads):
    """The traced peak of a 17-level solve stays under 2.0 trajectories: the
    base, the Duhamel parts on the dealiased box and the levels in flight
    (3.34 when the iterate and the update were full-layout trajectories)."""
    u0 = random_band_limited(grid, j_lo=0, j_hi=2, seed=49, amplitude=0.05)
    cfg = SolverConfig(dt=0.005, n_steps=16)
    set_threads(threads)
    tracemalloc.start()
    try:
        _, residuals, ok = solve(u0, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        set_threads(0)
    assert ok and len(residuals) >= 2
    trajectory = 17 * u0.coeffs.nbytes
    assert peak <= 2.0 * trajectory, peak / trajectory


def test_report_rows_format(solved_small):
    _, rep, _ = solved_small
    lines = rep.rows().splitlines()
    assert lines[0] == "t,besov_norm,running_script_norm,classification"
    assert len(lines) == len(rep.times) + 1
