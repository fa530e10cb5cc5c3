"""Mild-solution machinery: heat trajectories, B, Picard, equivariance.

Oracles: heat trajectories against the exact symbol; the Duhamel
bilinear term against a fine-grid quadrature of the exact integrand on
a single low mode; equivariance against the exact rescaling of a
converged solution; energy balance against the L^2 identity.
"""
import math

import numpy as np
import pytest

from bnslab.field import (SpectralField, dealias, heat_flow, random_band_limited,
                          single_mode)
from bnslab.grid import GridSpec
from bnslab.littlewood_paley import besov_norm, critical_index
from bnslab.solver import (SolverConfig, bilinear_B, energy_balance_defect,
                           heat_trajectory, monitor, nonlinear_term,
                           picard_solve, solve_perturbed)
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
    f = SpectralField(grid, nonlinear_term(traj, traj)[0])
    inner = np.sum(np.conj(ud.coeffs) * f.coeffs).real * grid.period ** 3
    assert abs(inner) < 1e-10 * max(ud.l2() * f.l2(), 1.0)


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


def test_solve_perturbed_reduces_to_picard(grid):
    # with no drift and no forcing, the perturbed solver is plain Picard
    u0 = random_band_limited(grid, j_lo=0, j_hi=2, seed=49, amplitude=0.05)
    cfg = SolverConfig(dt=0.01, n_steps=8)
    w, ok = solve_perturbed(u0, cfg)
    assert ok
    traj, _ = picard_solve(u0, cfg)
    defect = script_norm(w - traj, 1.0, math.inf, 3.0)
    assert defect < 1e-6 * script_norm(traj, 1.0, math.inf, 3.0)


def test_report_rows_format(solved_small):
    _, rep, _ = solved_small
    lines = rep.rows().splitlines()
    assert lines[0] == "t,besov_norm,running_script_norm,classification"
    assert len(lines) == len(rep.times) + 1
