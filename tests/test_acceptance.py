"""Acceptance gate: one test per advertised criterion, at the stated
tolerances, at desk scale (32^3 base grid, 64^3 where dyadic headroom
is needed).

Each test is self-contained up to the session fixtures; tolerances are
stated inline next to the assertion they guard.
"""
import math

import numpy as np
import pytest

from bnslab.expansion import (OperatorHandle, apply_L, duhamel_expand,
                              expand_solution, invert_K)
from bnslab.field import (heat_flow, random_band_limited, scaling_transform)
from bnslab.grid import GridSpec
from bnslab.littlewood_paley import (besov_norm, critical_index,
                                     reconstruction_defect)
from bnslab.paraproduct import (bilinear_kato_check, bony_reconstruction_defect,
                                heat_block_decay_rates,
                                heat_characterization_norm,
                                product_estimate_check)
from bnslab.profiles import (ProfileSet, ScaleCore, extract_profiles, pythagorean_gap,
                             synthesize)
from bnslab.solver import (SolverConfig, bilinear_B, energy_balance_defect,
                           heat_trajectory, picard_solve)
from bnslab.spacetime import rescale_trajectory, script_norm

# amplitude at which the Picard iteration is comfortably contractive on
# the desk-scale grid; recalibrate with scripts/calibrate_c0.py
C0 = 0.05


# -- 1. block reconstruction ---------------------------------------------------

def test_criterion_01_littlewood_paley_reconstruction(grid32):
    for seed in range(50):
        u = random_band_limited(grid32, j_lo=0, j_hi=2, seed=seed)
        defect = reconstruction_defect(u)
        assert defect <= 1e-10


# -- 2. criticality --------------------------------------------------------------

def test_criterion_02_critical_norm_scaling_invariance(grid32):
    u = random_band_limited(grid32, j_lo=0, j_hi=2, seed=3)
    for p, q in ((3.0, 3.0), (3.0, math.inf), (6.0, 6.0)):
        idx = critical_index(p, q)
        base = besov_norm(u, idx)
        for m in (1, 2):  # lambda = 2, 4
            v = scaling_transform(u, m)
            assert abs(besov_norm(v, idx) / base - 1.0) <= 1e-6


# -- 3. heat characterization ----------------------------------------------------

def test_criterion_03_heat_characterization_equivalence(grid32, grid64):
    idx = critical_index(6.0, math.inf)

    def ratios(grid, n):
        out = []
        for seed in range(n):
            u = random_band_limited(grid, j_lo=0, j_hi=2, seed=500 + seed)
            out.append(heat_characterization_norm(u, idx) / besov_norm(u, idx))
        return out

    r32 = ratios(grid32, 8)
    # one recorded constant <= 10 covers the whole corpus both ways
    assert max(r32) / min(r32) <= 10.0
    assert all(0.1 <= r <= 10.0 for r in r32)
    # stability under resolution doubling: the recorded constant moves
    # by less than 20%
    r64 = ratios(grid64, 4)
    assert abs(np.mean(r64) / np.mean(r32) - 1.0) <= 0.2


# -- 4. per-block heat decay ------------------------------------------------------

def test_criterion_04_heat_block_decay_rates(grid32):
    u = random_band_limited(grid32, j_lo=0, j_hi=2, seed=9)
    rates = heat_block_decay_rates(u)
    assert rates, "no populated shells"
    for j, fitted, ref in rates:
        assert 0.5 * ref <= fitted <= 2.0 * ref


# -- 5. small-data Picard ---------------------------------------------------------

def test_criterion_05_small_data_picard(grid32):
    u0 = random_band_limited(grid32, j_lo=0, j_hi=2, seed=7, amplitude=C0)
    cfg = SolverConfig(dt=0.01, n_steps=16, picard_tol=1e-8)
    traj, rep = picard_solve(u0, cfg)
    assert rep.classification == "decaying"
    assert len(rep.picard_residuals) <= 20
    assert rep.picard_residuals[-1] <= 1e-8
    idx = critical_index(3.0, 3.0)
    assert besov_norm(traj.snapshot(-1), idx) < besov_norm(traj.snapshot(0), idx)
    # quadratic contraction while the update is far from the tolerance
    # floor: slope of log-residual across the leading pair
    lr = np.log(rep.picard_residuals[:2])
    assert lr[1] / lr[0] >= 1.8


# -- 6. solver equivariance --------------------------------------------------------

def test_criterion_06_solver_equivariance(grid32):
    u0 = random_band_limited(grid32, j_lo=0, j_hi=1, seed=46, amplitude=0.2)
    cfg = SolverConfig(dt=0.008, n_steps=10)
    traj, rep = picard_solve(u0, cfg)
    assert rep.classification != "picard_diverged"
    m = 1
    cfg_lam = SolverConfig(dt=cfg.dt / 4.0, n_steps=cfg.n_steps,
                           picard_tol=cfg.picard_tol)
    traj_lam, rep_lam = picard_solve(scaling_transform(u0, m), cfg_lam)
    assert rep_lam.classification != "picard_diverged"
    ref = rescale_trajectory(traj, m)
    num = max(np.max(np.abs(traj_lam.snapshot(i).coeffs - ref.snapshot(i).coeffs))
              for i in range(traj.n_times))
    den = max(np.max(np.abs(ref.snapshot(i).coeffs))
              for i in range(traj.n_times))
    assert num / den <= 1e-4


# -- 7. expansion identities --------------------------------------------------------

def test_criterion_07_duhamel_expansion_residuals(solved_small):
    traj, _, _ = solved_small
    u0 = traj.snapshot(0)
    assert duhamel_expand(traj, u0, 2).residual <= 1e-10
    assert duhamel_expand(traj, u0, 3).residual <= 1e-8


def test_criterion_07_tail_amplitude_slope(grid32):
    cfg = SolverConfig(dt=0.01, n_steps=10)
    for N in (2, 3):
        norms = []
        for amp in (0.02, 0.04):
            u0 = random_band_limited(grid32, j_lo=0, j_hi=2, seed=51,
                                     amplitude=amp)
            traj, rep = picard_solve(u0, cfg)
            assert rep.classification != "picard_diverged"
            norms.append(duhamel_expand(traj, u0, N).tail_norm)
        slope = math.log2(norms[1] / norms[0])
        assert abs(slope - N) <= 0.05


# -- 8. operator inversion -----------------------------------------------------------

def test_criterion_08_drift_inversion_roundtrip(grid32):
    cfg = SolverConfig(dt=0.01, n_steps=10)
    rng = np.random.default_rng(88)
    for i in range(20):
        amp = float(rng.uniform(0.5, 4.0)) * C0  # up to 4 x c0
        v0 = random_band_limited(grid32, j_lo=0, j_hi=2, seed=600 + i,
                                 amplitude=amp)
        w0 = random_band_limited(grid32, j_lo=0, j_hi=2, seed=700 + i,
                                 amplitude=0.1)
        handle = OperatorHandle(heat_trajectory(v0, cfg.times))
        w = heat_trajectory(w0, cfg.times)
        back = invert_K(handle, apply_L(handle, w))
        err = script_norm(back - w, 1.0, math.inf, 3.0)
        assert err <= 1e-8 * script_norm(w, 1.0, math.inf, 3.0)


# -- 9. staged linear/quadratic decomposition -----------------------------------------

def test_criterion_09_staged_decomposition_k2(grid32):
    # k = 2 works at integrability p = 10 = 3 * 2^k - 2
    u0 = random_band_limited(grid32, j_lo=0, j_hi=2, seed=74, amplitude=C0)
    cfg = SolverConfig(dt=0.01, n_steps=10)
    res = expand_solution(u0, 2, cfg)
    assert res.residual <= 1e-8
    assert len(res.terms) == 3
    assert len(res.term_norms) == 3
    assert all(math.isfinite(v) for v in res.term_norms)
    assert math.isfinite(res.tail_norm)


# -- 10. profile Pythagorean identity --------------------------------------------------

def test_criterion_10_pythagorean_gap_sweep(grid64):
    # two planted profiles pushed apart by a scale/translation sweep;
    # the defect is nonincreasing and ends below 5% of the total
    phi1 = random_band_limited(grid64, j_lo=0, j_hi=1, seed=25, amplitude=1.0)
    phi2 = random_band_limited(grid64, j_lo=0, j_hi=0, seed=26, amplitude=0.7)
    idx = critical_index(3.0, 3.0)
    cases = [(-1, 4), (-2, 12), (-3, 8), (-3, 28)]
    eps = []
    final_norm = None
    for m, sep in cases:
        ps = ProfileSet(
            profiles=[phi1, phi2],
            schedules=[[ScaleCore(0, (0, 0, 0))], [ScaleCore(m, (sep, sep, sep))]],
            remainders=[None],
        )
        f = synthesize(ps, 0, p=idx.p)
        eps.append(pythagorean_gap(ps, 0, idx))
        final_norm = besov_norm(f, idx) ** idx.p
    assert all(b <= a + 1e-12 for a, b in zip(eps, eps[1:]))
    assert eps[-1] <= 0.05 * final_norm


# -- 11. evolved decomposition ----------------------------------------------------------

def test_criterion_11_evolved_decomposition_remainder_decreases(criterion_11_run):
    records, _, _ = criterion_11_run  # evolve_decomposition on conftest's profile set
    assert [out["n"] for out in records] == [0, 1, 2, 3]
    assert not any(out["diverged"] for out in records)
    rs = [out["r_norm"] for out in records]
    assert all(b < a for a, b in zip(rs, rs[1:]))


# -- 12. extraction round-trip -----------------------------------------------------------

def test_criterion_12_extraction_roundtrip(grid64):
    idx = critical_index(3.0, 3.0)
    phi1 = random_band_limited(grid64, j_lo=1, j_hi=1, seed=21, amplitude=1.0)
    phi2 = random_band_limited(grid64, j_lo=0, j_hi=0, seed=22, amplitude=0.7)
    ms = (-1, -1, -2, -2, -3, -3)
    seps = (3, 5, 7, 9, 11, 13)
    n_seq = len(ms)
    scheds2 = [ScaleCore(m, (s, s, s)) for m, s in zip(ms, seps)]
    ps = ProfileSet(
        profiles=[phi1, phi2],
        schedules=[[ScaleCore(0, (0, 0, 0))] * n_seq, scheds2],
        remainders=[None] * n_seq,
    )
    seq = [synthesize(ps, n, 2, p=3.0) for n in range(n_seq)]
    rec = extract_profiles(seq, j_max=3, threshold=0.01)
    assert rec.n_profiles() == 2
    planted = sorted([besov_norm(phi1, idx), besov_norm(phi2, idx)],
                     reverse=True)
    for j in range(2):
        recovered = besov_norm(rec.profiles[j], idx)
        assert abs(recovered - planted[j]) <= 0.05 * planted[j]


def test_criterion_12_no_spurious_profiles(grid64):
    psi = random_band_limited(grid64, j_lo=3, j_hi=3, seed=33, amplitude=0.02)
    rec = extract_profiles([psi] * 6, j_max=3, threshold=0.05)
    assert rec.n_profiles() == 0


# -- 13. paraproducts and estimate stability ----------------------------------------------

def test_criterion_13_bony_reconstruction(grid32):
    for seed in range(10):
        f = random_band_limited(grid32, j_lo=0, j_hi=2, seed=800 + seed)
        g = random_band_limited(grid32, j_lo=0, j_hi=2, seed=900 + seed)
        assert bony_reconstruction_defect(f, g) <= 1e-10


def test_criterion_13_product_constants_resolution_stable(grid32, grid64):
    def constants(grid):
        f = random_band_limited(grid, j_lo=0, j_hi=2, seed=88)
        g = random_band_limited(grid, j_lo=0, j_hi=2, seed=89)
        rep = product_estimate_check(f, g, s1=-0.5, t1=1.0, p=4.0, p2=4.0)
        return rep["t_constant"], rep["r_constant"]

    t32, r32 = constants(grid32)
    t64, r64 = constants(grid64)
    assert abs(t64 / t32 - 1.0) <= 0.2
    assert abs(r64 / r32 - 1.0) <= 0.2


def test_criterion_13_bilinear_kato_dt_stable(grid32):
    u0 = random_band_limited(grid32, j_lo=0, j_hi=2, seed=93, amplitude=0.5)
    v0 = random_band_limited(grid32, j_lo=0, j_hi=2, seed=94, amplitude=0.5)

    def constant(n_steps):
        times = np.linspace(0.0, 0.2, n_steps + 1)
        f = heat_trajectory(u0, times)
        g = heat_trajectory(v0, times)
        return bilinear_kato_check(f, g, p=6.0, q=6.0, r=6.0)["constant"]

    c1 = constant(32)
    c2 = constant(64)
    assert abs(c2 / c1 - 1.0) <= 0.1


# -- 14. energy identity ---------------------------------------------------------------------

def test_criterion_14_energy_balance(grid32):
    u0 = random_band_limited(grid32, j_lo=0, j_hi=2, seed=47, amplitude=0.4)
    cfg = SolverConfig(dt=0.0025, n_steps=24)
    traj, rep = picard_solve(u0, cfg)
    assert rep.classification != "picard_diverged"
    # L^2 balance per step within 1%
    assert energy_balance_defect(traj) <= 0.01
