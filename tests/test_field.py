"""Spectral fields: norms, projections, heat flow, scalings.

Oracles: L^p norms against direct quadrature of closed-form fields;
the Leray projector against the hand-written per-mode formula; heat
flow against the exact symbol on a single mode; the scaling operators
against index bookkeeping on single modes.
"""
import math
import operator
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bnslab.errors import GridError, ResolutionError
from bnslab.field import (SpectralField, _lattice_box, dyadic_shift, from_physical,
                          heat_flow, leray_project, lp_norm,
                          random_band_limited, scaling_transform, shell_bump,
                          single_mode, taylor_green_like, zero_field)
from bnslab.grid import GridSpec, wavevectors
from bnslab.spacetime import constant_trajectory


@pytest.fixture(scope="module")
def grid():
    return GridSpec(32)


# -- norms --------------------------------------------------------------------

def test_lp_norm_constant_field(grid):
    phys = np.full((3,) + (grid.n_points,) * 3, 2.0)
    # ||(2,2,2)||_p = 2 sqrt(3) * vol^{1/p}
    for p in (2.0, 3.0, 6.0):
        expected = 2.0 * math.sqrt(3.0) * grid.period ** (3.0 / p)
        assert lp_norm(phys, grid, p) == pytest.approx(expected, rel=1e-12)


def test_lp_norm_large_integer_p(grid):
    """An integer p above 8 takes one real power, not p/2 array products,
    so its cost does not grow with p."""
    phys = random_band_limited(grid, j_lo=0, j_hi=2, seed=2).physical()
    mag = np.sqrt(np.sum(phys * phys, axis=0))
    for p in (9.0, 100.0):
        expected = float((np.sum(mag**p) * grid.cell_volume) ** (1.0 / p))
        assert lp_norm(phys, grid, p) == pytest.approx(expected, rel=1e-13)
    start = time.perf_counter()
    lp_norm(phys, grid, 1e7)  # by products: 5e6 passes over the array
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("p", [3.0, 10.0, 46.0, 94.0])
@pytest.mark.parametrize("c", [1e-12, 1.0, 1e4])
def test_lp_norm_is_homogeneous_at_large_p(grid, c, p):
    # |u|^p leaves the float range at these c and p; the norm must not
    phys = random_band_limited(grid, j_lo=0, j_hi=2, seed=1).physical()
    assert lp_norm(c * phys, grid, p) == pytest.approx(
        c * lp_norm(phys, grid, p), rel=1e-13, abs=0.0)


def test_l2_parseval(grid):
    u = random_band_limited(grid, j_lo=0, j_hi=2, seed=1)
    phys = u.physical()
    direct = lp_norm(phys, grid, 2.0)
    # Parseval with the forward-normalized transform
    parseval = math.sqrt(np.sum(np.abs(u.coeffs) ** 2) * grid.period ** 3)
    assert direct == pytest.approx(parseval, rel=1e-12)


def test_lp_cosine_oracle(grid):
    # u = (cos x, 0, 0): ||u||_p^p = (2 pi)^2 * int_0^{2 pi} |cos|^p
    # the constructor plants the mode and its conjugate at unit weight,
    # so the physical field is 2 cos x in the first component
    u = single_mode(grid, (1, 0, 0))
    x = np.linspace(0.0, grid.period, 20001)
    for p in (3.0, 4.0):
        ref = (grid.period ** 2 * np.trapezoid(np.abs(2.0 * np.cos(x)) ** p, x)) ** (1 / p)
        # rectangle rule on 32 points vs continuum: |cos|^p has limited
        # smoothness at the zeros for odd p
        assert u.lp(p) == pytest.approx(ref, rel=1e-4)


# -- structure ----------------------------------------------------------------

def test_random_field_is_real_and_divergence_free(grid):
    u = random_band_limited(grid, j_lo=0, j_hi=2, seed=3)
    assert u.hermitian_defect() < 1e-13
    assert u.divergence_defect() < 1e-12
    assert np.max(np.abs(u.coeffs[:, 0, 0, 0])) == 0.0  # mean zero


def test_leray_projector_oracle(grid):
    rng = np.random.default_rng(5)
    raw = rng.standard_normal((3,) + (grid.n_points,) * 3)
    u = from_physical(grid, raw)
    pu = leray_project(u)
    kv = wavevectors(grid)
    k2 = np.sum(kv * kv, axis=0)
    k2safe = np.where(k2 == 0, 1.0, k2)
    dot = np.sum(kv * u.coeffs, axis=0) / k2safe
    expected = u.coeffs - kv * dot[None]
    expected[:, 0, 0, 0] = 0.0
    expected[:, np.any(kv == -(grid.n_points // 2), axis=0)] = 0.0  # Nyquist modes
    assert np.max(np.abs(pu.coeffs - expected)) < 1e-13
    assert pu.divergence_defect() < 1e-10


def test_leray_idempotent(grid):
    u = from_physical(grid, np.random.default_rng(6).standard_normal(
        (3,) + (grid.n_points,) * 3))
    once = leray_project(u)
    twice = leray_project(once)
    assert (twice - once).l2() <= 1e-13 * max(once.l2(), 1.0)


def test_taylor_green_like_structure(grid):
    u = taylor_green_like(grid, amplitude=1.5)
    assert u.divergence_defect() < 1e-12
    assert u.hermitian_defect() < 1e-13
    assert u.l2() > 0


# -- heat flow ----------------------------------------------------------------

@pytest.mark.parametrize("j_lo, j_hi", [(3, 1), (5, 9)], ids=["reversed", "above_grid"])
def test_random_band_limited_rejects_an_empty_band(grid, j_lo, j_hi):
    # a reversed band, and one above every mode of the 32^3 grid, select no
    # mode: an all-zero field would measure nothing
    with pytest.raises(GridError):
        random_band_limited(grid, seed=0, j_lo=j_lo, j_hi=j_hi)


def test_shell_bump_rejects_an_empty_shell(grid):
    with pytest.raises(GridError):
        shell_bump(grid, j=10)


def test_taylor_green_like_rejects_a_shell_at_nyquist(grid):
    # at j = 4 every mode sits at |n_i| = 16, the Nyquist wavenumber of the
    # 32^3 grid, which the Leray projection empties
    assert taylor_green_like(grid, j=3).l2() == pytest.approx(1.0)
    with pytest.raises(GridError):
        taylor_green_like(grid, j=4)


def test_heat_flow_single_mode_oracle(grid):
    u = single_mode(grid, (2, 1, 0))
    t = 0.07
    k2 = 2.0 ** 2 + 1.0 ** 2  # physical wavenumber squared at period 2 pi
    v = heat_flow(u, t)
    assert v.l2() == pytest.approx(math.exp(-k2 * t) * u.l2(), rel=1e-12)


def test_heat_flow_semigroup(grid):
    u = random_band_limited(grid, j_lo=0, j_hi=2, seed=9)
    a = heat_flow(heat_flow(u, 0.01), 0.02)
    b = heat_flow(u, 0.03)
    assert (a - b).l2() < 1e-13 * u.l2()


# -- scalings -----------------------------------------------------------------

def test_scaling_transform_moves_modes(grid):
    u = single_mode(grid, (1, 0, 0))
    v = scaling_transform(u, 1)  # lambda = 2: halves the period
    assert v.grid.period == pytest.approx(grid.period / 2.0)


def test_dyadic_shift_single_mode(grid):
    u = single_mode(grid, (1, 2, 0))
    v = dyadic_shift(u, 1)
    w = single_mode(grid, (2, 4, 0))
    assert (v - w).l2() < 1e-13


def test_dyadic_shift_rejects_unresolvable(grid):
    u = shell_bump(grid, grid.j_max)
    with pytest.raises(ResolutionError):
        dyadic_shift(u, 3)


def test_dyadic_shift_nyquist_guard(grid):
    # an axis mode at n/4 doubles to the shared Nyquist slot and must drop
    half = grid.n_points // 2
    u = single_mode(grid, (half // 2, 0, 0))
    v = dyadic_shift(u, 1, strict=False)
    assert v.l2() == 0.0
    with pytest.raises(ResolutionError):
        dyadic_shift(u, 1)


@pytest.mark.parametrize("m", [5, -5, 63, -63, 64, -64, 65, -65])
def test_dyadic_lattice_exact_for_every_m(grid, m):
    # the kept rows and their targets match Python's unbounded integers, and
    # a populated mode that leaves the lattice raises, however large |m| is
    n = grid.n_points
    idx = [int(i) for i in np.fft.fftfreq(n, 1.0 / n)]
    ok = [abs(i * 2**m) < n // 2 if m > 0 else i % 2**-m == 0 for i in idx]
    keep = [j for j in range(n) if ok[j]]
    tgt = [(idx[j] * 2**m if m > 0 else idx[j] // 2**-m) % n for j in keep]
    kept, _, to = _lattice_box((np.arange(n),) * 3, np.zeros((n, n, n)), n, m)
    assert (kept[0].tolist(), to[0].tolist()) == (keep, tgt)
    u = single_mode(grid, (2, 0, 0))
    with pytest.raises(ResolutionError):
        dyadic_shift(u, m)
    assert dyadic_shift(u, m, strict=False).l2() == 0.0


@given(m=st.integers(min_value=-2, max_value=1))
@settings(max_examples=8, deadline=None)
def test_dyadic_shift_l2_amplitude(m):
    grid = GridSpec(32)
    u = random_band_limited(grid, j_lo=1, j_hi=1, seed=21)
    try:
        v = dyadic_shift(u, m)
    except ResolutionError:
        return
    # pure index shift preserves coefficient mass
    assert v.l2() == pytest.approx(u.l2(), rel=1e-12)


def test_zero_field(grid):
    z = zero_field(grid)
    assert z.l2() == 0.0
    u = random_band_limited(grid, j_lo=0, j_hi=1, seed=2)
    assert ((u + z) - u).l2() == 0.0


def test_arithmetic_grid_mismatch(grid):
    u, v = zero_field(grid), zero_field(GridSpec(64))
    times = [0.0, 0.1]
    traj = constant_trajectory(u, times)
    pairs = [(u, v), (traj, constant_trajectory(v, times)), (u, traj), (traj, u)]
    for a, b in pairs:
        for op in (operator.add, operator.sub):
            with pytest.raises(GridError):
                op(a, b)
    with pytest.raises(ValueError, match="time grids"):
        traj + constant_trajectory(u, [0.0, 0.2])
