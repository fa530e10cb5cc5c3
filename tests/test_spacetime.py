"""Space-time norms: time-inside and time-outside families, Kato norms.

Oracles: constant-in-time trajectories reduce every family to a closed
form in the spatial norm and the window length; single-mode heat
trajectories give exact exponential time profiles, integrable by hand.
"""
import math

import numpy as np
import pytest
import scipy.fft

from bnslab import spacetime
from bnslab.field import Trajectory, _real_physical, lp_norm, random_band_limited, single_mode
from bnslab.grid import GridSpec
from bnslab.littlewood_paley import (BesovIndex, besov_from_blocks, besov_norm,
                                     critical_index)
from bnslab.solver import heat_trajectory
from bnslab.spacetime import (chemin_lerner_norm, constant_trajectory,
                              embedding_chain_check, kato_interpolation_constant,
                              kato_norm, lebesgue_besov_norm, rescale_trajectory,
                              script_norm)


@pytest.fixture(scope="module")
def grid():
    return GridSpec(32)


@pytest.fixture(scope="module")
def const_traj(grid):
    u = random_band_limited(grid, j_lo=0, j_hi=2, seed=30)
    times = np.linspace(0.0, 1.0, 11)
    return u, constant_trajectory(u, times)


def test_constant_trajectory_chemin_lerner_oracle(const_traj):
    # time-inside L^rho of a constant is T^{1/rho} times the snapshot value
    u, traj = const_traj
    idx = critical_index(3.0, 3.0)
    T = traj.t_final
    for rho in (1.0, 2.0, math.inf):
        w = 1.0 if math.isinf(rho) else T ** (1.0 / rho)
        expected = w * besov_norm(u, idx)
        assert chemin_lerner_norm(traj, idx, rho) == pytest.approx(
            expected, rel=1e-10)
        assert lebesgue_besov_norm(traj, idx, rho) == pytest.approx(
            expected, rel=1e-10)


def test_minkowski_between_families(grid):
    # time-inside <= time-outside at rho <= q; reversed at rho >= q
    u0 = random_band_limited(grid, j_lo=0, j_hi=2, seed=31)
    traj = heat_trajectory(u0, np.linspace(0.0, 0.2, 9))
    idx = critical_index(3.0, 3.0)
    slack = 1e-12
    assert chemin_lerner_norm(traj, idx, 1.0) <= (
        lebesgue_besov_norm(traj, idx, 1.0) * (1 + slack))
    assert lebesgue_besov_norm(traj, idx, math.inf) <= (
        chemin_lerner_norm(traj, idx, math.inf) * (1 + slack))


def test_kato_norm_heat_single_mode(grid):
    # e^{tD}u0 for a single mode decays like e^{-k^2 t}; the weighted sup
    # t^{(1-3/q)/2} e^{-k^2 t} ||u0||_q maximizes at t* = (1-3/q)/(2 k^2)
    u0 = single_mode(grid, (2, 0, 0))
    q = 6.0
    k2 = 4.0
    alpha = 0.5 * (1.0 - 3.0 / q)
    times = np.linspace(0.0, 1.0, 201)
    traj = heat_trajectory(u0, times)
    expected = max(t ** alpha * math.exp(-k2 * t) for t in times) * u0.lp(q)
    assert kato_norm(traj, q) == pytest.approx(expected, rel=1e-10)


def test_kato_requires_supercritical(grid):
    u0 = single_mode(grid, (1, 0, 0))
    traj = heat_trajectory(u0, np.linspace(0.0, 0.1, 5))
    with pytest.raises(ValueError):
        kato_norm(traj, 2.0)


def test_script_norm_endpoint_matches_chemin_lerner(grid):
    # the (1, inf) script family at a = 1, b = inf is the same object as
    # the time-inside norm pair it interpolates
    u0 = random_band_limited(grid, j_lo=0, j_hi=2, seed=33)
    traj = heat_trajectory(u0, np.linspace(0.0, 0.1, 9))
    v = script_norm(traj, 1.0, math.inf, 3.0)
    assert v > 0.0
    assert math.isfinite(v)


def test_embedding_chain(grid):
    u0 = random_band_limited(grid, j_lo=0, j_hi=2, seed=35)
    traj = heat_trajectory(u0, np.linspace(0.0, 0.5, 17))
    out = embedding_chain_check(traj, 2.0, 3.0, math.inf,
                                critical_index(3.0, 3.0))
    assert out["ok"]


def test_kato_interpolation_constant_bounded(grid):
    u0 = random_band_limited(grid, j_lo=0, j_hi=2, seed=36)
    traj = heat_trajectory(u0, np.linspace(0.0, 0.5, 33))
    c = kato_interpolation_constant(traj, 6.0)
    assert 0.0 < c < 10.0


def test_chain_and_interpolation_read_one_block_matrix(grid, monkeypatch):
    calls = []

    def counting(traj, p, _matrix=spacetime.block_norm_matrix):
        calls.append(p)
        return _matrix(traj, p)

    monkeypatch.setattr(spacetime, "block_norm_matrix", counting)
    u0 = random_band_limited(grid, j_lo=0, j_hi=2, seed=35)
    traj = heat_trajectory(u0, np.linspace(0.0, 0.25, 5))
    embedding_chain_check(traj, 1.0, 5.0, math.inf, critical_index(3.0, 5.0))
    assert calls == [3.0]
    calls.clear()
    kato_interpolation_constant(traj, 6.0)
    assert calls == [6.0]


@pytest.fixture(scope="module")
def heat_traj(grid):
    u0 = random_band_limited(grid, j_lo=0, j_hi=2, seed=38)
    return heat_trajectory(u0, np.linspace(0.0, 0.4, 9))


@pytest.mark.parametrize("lo, hi", [(3, 9), (0, 1)], ids=["from_t3", "one_level"])
def test_norms_take_the_trajectory_they_are_given(heat_traj, lo, hi):
    # a trajectory that starts after t = 0, or holds one level, is its own
    # time window: each norm is the one built from its block-norm matrix
    traj = Trajectory(heat_traj.grid, heat_traj.times[lo:hi], heat_traj.coeffs[lo:hi])
    idx = critical_index(3.0, 3.0)
    mat = spacetime.block_norm_matrix(traj, idx.p)

    def cl(rho, ix=idx):
        return besov_from_blocks(spacetime._time_norms(mat, traj.times, rho)[-1],
                                 traj.grid, ix)

    def leb(rho):
        besov = besov_from_blocks(mat, traj.grid, idx)
        return float(spacetime._time_norms(besov, traj.times, rho)[-1])

    for rho in (1.0, 2.0, math.inf):
        assert chemin_lerner_norm(traj, idx, rho) == cl(rho)
        assert lebesgue_besov_norm(traj, idx, rho) == leb(rho)
    assert script_norm(traj, 1.0, math.inf, 3.0) == max(
        cl(1.0, BesovIndex(idx.s + 2.0, 3.0, 3.0)), cl(math.inf))
    chain = embedding_chain_check(traj, 2.0, 3.0, math.inf, idx)
    assert (chain["lebesgue_rho1"], chain["chemin_lerner_rho1"],
            chain["chemin_lerner_rho2"], chain["lebesgue_rho2"]) == (
        leb(2.0), cl(2.0), cl(math.inf), leb(math.inf))
    assert chain["holder_factor"] == (traj.t_final - heat_traj.times[lo]) ** 0.5
    assert chain["ok"]


def test_kato_norm_ignores_the_level_at_t0(heat_traj, grid):
    # the Kato sup runs over t > 0 only, so the datum's level never enters
    coeffs = heat_traj.coeffs.copy()
    coeffs[0] = random_band_limited(grid, j_lo=0, j_hi=2, seed=39).coeffs
    other = Trajectory(grid, heat_traj.times, coeffs)
    for order in (0, 1):
        assert kato_norm(other, 6.0, order=order) == kato_norm(heat_traj, 6.0, order=order)


def test_kato_norm_prunes_its_inverses(monkeypatch):
    # each level's L^q norm reads physical(), whose inverse skips the lines
    # the level leaves empty: on the 16 positive-time levels of a j <= 2
    # heat trajectory at 64^3 its passes run over 8,727,552 points (an
    # irfftn's input counted as padded to `s`, N/2 + 1 planes on its real
    # axis) against 19,464,192 for the plain irfftn of each level (three
    # passes over 405,504 points), whose samples differ at most in the sign
    # of a zero, so the norm keeps its bytes
    grid = GridSpec(64)
    traj = heat_trajectory(random_band_limited(grid, j_lo=0, j_hi=2, seed=12),
                           np.linspace(0.0, 0.25, 17))
    points = []

    def counted(fft):
        def transform(x, *args, **kwargs):
            shape, axes, s = list(x.shape), kwargs["axes"], kwargs.get("s")
            if s is not None:  # only irfftn takes s here
                for a, length in zip(axes, s):
                    shape[a] = length
                shape[axes[-1]] = s[-1] // 2 + 1
            points.append(math.prod(shape) * len(axes))
            return fft(x, *args, **kwargs)
        return transform
    for name in ("irfftn", "ifftn"):
        monkeypatch.setattr(scipy.fft, name, counted(getattr(scipy.fft, name)))
    value = kato_norm(traj, 4.0)
    monkeypatch.undo()
    assert sum(points) == 8_727_552
    plain = np.array([lp_norm(_real_physical(c, 64), grid, 4.0) for c in traj.coeffs[1:]])
    assert value == spacetime._kato_sup(traj.times[1:], plain, 4.0, 0)


@pytest.mark.parametrize("p", [3.0, 10.0, 46.0, 94.0])
@pytest.mark.parametrize("c", [1e-12, 1.0, 1e4])
def test_script_norm_is_homogeneous_at_large_p(grid, c, p):
    # the block norms, the shell sum and the L^p time integral (r = p)
    # neither underflow nor overflow
    u0 = random_band_limited(grid, j_lo=0, j_hi=2, seed=1)
    traj = heat_trajectory(u0, np.linspace(0.0, 0.1, 5))
    assert script_norm(c * traj, 1.0, p, p) == pytest.approx(
        c * script_norm(traj, 1.0, p, p), rel=1e-13, abs=0.0)


def test_rescale_trajectory_invariance(grid):
    # the parabolic rescaling preserves the critical time-outside norm
    u0 = random_band_limited(grid, j_lo=0, j_hi=1, seed=37)
    traj = heat_trajectory(u0, np.linspace(0.0, 0.4, 17))
    idx = critical_index(3.0, 3.0)
    r = rescale_trajectory(traj, 1)
    a = lebesgue_besov_norm(traj, idx, math.inf)
    b = lebesgue_besov_norm(r, idx, math.inf)
    assert b == pytest.approx(a, rel=1e-6)
