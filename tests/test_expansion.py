"""Multilinear expansions, drift-operator inversion, staged iteration.

Oracles: expansion identities are algebraic consequences of the fixed
point and must hold to solver precision; K[v] is checked as the exact
inverse of the explicitly applied L[v]; the staged iteration must
preserve the decomposition identity step by step.
"""
import math

import numpy as np
import pytest

from bnslab import expansion
from bnslab.errors import InversionError
from bnslab.expansion import (OperatorHandle, apply_L, duhamel_expand,
                              expand_solution, heat_drift_defect, invert_K,
                              simple_iteration)
from bnslab.field import random_band_limited
from bnslab.grid import GridSpec
from bnslab.solver import SolverConfig, bilinear_B, heat_trajectory, picard_solve
from bnslab.spacetime import script_norm


@pytest.fixture(scope="module")
def grid():
    return GridSpec(32)


@pytest.fixture(scope="module")
def base_solution(grid):
    u0 = random_band_limited(grid, j_lo=0, j_hi=2, seed=50, amplitude=0.08)
    cfg = SolverConfig(dt=0.01, n_steps=12)
    traj, rep = picard_solve(u0, cfg)
    assert rep.classification != "picard_diverged"
    return u0, traj, cfg


def test_duhamel_expand_orders(base_solution):
    u0, traj, _ = base_solution
    r2 = duhamel_expand(traj, u0, 2)
    r3 = duhamel_expand(traj, u0, 3)
    assert r2.residual <= 1e-10
    assert r3.residual <= 1e-8
    # term norms decrease sharply at small amplitude
    assert r3.term_norms[1] < 0.1 * r3.term_norms[0]


def test_duhamel_expand_amplitude_slope(grid):
    # ||Z_N|| ~ amplitude^N: the log-log slope across a doubling is N
    cfg = SolverConfig(dt=0.01, n_steps=10)
    slopes = {}
    for N in (2, 3):
        norms = []
        for amp in (0.02, 0.04):
            u0 = random_band_limited(grid, j_lo=0, j_hi=2, seed=51, amplitude=amp)
            traj, rep = picard_solve(u0, cfg)
            assert rep.classification != "picard_diverged"
            res = duhamel_expand(traj, u0, N)
            norms.append(res.tail_norm)
        slopes[N] = math.log2(norms[1] / norms[0])
    assert abs(slopes[2] - 2.0) < 0.05
    assert abs(slopes[3] - 3.0) < 0.05


def test_duhamel_expand_guards(base_solution):
    u0, traj, _ = base_solution
    with pytest.raises(ValueError):
        duhamel_expand(traj, u0, 5)
    with pytest.raises(ValueError):
        duhamel_expand(traj, u0, 3, p=5.0)  # needs p > 6


def test_invert_K_roundtrip(grid):
    # K[v] L[v] w = w for random drifts and targets
    cfg = SolverConfig(dt=0.01, n_steps=10)
    rng_pairs = [(60 + i, 80 + i) for i in range(5)]
    for sv, sw in rng_pairs:
        v0 = random_band_limited(grid, j_lo=0, j_hi=2, seed=sv, amplitude=0.2)
        w0 = random_band_limited(grid, j_lo=0, j_hi=2, seed=sw, amplitude=0.1)
        v = heat_trajectory(v0, cfg.times)
        w = heat_trajectory(w0, cfg.times)
        handle = OperatorHandle(v)
        z = apply_L(handle, w)
        w_back = invert_K(handle, z)
        err = script_norm(w_back - w, 1.0, math.inf, 3.0)
        assert err <= 1e-8 * script_norm(w, 1.0, math.inf, 3.0)


def test_invert_K_rejects_huge_drift(grid):
    cfg = SolverConfig(dt=0.01, n_steps=8)
    v = heat_trajectory(
        random_band_limited(grid, j_lo=0, j_hi=2, seed=70, amplitude=500.0), cfg.times)
    w = heat_trajectory(
        random_band_limited(grid, j_lo=0, j_hi=2, seed=71, amplitude=0.1), cfg.times)
    handle = OperatorHandle(v)
    z = apply_L(handle, w)
    with pytest.raises(InversionError):
        invert_K(handle, z)


def test_invert_K_stops_doubling_at_single_level_slabs(grid, monkeypatch):
    # with 3 time levels, 4 slabs already hold one level each: the rounds
    # run on 1, 2 and 4 slabs, each on a new partition, and then it gives up
    cfg = SolverConfig(dt=0.01, n_steps=2)
    v = heat_trajectory(
        random_band_limited(grid, j_lo=0, j_hi=2, seed=70, amplitude=5000.0), cfg.times)
    w = heat_trajectory(
        random_band_limited(grid, j_lo=0, j_hi=2, seed=71, amplitude=0.1), cfg.times)
    handle = OperatorHandle(v)
    z = apply_L(handle, w)
    partitions = []

    def recording(nt, n_slabs, _bounds=expansion._slab_bounds):
        bounds = _bounds(nt, n_slabs)
        partitions.append(tuple(np.unique(bounds)))
        return bounds

    monkeypatch.setattr(expansion, "_slab_bounds", recording)
    with pytest.raises(InversionError, match="within 4 time slabs"):
        invert_K(handle, z)
    assert partitions == [(0, 3), (0, 1, 3), (0, 1, 2, 3)]


def test_heat_drift_defect_small(grid):
    # K[v] e^{tD}u0 solves the linear drift equation; the defect is
    # dominated by the central-difference time derivative, so check it
    # is small and shrinks at second order under dt halving
    from bnslab.spacetime import constant_trajectory
    defects = []
    for dt, n in ((0.01, 10), (0.005, 20)):
        cfg = SolverConfig(dt=dt, n_steps=n)
        v = heat_trajectory(
            random_band_limited(grid, j_lo=0, j_hi=2, seed=72,
                                amplitude=0.2), cfg.times)
        z = constant_trajectory(
            random_band_limited(grid, j_lo=0, j_hi=2, seed=73,
                                amplitude=0.1), cfg.times)
        handle = OperatorHandle(v)
        defects.append(heat_drift_defect(handle, z))
    assert defects[0] < 1e-3
    assert defects[1] < 0.6 * defects[0]


def test_expand_solution_k2(grid):
    u0 = random_band_limited(grid, j_lo=0, j_hi=2, seed=74, amplitude=0.05)
    cfg = SolverConfig(dt=0.01, n_steps=10)
    res = expand_solution(u0, 2, cfg)
    assert res.residual <= 1e-8
    assert len(res.terms) == 3
    assert all(math.isfinite(v) and v >= 0 for v in res.term_norms)
    # successive linear layers shrink fast at small amplitude
    assert res.term_norms[1] < res.term_norms[0]
    assert res.term_norms[2] < res.term_norms[1]


def test_simple_iteration_preserves_decomposition(grid):
    u0 = random_band_limited(grid, j_lo=0, j_hi=2, seed=75, amplitude=0.05)
    cfg = SolverConfig(dt=0.01, n_steps=10)
    u, rep = picard_solve(u0, cfg)
    assert rep.classification != "picard_diverged"
    v0 = heat_trajectory(u0, u.times)
    w0 = bilinear_B(u, u)
    records = simple_iteration(u0, v0, w0, 4)
    scale = script_norm(u, 1.0, math.inf, 3.0)
    # v + w stays glued to v0 + w0 while w collapses quadratically
    assert records[-1]["defect"] < 1e-6 * scale
    w_norms = [r["w_l3"] for r in records]
    assert all(b < a for a, b in zip(w_norms, w_norms[1:]))
