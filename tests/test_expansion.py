"""Multilinear expansions, drift-operator inversion, staged iteration.

Oracles: expansion identities are algebraic consequences of the fixed
point and must hold to solver precision; K[v] is checked as the exact
inverse of the explicitly applied L[v]; the staged iteration must
preserve the decomposition identity step by step.
"""
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from bnslab import expansion, solver
from bnslab.errors import InversionError
from bnslab.expansion import (OperatorHandle, apply_L, duhamel_expand,
                              expand_solution, heat_drift_defect, invert_K,
                              simple_iteration)
from bnslab.field import random_band_limited, set_threads
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


def test_expand_solution_k4_residual_is_measured(grid):
    # k = 4 is p = 46: the residual's p-th power sums must not underflow to
    # an exact 0 (criterion 09's datum)
    u0 = random_band_limited(grid, j_lo=0, j_hi=2, seed=74, amplitude=0.05)
    res = expand_solution(u0, 4, SolverConfig(dt=0.01, n_steps=10))
    assert 0.0 < res.residual < 1e-8


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


def test_duhamel_expand_makes_the_order_4_tail_once(base_solution, monkeypatch):
    # B(q, q) enters the N = 4 tail twice but is made once: 7 applications
    # of B (8 when it was made twice), and the tail's bytes are the sum of
    # the written-out terms
    u0, traj, _ = base_solution
    calls = []
    monkeypatch.setattr(expansion, "bilinear_B", lambda u, v: calls.append(1) or bilinear_B(u, v))
    tail = duhamel_expand(traj, u0, 4).tail
    assert len(calls) == 7
    u_lin, q = heat_trajectory(u0, traj.times), bilinear_B(traj, traj)
    expected = (4.0 * bilinear_B(u_lin, bilinear_B(u_lin, q))
                + 2.0 * bilinear_B(u_lin, bilinear_B(q, q))
                + bilinear_B(q, q))
    assert tail.coeffs.tobytes() == expected.coeffs.tobytes()


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


def _count_nonlinear_terms(monkeypatch) -> list:
    """Record the calls of `solver.nonlinear_term`, one entry per call holding
    the time levels of its first argument: every application of B, on the
    box or in the full layout, makes exactly one."""
    calls = []

    def counting(u, *args, _fn=solver.nonlinear_term, **kwargs):
        calls.append(u.n_times)
        return _fn(u, *args, **kwargs)

    monkeypatch.setattr(solver, "nonlinear_term", counting)
    return calls


def _full_layout_invert_K(handle, z):
    """The K[v] fixed point with the iterate, each update and the check of
    L[v]w = z held as full-layout trajectories: the reference `invert_K`
    must reproduce, with the same slabs, tolerances and verdicts."""
    v, nt = handle.drift, z.n_times
    scale = max(float(np.max(np.abs(z.coeffs))), 1e-300)
    n_slabs = 1
    while True:
        w = replace(z, coeffs=z.coeffs.copy())
        bounds = expansion._slab_bounds(nt, n_slabs)
        ok = True
        for s in range(n_slabs):
            lo, hi = bounds[s], bounds[s + 1]
            if hi <= lo:
                continue
            deltas = []
            for _ in range(expansion._INVERSION_ITERS):
                w_full = z + 2.0 * bilinear_B(v, w)
                delta = float(np.max(np.abs(w_full.coeffs[:hi] - w.coeffs[:hi])))
                w.coeffs[lo:hi] = w_full.coeffs[lo:hi]
                if delta / scale < expansion._INVERSION_TOL:
                    break
                deltas.append(delta)
                if expansion._round_fails(deltas, scale):
                    ok = False
                    break
            else:
                ok = False
            if not ok:
                break
        if ok:
            res = apply_L(handle, w) - z
            if float(np.max(np.abs(res.coeffs))) / scale < 100 * expansion._INVERSION_TOL:
                return w
        if n_slabs >= min(nt, 64):
            break
        n_slabs *= 2
    raise InversionError(f"failed within {n_slabs} time slabs")


def test_invert_K_matches_full_layout_fixed_point(grid, monkeypatch):
    # the iterate on the dealiased box gives the full-layout fixed point's
    # values and applies B as often; the largest drift fails on one slab and
    # converges on two, and slab [lo, hi) applies B to the levels before hi
    # only, so only that drift's applications read fewer than all levels
    cfg = SolverConfig(dt=0.01, n_steps=4)
    w = heat_trajectory(
        random_band_limited(grid, j_lo=0, j_hi=2, seed=81, amplitude=0.1), cfg.times)
    slabs = []

    def recording(nt, n_slabs, _bounds=expansion._slab_bounds):
        slabs.append(n_slabs)
        return _bounds(nt, n_slabs)

    monkeypatch.setattr(expansion, "_slab_bounds", recording)
    calls = _count_nonlinear_terms(monkeypatch)
    doubled = []
    for amp in (0.2, 20.0, 450.0):
        v = heat_trajectory(
            random_band_limited(grid, j_lo=0, j_hi=2, seed=61, amplitude=amp), cfg.times)
        handle = OperatorHandle(v)
        z = apply_L(handle, w)
        calls.clear()
        slabs.clear()
        back = invert_K(handle, z)
        n_calls = len(calls)
        doubled.append(max(slabs) > 1)
        assert (sum(calls) < n_calls * z.n_times) == doubled[-1], amp
        calls.clear()
        want = _full_layout_invert_K(handle, z)
        assert np.array_equal(back.coeffs, want.coeffs), amp
        assert len(calls) == n_calls, amp
    assert doubled == [False, False, True]


@pytest.mark.parametrize("threads", [1, 2])
def test_invert_K_holds_no_full_iterate(grid, threads):
    """The traced peak of one 11-level inversion stays under 2.0
    trajectories: the result, the parts on the dealiased box and the levels
    in flight (4.00 with a full-layout iterate, update and check)."""
    cfg = SolverConfig(dt=0.01, n_steps=10)
    v = heat_trajectory(
        random_band_limited(grid, j_lo=0, j_hi=2, seed=60, amplitude=0.2), cfg.times)
    w = heat_trajectory(
        random_band_limited(grid, j_lo=0, j_hi=2, seed=80, amplitude=0.1), cfg.times)
    handle = OperatorHandle(v)
    z = apply_L(handle, w)
    set_threads(threads)
    tracemalloc.start()
    try:
        invert_K(handle, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        set_threads(0)
    assert peak <= 2.0 * z.coeffs.nbytes, peak / z.coeffs.nbytes


def test_invert_K_rejects_huge_drift(grid, monkeypatch):
    # this drift's rounds contract by about 0.85 per iteration, too slowly
    # for the iteration budget: spending it takes 402 calls of B over the
    # five rounds, the early verdict 45
    cfg = SolverConfig(dt=0.01, n_steps=8)
    v = heat_trajectory(
        random_band_limited(grid, j_lo=0, j_hi=2, seed=70, amplitude=500.0), cfg.times)
    w = heat_trajectory(
        random_band_limited(grid, j_lo=0, j_hi=2, seed=71, amplitude=0.1), cfg.times)
    handle = OperatorHandle(v)
    z = apply_L(handle, w)
    calls = _count_nonlinear_terms(monkeypatch)
    with pytest.raises(InversionError):
        invert_K(handle, z)
    assert len(calls) <= 60


def test_round_verdict():
    def fails(rate, first=0.1, n=5):
        return expansion._round_fails([first * rate**i for i in range(n)], 1.0)

    assert fails(5.0, n=2)  # an update above 4x the one before
    assert not fails(0.85, n=4)  # no rate verdict before iteration 5
    assert fails(1.0)
    assert fails(0.85)  # 0.1 * 0.85^79 is above the tolerance
    assert not fails(0.5)  # 0.1 * 0.5^79 is far below it
    # at iteration 5 the verdict holds the update extrapolated to the end
    # of the budget, last * rate^(budget - 5), against the tolerance
    last = expansion._INVERSION_TOL / 0.5 ** (expansion._INVERSION_ITERS - 5)
    assert not fails(0.5, first=0.99 * last / 0.5**4)
    assert fails(0.5, first=1.01 * last / 0.5**4)


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


def test_expand_solution_k2(grid, no_monitor, block_matrices):
    u0 = random_band_limited(grid, j_lo=0, j_hi=2, seed=74, amplitude=0.05)
    cfg = SolverConfig(dt=0.01, n_steps=10)
    res = expand_solution(u0, 2, cfg)
    # the base solve reads only convergence and builds no norm report (10
    # matrices when it did)
    assert len(block_matrices) == 9
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
    records = simple_iteration(u, u0, 4)
    scale = script_norm(u, 1.0, math.inf, 3.0)
    # v + w stays glued to v0 + w0 while w collapses quadratically
    assert records[-1]["defect"] < 1e-6 * scale
    w_norms = [r["w_l3"] for r in records]
    assert all(b < a for a, b in zip(w_norms, w_norms[1:]))
