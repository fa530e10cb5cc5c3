"""Dyadic blocks and Besov norms.

Oracles: single-mode fields give closed-form block and Besov norms;
reconstruction is checked against the identity; criticality against
the exact scaling law; Bernstein ratios against the dimensional bound;
the block-norm engine against the plain formula (full complex inverse
of each block, magnitude raised to p).
"""
import math

import numpy as np
import pytest
import scipy.fft

from bnslab import littlewood_paley
from bnslab.field import (Trajectory, hermitian_symmetrize, random_band_limited,
                          scaling_transform, shell_bump, single_mode)
from bnslab.grid import GridSpec, low_pass_multipliers, shell_multipliers
from bnslab.littlewood_paley import (BesovIndex, bernstein_ratio, besov_norm,
                                     block_lp_norms, critical_index,
                                     lp_decompose, shell_energies)


@pytest.fixture(scope="module")
def grid():
    return GridSpec(32)


def test_reconstruction_random(grid):
    u = random_band_limited(grid, j_lo=0, j_hi=grid.j_max, seed=4)
    assert lp_decompose(u).reconstruction_defect(u) < 1e-12


def test_reconstruction_corpus(grid):
    for seed in range(20):
        u = random_band_limited(grid, j_lo=0, j_hi=2, seed=seed)
        assert lp_decompose(u).reconstruction_defect(u) < 1e-10


def test_single_mode_lands_in_one_shell(grid):
    # |n| = 4 sits at a shell center where the cutoff equals 1
    u = single_mode(grid, (4, 0, 0))
    norms = block_lp_norms(u, 2.0)
    assert max(norms) == pytest.approx(u.l2(), rel=1e-12)
    assert sum(n > 1e-13 for n in norms) == 1


def test_besov_single_mode_oracle(grid):
    # a single-shell field: norm is the anchored weight times the block
    # L^p norm, with the shell read off from the block decomposition
    u = single_mode(grid, (4, 0, 0))
    idx = critical_index(6.0, 6.0)
    norms = block_lp_norms(u, 6.0)
    j = list(grid.shells)[int(np.argmax(norms))]
    k_unit = 2.0 * math.pi / grid.period
    expected = (k_unit ** idx.s) * 2.0 ** (j * idx.s) * u.lp(6.0)
    assert besov_norm(u, idx) == pytest.approx(expected, rel=1e-12)


def test_besov_q_monotone(grid):
    # ell^q is nonincreasing in q at fixed (s, p)
    u = random_band_limited(grid, j_lo=0, j_hi=3, seed=8)
    vals = [besov_norm(u, BesovIndex(-0.5, 3.0, q)) for q in (1.0, 2.0, math.inf)]
    assert vals[0] >= vals[1] >= vals[2]


def test_criticality_under_scaling(grid):
    # the critical norm is exactly invariant under the period-changing
    # dilation, for every (p, q) on the critical line
    u = random_band_limited(grid, j_lo=0, j_hi=2, seed=12)
    for p, q in ((3.0, 3.0), (3.0, math.inf), (6.0, 6.0)):
        idx = critical_index(p, q)
        base = besov_norm(u, idx)
        for m in (1, 2):
            v = scaling_transform(u, m)
            assert besov_norm(v, idx) == pytest.approx(base, rel=1e-6)


def test_noncritical_index_not_invariant(grid):
    u = random_band_limited(grid, j_lo=1, j_hi=2, seed=13)
    idx = BesovIndex(0.0, 6.0, 6.0)  # off the critical line (s_6 = -1/2)
    v = scaling_transform(u, 1)
    assert abs(besov_norm(v, idx) / besov_norm(u, idx) - 1.0) > 0.1


def test_bernstein_ratio_bounded(grid):
    # ||D_j u||_q <= C 2^{3j(1/p-1/q)} ||D_j u||_p ; ratio stays O(1)
    u = random_band_limited(grid, j_lo=0, j_hi=3, seed=14)
    for j in grid.shells:
        r = bernstein_ratio(u, j, 2.0, 6.0)
        assert r < 4.0


def test_bernstein_ratio_transforms_one_block_once(grid, monkeypatch):
    calls = []

    def counting(c, *args, _real_physical=littlewood_paley._real_physical):
        calls.append(c.shape)
        return _real_physical(c, *args)

    u = random_band_limited(grid, j_lo=0, j_hi=3, seed=14)
    expected = bernstein_ratio(u, 1, 2.0, 6.0)
    monkeypatch.setattr(littlewood_paley, "_real_physical", counting)
    assert bernstein_ratio(u, 1, 2.0, 6.0) == expected
    assert len(calls) == 1


def test_shell_energies_sum_to_l2(grid):
    u = random_band_limited(grid, j_lo=0, j_hi=grid.j_max, seed=15)
    # overlapping cutoffs: energies are not exactly Pythagorean, but the
    # reconstruction identity pins the coefficient-weighted sum
    total = np.sum(shell_energies(u))
    assert 0.4 * u.l2() ** 2 < total < 2.5 * u.l2() ** 2


def test_shell_bump_single_shell_norm(grid):
    j0 = 2
    u = shell_bump(grid, j0, seed=3)
    idx = critical_index(6.0, 6.0)
    norms = block_lp_norms(u, 6.0)
    k_unit = 2.0 * math.pi / grid.period
    contributions = [
        ((k_unit ** idx.s) * 2.0 ** (j * idx.s) * norms[i]) ** 6
        for i, j in enumerate(grid.shells)
    ]
    assert besov_norm(u, idx) == pytest.approx(sum(contributions) ** (1 / 6),
                                               rel=1e-12)


def _reference_lp(phys, grid, p):
    mag = np.sqrt(np.sum(phys * phys, axis=0))
    if math.isinf(p):
        return float(np.max(mag))
    return float((np.sum(mag**p) * grid.cell_volume) ** (1.0 / p))


def _reference_block_norms(u, p):
    deltas = shell_multipliers(u.grid)
    out = np.empty(u.coeffs.shape[:-4] + (len(deltas),))
    for i in np.ndindex(out.shape[:-1]):
        for jj, delta in enumerate(deltas):
            block = np.real(scipy.fft.ifftn(u.coeffs[i] * delta, axes=(-3, -2, -1),
                                            norm="forward"))
            out[i + (jj,)] = _reference_lp(block, u.grid, p)
    return out


def _full_spectrum(grid, seed):
    """A real field with every mode populated, the Nyquist planes included,
    so every shell (the top one up to the grid's corners) is nonzero."""
    rng = np.random.default_rng(seed)
    shape = (3,) + (grid.n_points,) * 3
    return hermitian_symmetrize(grid, rng.standard_normal(shape)
                                + 1j * rng.standard_normal(shape))


@pytest.mark.parametrize("grid", [GridSpec(32), GridSpec(64), GridSpec(64, j_min=1),
                                  GridSpec(32, period=1.0)],
                         ids=["32", "64", "64-jmin1", "32-period1"])
def test_block_engine_matches_full_transform(grid):
    """Half spectrum, pruned passes, product powers and Parseval at p = 2
    agree with the full complex inverse of every block to 1e-14, and a
    block that is zero comes out exactly 0; so do the block samples
    themselves, the two trimmed tails included.  The top-shell bump is
    Leray-projected data at the grid's corners, which must stay real."""
    u = _full_spectrum(grid, seed=21)
    bump = shell_bump(grid, grid.j_min + 1, seed=22)  # the far shells are exactly 0
    top = shell_bump(grid, grid.j_max, seed=24)
    assert top.hermitian_defect() < 1e-15 and top.divergence_defect() < 1e-14
    traj = Trajectory(grid, np.array([0.0, 0.5, 0.75, 1.0]),
                      np.stack([u.coeffs, bump.coeffs, top.coeffs,
                                np.zeros_like(u.coeffs)]))
    for p in (2.0, 3.0, 4.0, 6.0, 2.5, math.inf):
        got, ref = block_lp_norms(traj, p), _reference_block_norms(traj, p)
        assert np.all(ref[0] > 0.0) and np.all(ref[3] == 0.0)
        assert np.array_equal(got == 0.0, ref == 0.0), p
        nonzero = ref > 0.0
        assert np.max(np.abs(got - ref)[nonzero] / ref[nonzero]) < 1e-14, p
        assert np.array_equal(block_lp_norms(u, p), got[0])
    lows = low_pass_multipliers(grid)
    multipliers = [lows[0], *shell_multipliers(grid), 1.0 - lows[-1]]
    for c in traj.coeffs:
        blocks = list(littlewood_paley._blocks(c, grid, tails=True))
        assert len(blocks) == len(multipliers)
        for got, m in zip(blocks, multipliers):
            ref = np.real(scipy.fft.ifftn(c * m, axes=(-3, -2, -1), norm="forward"))
            top = np.max(np.abs(ref))
            if top == 0.0:
                assert not np.any(got)
            else:
                assert np.max(np.abs(got - ref)) < 1e-14 * top


@pytest.mark.parametrize("grid", [GridSpec(32), GridSpec(64, j_min=1),
                                  GridSpec(32, period=1.0)],
                         ids=["32", "64-jmin1", "32-period1"])
def test_shell_energies_are_block_l2_squared(grid):
    u = _full_spectrum(grid, seed=23)
    ref = _reference_block_norms(u, 2.0) ** 2
    assert np.max(np.abs(shell_energies(u) - ref) / ref) < 1e-14
