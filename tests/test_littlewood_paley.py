"""Dyadic blocks and Besov norms.

Oracles: single-mode fields give closed-form block and Besov norms;
reconstruction is checked against the identity; criticality against
the exact scaling law; Bernstein ratios against the dimensional bound;
the block-norm engine against the plain formula (full complex inverse
of each block, magnitude raised to p).
"""
import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft

from bnslab import field, littlewood_paley
from bnslab.field import (SpectralField, Trajectory, hermitian_symmetrize, lp_norm,
                          random_band_limited, scaling_transform, set_threads, shell_bump,
                          single_mode, zero_field)
from bnslab.grid import GridSpec, low_pass_multipliers, shell_multipliers
from bnslab.littlewood_paley import (BesovIndex, bernstein_ratio, besov_norm,
                                     block_lp_norms, critical_index,
                                     reconstruction_defect, shell_energies)
from bnslab.solver import bilinear_B, heat_trajectory


@pytest.fixture(scope="module")
def grid():
    return GridSpec(32)


def test_reconstruction_random(grid):
    u = random_band_limited(grid, j_lo=0, j_hi=grid.j_max, seed=4)
    assert reconstruction_defect(u) < 1e-12


def test_reconstruction_corpus(grid):
    for seed in range(20):
        u = random_band_limited(grid, j_lo=0, j_hi=2, seed=seed)
        assert reconstruction_defect(u) < 1e-10


def test_reconstruction_holds_one_block_at_a_time():
    """At 64^3 the traced peak stays under 3 fields: the running sum and
    one block (10 when every block and both tails are kept)."""
    grid = GridSpec(64)
    u = random_band_limited(grid, j_lo=0, j_hi=grid.j_max, seed=5)
    reconstruction_defect(u)  # builds the cached multipliers
    tracemalloc.start()
    try:
        reconstruction_defect(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * u.coeffs.nbytes, peak / u.coeffs.nbytes


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


@pytest.mark.parametrize("p", [3.0, 10.0, 46.0, 94.0])
@pytest.mark.parametrize("c", [1e-12, 1.0, 1e4])
def test_besov_norm_is_homogeneous_at_large_p(grid, c, p):
    # neither the block norms nor the q = p shell sum underflow or overflow
    u = random_band_limited(grid, j_lo=0, j_hi=2, seed=1)
    idx = critical_index(p, p)
    assert besov_norm(c * u, idx) == pytest.approx(
        c * besov_norm(u, idx), rel=1e-13, abs=0.0)


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


def test_block_norms_at_several_p_match_separate_calls(grid):
    # one set of block samples normed at several p gives the bytes of one
    # block_lp_norms call per p, for a field and a 17-level trajectory
    u = random_band_limited(grid, j_lo=0, j_hi=grid.j_max, seed=9)
    traj = heat_trajectory(u, np.linspace(0.0, 0.2, 17))
    for f in (u, traj):
        both = littlewood_paley._block_lp_norms(f, (6.0, 3.0))
        assert both.shape == f.coeffs.shape[:-4] + (grid.n_shells, 2)
        for i, p in enumerate((6.0, 3.0)):
            assert both[..., i].tobytes() == block_lp_norms(f, p).tobytes()


# -- inverses pruned to the data's support, byte for byte ----------------------------

@pytest.fixture(scope="module")
def sparse_cases():
    """64^3 inputs whose wide shells (3, 4 and the top tail) are sparse,
    exactly zero or dense: a heat trajectory of a j <= 2 datum, one level of
    bilinear_B (held on the dealiased box), six-mode and filled-shell
    profiles, a bump in shells 2 and 3 whose other shells are exactly zero,
    and the zero field."""
    grid = GridSpec(64)
    heat = heat_trajectory(random_band_limited(grid, j_lo=0, j_hi=2, seed=51, amplitude=0.05),
                           np.array([0.0, 0.05]))
    return {"heat": heat,
            "bilinear_B": SpectralField(grid, bilinear_B(heat, heat).coeffs[-1]),
            "six_mode": random_band_limited(grid, j_lo=1, j_hi=1, seed=52),
            "filled_shell": shell_bump(grid, 1, seed=53),
            "zero_shells": shell_bump(grid, 2, seed=54),
            "zero": zero_field(grid)}


def _plain(c, n):
    """Real samples by the plain irfftn of the whole k_z >= 0 half."""
    return scipy.fft.irfftn(c[..., : n // 2 + 1], s=(n, n, n), axes=(-3, -2, -1),
                            norm="forward")


@pytest.mark.parametrize("threads", [1, 2])
def test_pruned_inverses_same_bytes_as_plain_irfftn(sparse_cases, threads):
    # skipping zero blocks and the empty lines of sparse ones must leave every
    # byte of the plain irfftn path in the block norms, and in the block
    # samples (tails included) and physical samples up to the sign of an
    # exact zero (a skipped line of -0.0 inputs comes out +0.0); the bump's
    # shells 2 and 3 are pruned to its 23 of 64 x rows, and its shell 4 is
    # zero; the six-mode field's shell 1 to its 3 x 3 lines and 5 planes
    shells = list(littlewood_paley._block_halves(sparse_cases["zero_shells"].coeffs,
                                                 GridSpec(64)))
    assert [len(r[0]) for _, r in shells[:4]] == [7, 15, 23, 23]
    assert not np.any(shells[4][0])
    _, (xs, ys, nz) = list(littlewood_paley._block_halves(sparse_cases["six_mode"].coeffs,
                                                          GridSpec(64)))[1]
    assert (len(xs), len(ys), nz) == (3, 3, 5)
    set_threads(threads)
    try:
        for name, u in sparse_cases.items():
            grid, n = u.grid, u.grid.n_points
            lows = low_pass_multipliers(grid)
            multipliers = [lows[0], *shell_multipliers(grid), 1.0 - lows[-1]]
            assert (u.physical() + 0.0).tobytes() == (_plain(u.coeffs, n) + 0.0).tobytes(), name
            ref = {p: [] for p in (2.0, 2.5, 3.0, 6.0, math.inf)}
            for c in u.coeffs.reshape((-1,) + u.coeffs.shape[-4:]):
                blocks = list(littlewood_paley._blocks(c, grid, tails=True))
                assert len(blocks) == len(multipliers)
                for got, m in zip(blocks, multipliers):
                    assert (got + 0.0).tobytes() == (_plain(c * m, n) + 0.0).tobytes(), name
                energy = np.sum(np.abs(c) ** 2, axis=0)
                ref[2.0] += [math.sqrt(grid.period**3 * float(np.sum(m * m * energy)))
                             for m in multipliers[1:-1]]
                for p in (2.5, 3.0, 6.0, math.inf):
                    ref[p] += [lp_norm(b, grid, p) for b in blocks[1:-1]]
            for p, norms in ref.items():
                want = np.array(norms).reshape(u.coeffs.shape[:-4] + (grid.n_shells,))
                assert block_lp_norms(u, p).tobytes() == want.tobytes(), (name, p)
    finally:
        set_threads(0)


@pytest.mark.parametrize("threads", [1, 2])
def test_zero_shells_make_no_inverse_transform(threads, monkeypatch):
    # the heat flow keeps a j <= 2 datum's modes |n| <= 8, so the wide shells
    # 3 and 4 of a 64^3 grid are exactly zero and are normed 0.0 untransformed;
    # shells 0-2 keep their pruned passes over 7, 15 and 17 x rows; each
    # level's data is scanned once for all its shells
    grid = GridSpec(64)
    u = random_band_limited(grid, j_lo=0, j_hi=2, seed=55, amplitude=0.05)
    traj = heat_trajectory(u, np.linspace(0.0, 0.25, 17))
    block_lp_norms(traj.snapshot(0), 3.0)  # warms the multipliers' caches
    calls, scans = [], []
    inverse, occupied = littlewood_paley._real_physical, field._occupied

    def counted(half, n, rows=None):
        calls.append(rows)
        return inverse(half, n, rows)

    def scanned(c):
        scans.append(c.shape)
        return occupied(c)
    monkeypatch.setattr(littlewood_paley, "_real_physical", counted)
    monkeypatch.setattr(field, "_occupied", scanned)
    monkeypatch.setattr(littlewood_paley, "_occupied", scanned, raising=False)
    set_threads(threads)
    try:
        norms = block_lp_norms(traj, 3.0)
    finally:
        set_threads(0)
    assert np.all(norms[:, :3] > 0.0) and np.all(norms[:, 3:] == 0.0)
    assert len(calls) == 17 * 3
    assert sorted(len(rows[0]) for rows in calls) == [7] * 17 + [15] * 17 + [17] * 17
    assert len(scans) == 17
