"""Profile machinery: scale/core group, orthogonality, extraction.

Oracles: the scale/core pairs form a group acting on fields — compose
and inverse are checked algebraically and on fields; the scaling
operator is an isometry of the critical norm at quadrature-exact
exponents; cross terms vanish exactly for shell-disjoint pairs; the
extractor must round-trip planted syntheses and stay silent on noise.
"""
import gc
import itertools
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bnslab import littlewood_paley, profiles
from bnslab.errors import GridError
from bnslab.field import (_map, dyadic_shift, random_band_limited, scaling_transform,
                          set_threads, shell_bump)
from bnslab.grid import TWO_PI, GridSpec, wavevectors
from bnslab.littlewood_paley import besov_norm, critical_index
from bnslab.profiles import (ProfileSet, ScaleCore, _align_core, _box, _fit, _full, _unscale,
                             cross_term,
                             evolve_decomposition, extract_profiles, max_cross_term,
                             orthogonality_gap, pythagorean_gap, scale_op,
                             synthesize, translate)
from bnslab.solver import SolverConfig, heat_trajectory, solve


@pytest.fixture(scope="module")
def grid():
    return GridSpec(32)


# -- the scale/core group -------------------------------------------------------

def test_compose_identity():
    e = ScaleCore(0, (0, 0, 0))
    a = ScaleCore(2, (4, 8, 12))
    assert a.compose(e) == a
    assert e.compose(a) == a


def test_inverse_roundtrip():
    a = ScaleCore(1, (4, 6, 2))
    assert a.compose(a.inverse()) == ScaleCore(0, (0, 0, 0))
    assert a.inverse().compose(a) == ScaleCore(0, (0, 0, 0))


def test_inverse_rejects_off_lattice():
    with pytest.raises(GridError):
        ScaleCore(1, (3, 0, 0)).inverse()


@given(m1=st.integers(-2, 2), m2=st.integers(-2, 2),
       c1=st.integers(-4, 4), c2=st.integers(-4, 4))
@settings(max_examples=30, deadline=None)
def test_compose_group_action(grid, m1, m2, c1, c2):
    # acting by a then b equals acting by b.compose(a), whenever all
    # three actions stay on the grid
    a = ScaleCore(m1, (4 * c1, 0, 0))
    b = ScaleCore(m2, (0, 4 * c2, 0))
    u = shell_bump(grid, 1, seed=5)
    try:
        ba = b.compose(a)
        lhs = scale_op(b, scale_op(a, u))
        rhs = scale_op(ba, u)
    except Exception:
        return
    assert (lhs - rhs).l2() < 1e-12 * max(rhs.l2(), 1e-30)


def test_scale_op_critical_isometry(grid64):
    # quadrature-exact exponents: p = 2 always (Parseval), p = 4 when
    # the shifted band stays under a quarter of the grid
    u = random_band_limited(grid64, j_lo=1, j_hi=1, seed=21)
    for p in (2.0, 4.0):
        idx = critical_index(p, p)
        base = besov_norm(u, idx)
        v = scale_op(ScaleCore(-1, (3, 5, 7)), u, p=p)
        assert besov_norm(v, idx) == pytest.approx(base, rel=1e-12)


def test_translate_preserves_norms(grid):
    u = random_band_limited(grid, j_lo=0, j_hi=2, seed=22)
    v = translate(u, (5, 11, 2))
    assert v.l2() == pytest.approx(u.l2(), rel=1e-12)
    assert v.lp(4.0) == pytest.approx(u.lp(4.0), rel=1e-12)


def test_orthogonality_gap_symmetry_scale(grid):
    a = ScaleCore(0, (0, 0, 0))
    b = ScaleCore(3, (0, 0, 0))
    assert orthogonality_gap(a, b, grid) == pytest.approx(2.0 ** 3 + 2.0 ** -3)


def test_orthogonality_gap_translation(grid):
    a = ScaleCore(0, (0, 0, 0))
    b = ScaleCore(0, (8, 0, 0))
    h = grid.period / grid.n_points
    assert orthogonality_gap(a, b, grid) == pytest.approx(2.0 + 8 * h)


# -- cross terms and the Pythagorean diagnostic ---------------------------------

def test_cross_term_vanishes_disjoint_shells(grid):
    a = shell_bump(grid, 0, seed=1)
    v = shell_bump(grid, 2, seed=2)
    assert max_cross_term(a, v, 3) == 0.0


def test_cross_term_positive_same_shell(grid):
    a = shell_bump(grid, 1, seed=3)
    v = shell_bump(grid, 1, seed=4)
    assert cross_term(a, v, 3, 1) > 0.0


def test_cross_term_needs_a_shared_grid(grid):
    a = shell_bump(grid, 1, seed=3)
    v = scaling_transform(shell_bump(grid, 1, seed=4), 1)
    with pytest.raises(GridError):
        cross_term(a, v, 3, 1)


def test_pythagorean_gap_decreases(grid):
    # two profiles pushed apart by scale separation: the defect falls
    # to zero once the scaled copies occupy disjoint shells
    phi1 = random_band_limited(grid, j_lo=0, j_hi=1, seed=25, amplitude=1.0)
    phi2 = random_band_limited(grid, j_lo=0, j_hi=0, seed=26, amplitude=0.7)
    idx = critical_index(3.0, 3.0)
    eps = []
    for m in (-1, -2):
        ps = ProfileSet(
            profiles=[phi1, phi2],
            schedules=[[ScaleCore(0, (0, 0, 0))], [ScaleCore(m, (5, 9, 3))]],
            remainders=[None],
        )
        eps.append(pythagorean_gap(ps, 0, idx))
    assert eps[-1] <= eps[0] + 1e-12
    norm = besov_norm(synthesize(
        ProfileSet([phi1, phi2],
                   [[ScaleCore(0, (0, 0, 0))], [ScaleCore(-2, (5, 9, 3))]],
                   [None]), 0), idx) ** 3
    assert eps[-1] < 0.05 * norm


def test_extraction_identity_roundtrip(grid):
    # constant schedule: extraction must return the planted field itself
    phi = random_band_limited(grid, j_lo=1, j_hi=1, seed=27, amplitude=1.0)
    seq = [phi for _ in range(6)]
    out = extract_profiles(seq, threshold=0.02)
    assert out.n_profiles() == 1
    err = (out.profiles[0] - phi).l2() / phi.l2()
    assert err < 1e-10


def test_extraction_silent_on_small_noise(grid):
    seq = [random_band_limited(grid, j_lo=0, j_hi=2, seed=30 + i,
                               amplitude=0.001)
           for i in range(6)]
    out = extract_profiles(seq, threshold=0.02)
    assert out.n_profiles() == 0
    assert out.complete


def test_synthesize_requires_content(grid):
    ps = ProfileSet([], [], [])
    with pytest.raises(GridError):
        synthesize(ps, 0)


# -- same bytes as the full-size phase -------------------------------------------

def _full_phase_translate(f, core):
    """translate as a full-size phase from the (3, N, N, N) wavevectors."""
    if tuple(core) == (0, 0, 0):
        return f
    x = np.asarray(core, dtype=float) * (f.grid.period / f.grid.n_points)
    k = wavevectors(f.grid).astype(float) * (TWO_PI / f.grid.period)
    phase = np.exp(-1j * (k[0] * x[0] + k[1] * x[1] + k[2] * x[2]))
    return replace(f, coeffs=f.coeffs * phase)


@pytest.mark.parametrize("threads", [1, 2])
def test_scale_core_operators_same_bytes_as_full_phase(grid, threads):
    # _unscale takes the box of the rows u occupies and evaluates its phase
    # only at the rows the shift keeps, and translate builds it from 1-D rows
    # in slabs; both must keep every byte of the full-phase formulas: translate
    # then shift, and shift then translate.  Off _unscale's box (at m = 0 the
    # product set of u's occupied rows) the full formula holds only zeros
    u = random_band_limited(grid, j_lo=0, j_hi=2, seed=40)
    rows = [np.flatnonzero(np.any(u.coeffs != 0, axis=tuple({0, 1, 2, 3} - {a})))
            for a in (1, 2, 3)]
    assert all(0 < len(r) < grid.n_points for r in rows)  # a proper product set
    traj = heat_trajectory(u, np.linspace(0.0, 0.05, 3))
    set_threads(threads)
    try:
        for core in ((0, 0, 0), (5, -3, 11)):
            back = tuple(-c for c in core)
            for f in (u, traj):
                assert (translate(f, core).coeffs.tobytes()
                        == _full_phase_translate(f, core).coeffs.tobytes())
            for m in range(-3, 3):
                for p in (3.0, 5.0):
                    s = critical_index(p, p).s
                    sc = ScaleCore(m, core)
                    ref = dyadic_shift(_full_phase_translate(u, back), m,
                                       amplitude=2.0 ** (-m * s), strict=False).coeffs
                    at, got = _unscale(sc, _box(u.coeffs), grid, p)
                    on = np.zeros(ref.shape, dtype=bool)
                    at = (Ellipsis,) + np.ix_(*at)
                    on[at] = True
                    assert got.tobytes() == ref[at].tobytes(), (m, core)
                    assert not np.any(ref[~on]), (m, core)
                    if m == 0:
                        assert [a.ravel().tolist() for a in at[1:]] == [r.tolist() for r in rows]
                    for f in (u, traj):
                        ref = _full_phase_translate(
                            dyadic_shift(f, -m, amplitude=2.0 ** (m * s), strict=False), core)
                        assert (scale_op(sc, f, p, strict=False).coeffs.tobytes()
                                == ref.coeffs.tobytes())
    finally:
        set_threads(0)


def test_fit_leaves_residuals_unchanged(grid):
    # the tail average sums into an array of its own; the residuals it reads,
    # at m = 0 and the origin too, must come out untouched
    residual = [random_band_limited(grid, j_lo=0, j_hi=2, seed=50 + n) for n in range(6)]
    before = [r.coeffs.tobytes() for r in residual]
    sched = [ScaleCore(-1, (3, 5, 7)), ScaleCore(0, (0, 0, 0))] * 3  # tail starts at m = 0
    _fit(residual, sched, range(3, 6), 3.0, 1)
    assert [r.coeffs.tobytes() for r in residual] == before


def test_tail_average_sums_in_index_order(grid):
    # three m = 0 boxes at one mode: in index order 1 + 1e16 rounds to 1e16 and
    # the sum cancels to an empty box; summed in reverse it keeps the 1 (mean
    # 1/3), so a reordered sum would change the extractor's bytes
    rows = (np.array([1]), np.array([0]), np.array([0]))
    boxes = {n: (rows, np.full((3, 1, 1, 1), v, dtype=complex))
             for n, v in enumerate((1.0, 1e16, -1e16))}
    at, vals = profiles._tail_average(boxes, [ScaleCore(0)] * 3, range(3), grid, 3.0)
    assert [len(r) for r in at] == [0, 0, 0] and vals.size == 0


def test_extraction_transforms_each_tail_residual_once_per_round(two_profile_seq, monkeypatch):
    # each round past the stop test transforms the blocks of the three tail
    # residuals once for p = 6 and p = 3 together, those of the three head
    # residuals and the candidate's (7); this sequence takes three such
    # rounds (two accepted, one re-detection) and orders two profiles:
    # 3 * 7 + 2 = 23 passes, where separate p = 6 and p = 3 passes take 32
    seq = two_profile_seq
    passes = []
    blocks = littlewood_paley._block_halves  # what the engine and `_blocks` read

    def counted(*args, **kwargs):
        passes.append(1)
        return blocks(*args, **kwargs)
    monkeypatch.setattr(littlewood_paley, "_block_halves", counted)
    out = extract_profiles(seq, j_max=3, threshold=0.01)
    assert out.n_profiles() == 2
    assert len(passes) == 23


# -- per-index tasks, byte for byte ------------------------------------------------

def test_scale_op_leaves_its_input_untouched_at_m0(grid):
    # at m = 0 the dyadic shift returns its input, so the phase must not be
    # multiplied into it
    u = random_band_limited(grid, j_lo=0, j_hi=2, seed=41)
    traj = heat_trajectory(u, np.linspace(0.0, 0.05, 3))
    for f in (u, traj):
        before = f.coeffs.tobytes()
        for normalization in ("critical", "ns"):
            out = scale_op(ScaleCore(0, (5, -3, 11)), f, 3.0, normalization)
            assert f.coeffs.tobytes() == before
            assert out.coeffs.tobytes() == translate(f, (5, -3, 11)).coeffs.tobytes()


def _mode_gcd(f):
    """The gcd of the wavenumbers of f's modes: f has period N / gcd."""
    occupied = np.any(f.coeffs != 0, axis=0)
    return int(np.gcd.reduce(np.abs(wavevectors(f.grid)[:, occupied]).ravel()))


@pytest.mark.parametrize("threads", [1, 2])
def test_align_core_same_bytes_as_scaled_copy(grid, threads, monkeypatch):
    # _align_core forms the correlation spectrum only where the scaled
    # candidate lives, in the planes the inverse reads; against the full
    # formula it must find the same core from bitwise-equal nonzero
    # correlation values (exact zeros may differ in sign only), for a
    # candidate filling shells 0-2 and a six-mode one of small support
    p, s = 3.0, critical_index(3.0, 3.0).s
    n = grid.n_points
    cands = (random_band_limited(grid, j_lo=0, j_hi=2, seed=42),
             random_band_limited(grid, j_lo=1, j_hi=1, seed=44))
    noise = random_band_limited(grid, j_lo=0, j_hi=3, seed=43, amplitude=0.3)
    seen = []
    inverse = profiles._real_physical

    def recorded(*args, **kwargs):
        seen.append(inverse(*args, **kwargs))
        return seen[-1]
    monkeypatch.setattr(profiles, "_real_physical", recorded)
    set_threads(threads)
    try:
        for cand, m in itertools.product(cands, range(-3, 2)):
            for core in (None, (5, -3, 11)):
                r = noise if core is None else noise + scale_op(ScaleCore(m, core), cand,
                                                                p, strict=False)
                w = dyadic_shift(cand, -m, amplitude=2.0 ** (m * s), strict=False)
                spec = np.sum(np.conj(w.coeffs) * r.coeffs, axis=0)
                ref = inverse(spec.T, n).T
                seen.clear()
                got = _align_core(r, _box(cand.coeffs), m, p)
                assert got == np.unravel_index(np.argmax(ref), ref.shape), (m, core)
                corr = seen[0].T
                nonzero = ref != 0
                assert np.array_equal(corr != 0, nonzero), (m, core)
                assert corr[nonzero].tobytes() == ref[nonzero].tobytes(), (m, core)
                if core is not None and w.sup_coeff() > 0:  # the planted core, up to
                    period = (n >> max(0, -m)) // _mode_gcd(cand)  # the copy's period
                    assert all((g - c) % period == 0 for g, c in zip(got, core)), (m, core)
    finally:
        set_threads(0)


def _full_phase_scaled(sc, box, grid, p):
    """`_scaled` of the field of the box by the full-array `scale_op`, as a box on
    every row."""
    full = _full(grid, box)
    return (np.arange(grid.n_points),) * 3, scale_op(sc, full, p, strict=False).coeffs


def _full_phase_unscale(sc, box, grid, p):
    """`_unscale` of the field of the box by the full-array path, translate then a
    non-strict dyadic shift, as a box on every row."""
    s = critical_index(p, p).s
    u = translate(_full(grid, box), tuple(-c for c in sc.core))
    out = dyadic_shift(u, sc.m, amplitude=2.0 ** (-sc.m * s), strict=False)
    return (np.arange(grid.n_points),) * 3, out.coeffs


@pytest.mark.parametrize("threads", [1, 2])
def test_extraction_same_values_as_full_phase_reference(two_profile_seq, criterion_12_seq,
                                                        threads, monkeypatch):
    # scaling (deflation, restoration, core alignment and the final gauge),
    # unscaling and the tail average work on the boxes of the rows their inputs
    # occupy; the full-size scaled copies, phases and sums they replace must
    # give the same schedules and values, with only the sign of zeros moved,
    # and no phase is full-size; p = 5 gives the amplitudes that p = 3
    # (s_p = 0) leaves at 1
    phase, full = profiles._phase, []

    def counted_phase(grid, core, *rows):
        out = phase(grid, core, *rows)
        if out.size == grid.n_points**3:
            full.append(core)
        return out
    set_threads(threads)
    try:
        for seq, p in ((two_profile_seq, 3.0), (two_profile_seq, 5.0), (criterion_12_seq, 3.0)):
            with monkeypatch.context() as patch:
                patch.setattr(profiles, "_phase", counted_phase)
                got = extract_profiles(seq, j_max=3, threshold=0.01, p=p)
            with monkeypatch.context() as patch:
                patch.setattr(profiles, "_scaled", _full_phase_scaled)
                patch.setattr(profiles, "_unscale", _full_phase_unscale)
                ref = extract_profiles(seq, j_max=3, threshold=0.01, p=p)
            assert full == []
            assert (got.schedules, got.complete) == (ref.schedules, ref.complete)
            assert got.n_profiles() == 2
            for a, b in zip(got.profiles + got.remainders, ref.profiles + ref.remainders):
                assert np.array_equal(a.coeffs, b.coeffs)
                assert (a.coeffs + 0.0).tobytes() == (b.coeffs + 0.0).tobytes()
    finally:
        set_threads(0)


def test_extraction_same_bytes_for_any_thread_count(two_profile_seq):
    # the per-index tasks of the level pool must leave every output byte,
    # and the caller's sequence, as one thread leaves them
    before = [f.coeffs.tobytes() for f in two_profile_seq]

    def bits(ps):
        return ([f.coeffs.tobytes() for f in ps.profiles], ps.schedules,
                [f.coeffs.tobytes() for f in ps.remainders], ps.complete)
    try:
        runs = []
        for threads in (1, 2):
            set_threads(threads)
            runs.append(bits(extract_profiles(two_profile_seq, j_max=3, threshold=0.01)))
    finally:
        set_threads(0)
    assert runs[0] == runs[1]
    assert len(runs[0][0]) == 2
    assert [f.coeffs.tobytes() for f in two_profile_seq] == before


# -- evolved decomposition ------------------------------------------------------

def test_evolve_solves_each_profile_scale_once(criterion_11_run):
    # criterion 11's set: phi1 sits at m = 0 at every index and phi2 at m = n,
    # so the call makes 4 + 1 + 4 solves and 43 block-norm matrices (26 Picard
    # residuals, 9 scales, two script norms per record); solving phi1 at every
    # index made 12 solves and 55 matrices
    records, solves, block_matrices = criterion_11_run
    assert [rec["n"] for rec in records] == [0, 1, 2, 3]
    assert solves == 9
    assert len(block_matrices) == 43


def test_evolve_holds_each_sub_solve_until_its_last_index(grid, monkeypatch):
    # phi2 returns to m = -1 at n = 2, so its m = -1 solve is held across
    # n = 1, while its m = 0 solve is gone before u_2 is solved, and no
    # solve outlives the call; each record equals a one-index set's, byte
    # for byte
    phi1 = random_band_limited(grid, j_lo=0, j_hi=0, seed=41, amplitude=0.3)
    phi2 = random_band_limited(grid, j_lo=0, j_hi=0, seed=42, amplitude=0.15)
    scheds = [[ScaleCore(0)] * 3, [ScaleCore(m, (5, 9, 3)) for m in (-1, 0, -1)]]
    cfg = SolverConfig(dt=0.01, n_steps=4)
    subs, alive = [], []

    def counted(w0, sub_cfg, p):
        alive.append(sum(ref() is not None for ref in subs))
        out = solve(w0, sub_cfg, p)
        if w0 is phi1 or w0 is phi2:
            subs.append(weakref.ref(out[0]))
        return out
    monkeypatch.setattr(profiles, "solve", counted)
    records = evolve_decomposition(ProfileSet([phi1, phi2], scheds, [None] * 3), cfg)
    monkeypatch.undo()
    gc.collect()
    assert alive == [0, 0, 1, 2, 2, 2]  # u_0, phi1, phi2 at -1; u_1, phi2 at 0; u_2
    assert all(ref() is None for ref in subs)
    for n, rec in enumerate(records):
        one = ProfileSet([phi1, phi2], [sched[n:n + 1] for sched in scheds], [None])
        assert evolve_decomposition(one, cfg) == [dict(rec, n=0)]
