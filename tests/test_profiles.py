"""Profile machinery: scale/core group, orthogonality, extraction.

Oracles: the scale/core pairs form a group acting on fields — compose
and inverse are checked algebraically and on fields; the scaling
operator is an isometry of the critical norm at quadrature-exact
exponents; cross terms vanish exactly for shell-disjoint pairs; the
extractor must round-trip planted syntheses and stay silent on noise.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bnslab.errors import GridError
from bnslab.field import random_band_limited, scaling_transform, shell_bump
from bnslab.grid import GridSpec
from bnslab.littlewood_paley import besov_norm, critical_index
from bnslab.profiles import (ProfileSet, ScaleCore, cross_term,
                             extract_profiles, max_cross_term,
                             orthogonality_gap, pythagorean_gap, scale_op,
                             synthesize, translate)


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
