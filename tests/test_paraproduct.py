"""Paraproducts and the product/heat estimate checks.

Oracles: the three Bony pieces must telescope back to the dealiased
product exactly; the low-high piece of a widely shell-separated pair
carries everything; the support envelope and the product laws are
dimensional facts checked with explicit constants.
"""
import math

import numpy as np
import pytest

from bnslab.errors import GridError
from bnslab.field import (dealias, from_physical, heat_flow, random_band_limited,
                          scaling_transform, shell_bump)
from bnslab.grid import GridSpec
from bnslab.littlewood_paley import critical_index, lp_decompose
from bnslab.paraproduct import (bilinear_kato_check, bony_decompose,
                                bony_reconstruction_defect,
                                heat_block_decay_rates,
                                heat_characterization_norm,
                                paraproduct_support_defect,
                                product_estimate_check)
from bnslab.solver import heat_trajectory


@pytest.fixture(scope="module")
def grid():
    return GridSpec(32)


def test_bony_reconstruction_random(grid):
    f = random_band_limited(grid, j_lo=0, j_hi=2, seed=80)
    g = random_band_limited(grid, j_lo=0, j_hi=2, seed=81)
    assert bony_reconstruction_defect(f, g) < 1e-12


def test_bony_reconstruction_corpus(grid):
    for seed in range(8):
        f = random_band_limited(grid, j_lo=0, j_hi=2, seed=200 + seed)
        g = shell_bump(grid, (seed % 3), seed=300 + seed)
        assert bony_reconstruction_defect(f, g) < 1e-10


def test_separated_shells_land_in_paraproduct(grid):
    # g two shells above f: the high-low piece vanishes identically and
    # the diagonal piece only sees the adjacent-block leakage of the
    # smooth cutoffs
    f = shell_bump(grid, 0, seed=82)
    g = shell_bump(grid, 2, seed=83)
    triple = bony_decompose(f, g)
    total = triple.reconstruct()
    assert triple.high_low.l2() < 1e-12
    assert triple.high_high.l2() < 0.05 * total.l2()
    assert (triple.low_high - total).l2() < 0.05 * total.l2()


def test_symmetry_swaps_pieces(grid):
    f = random_band_limited(grid, j_lo=0, j_hi=2, seed=84)
    g = random_band_limited(grid, j_lo=0, j_hi=2, seed=85)
    a = bony_decompose(f, g)
    b = bony_decompose(g, f)
    assert (a.low_high - b.high_low).l2() < 1e-12
    assert (a.high_high - b.high_high).l2() < 1e-12


def test_support_defect_small(grid):
    f = random_band_limited(grid, j_lo=0, j_hi=2, seed=86)
    g = random_band_limited(grid, j_lo=0, j_hi=2, seed=87)
    assert paraproduct_support_defect(f, g) < 1e-12


def test_support_defect_needs_a_shared_grid(grid):
    f = random_band_limited(grid, j_lo=0, j_hi=2, seed=86)
    g = scaling_transform(random_band_limited(grid, j_lo=0, j_hi=2, seed=87), 1)
    with pytest.raises(GridError):
        paraproduct_support_defect(f, g)


def test_product_estimate_constants(grid):
    f = random_band_limited(grid, j_lo=0, j_hi=2, seed=88)
    g = random_band_limited(grid, j_lo=0, j_hi=2, seed=89)
    rep = product_estimate_check(f, g, s1=-0.5, t1=1.0, p=4.0, p2=4.0)
    assert rep["t_constant"] < 10.0
    assert rep["r_constant"] < 10.0


def test_product_estimate_guards(grid):
    f = random_band_limited(grid, j_lo=0, j_hi=2, seed=90)
    with pytest.raises(ValueError):
        product_estimate_check(f, f, s1=0.5, t1=1.0, p=4.0, p2=4.0)


def test_heat_characterization_needs_negative_regularity(grid):
    u = random_band_limited(grid, j_lo=0, j_hi=2, seed=91)
    with pytest.raises(ValueError):
        heat_characterization_norm(u, critical_index(3.0, 3.0))


def test_heat_characterization_equivalence(grid):
    # the sup-in-time heat norm is equivalent to the block norm with a
    # moderate constant across a small corpus
    from bnslab.littlewood_paley import besov_norm
    idx = critical_index(6.0, math.inf)
    ratios = []
    for seed in range(6):
        u = random_band_limited(grid, j_lo=0, j_hi=2, seed=400 + seed)
        ratios.append(heat_characterization_norm(u, idx) / besov_norm(u, idx))
    assert max(ratios) / min(ratios) < 10.0
    assert all(0.05 < r < 20.0 for r in ratios)


def test_heat_block_decay_rates(grid):
    u = random_band_limited(grid, j_lo=0, j_hi=2, seed=92)
    for j, fitted, ref in heat_block_decay_rates(u):
        assert 0.5 * ref <= fitted <= 2.0 * ref


@pytest.mark.parametrize("grid", [GridSpec(32), GridSpec(32, period=1.0)],
                         ids=["32", "32-period1"])
def test_heat_block_decay_rates_match_block_copies(grid):
    """The Parseval fits agree with fits to the L^2 norms of heat-flowed
    copies of every block."""
    u = random_band_limited(grid, j_lo=0, j_hi=grid.j_max, seed=92)
    k_unit = 2.0 * math.pi / grid.period
    ref = []
    for block, j in zip(lp_decompose(u).blocks, grid.shells):
        k_ref = k_unit * 2.0 ** (j + 1)
        ts = np.linspace(0.0, 1.0 / k_ref**2, 12)
        vals = np.array([heat_flow(block, t).l2() for t in ts])
        ref.append((j, -np.polyfit(ts, np.log(vals), 1)[0], k_ref**2))
    got = heat_block_decay_rates(u)
    assert [r[0] for r in got] == list(grid.shells)
    assert np.allclose(np.array(got), np.array(ref), rtol=1e-12, atol=0.0)


def test_bilinear_kato_constant(grid):
    u0 = random_band_limited(grid, j_lo=0, j_hi=2, seed=93, amplitude=0.5)
    v0 = random_band_limited(grid, j_lo=0, j_hi=2, seed=94, amplitude=0.5)
    times = np.linspace(0.0, 0.2, 17)
    f = heat_trajectory(u0, times)
    g = heat_trajectory(v0, times)
    rep = bilinear_kato_check(f, g, p=6.0, q=6.0, r=6.0)
    assert 0.0 < rep["constant"] < 5.0


def test_bilinear_kato_exponent_guard(grid):
    u0 = random_band_limited(grid, j_lo=0, j_hi=2, seed=95)
    times = np.linspace(0.0, 0.1, 5)
    f = heat_trajectory(u0, times)
    with pytest.raises(ValueError):
        bilinear_kato_check(f, f, p=100.0, q=100.0, r=4.0)
