"""Shared fixtures: small grids and seeded divergence-free data.

Session scope keeps the FFT-heavy setups (Picard solves, 64^3 grids)
to one evaluation per run.
"""
import numpy as np
import pytest

from bnslab import solver, spacetime
from bnslab.field import random_band_limited
from bnslab.grid import GridSpec
from bnslab.profiles import ProfileSet, ScaleCore, synthesize
from bnslab.solver import SolverConfig, picard_solve


@pytest.fixture(scope="session")
def grid32():
    return GridSpec(32)


@pytest.fixture(scope="session")
def grid64():
    return GridSpec(64)


@pytest.fixture(scope="session")
def u_small(grid32):
    """Small-amplitude band-limited divergence-free datum."""
    return random_band_limited(grid32, j_lo=0, j_hi=2, seed=7, amplitude=0.05)


@pytest.fixture(scope="session")
def u_moderate(grid32):
    return random_band_limited(grid32, j_lo=0, j_hi=2, seed=11, amplitude=0.4)


@pytest.fixture(scope="session")
def solved_small(u_small):
    """A converged mild solution reused across solver/expansion tests."""
    cfg = SolverConfig(dt=0.01, n_steps=16)
    traj, report = picard_solve(u_small, cfg)
    assert report.classification != "picard_diverged"
    return traj, report, cfg


@pytest.fixture(scope="session")
def two_profile_seq(grid32):
    """A 32^3 analogue of the criterion-12 sequence: two planted shell-0
    profiles, the second concentrating (m = -1, -2) at moving cores.  Its
    extraction takes two accepted rounds and one re-detection."""
    phi1 = random_band_limited(grid32, j_lo=0, j_hi=0, seed=21, amplitude=1.0)
    phi2 = random_band_limited(grid32, j_lo=0, j_hi=0, seed=22, amplitude=1.0)
    ms, seps = (-1, -1, -2, -2, -2, -2), (3, 5, 7, 9, 11, 13)
    ps = ProfileSet([phi1, phi2], [[ScaleCore(0)] * len(ms),
                                   [ScaleCore(m, (s, s, s)) for m, s in zip(ms, seps)]],
                    [None] * len(ms))
    return [synthesize(ps, n, 2) for n in range(len(ms))]


@pytest.fixture(scope="session")
def criterion_12_seq(grid64):
    """The criterion-12 sequence (test_acceptance.py): a shell-1 profile at
    m = 0 and the origin, and a shell-0 profile concentrating (m = -1..-3) at
    moving cores, over six indices."""
    phi1 = random_band_limited(grid64, j_lo=1, j_hi=1, seed=21, amplitude=1.0)
    phi2 = random_band_limited(grid64, j_lo=0, j_hi=0, seed=22, amplitude=0.7)
    ms, seps = (-1, -1, -2, -2, -3, -3), (3, 5, 7, 9, 11, 13)
    ps = ProfileSet([phi1, phi2], [[ScaleCore(0)] * len(ms),
                                   [ScaleCore(m, (s, s, s)) for m, s in zip(ms, seps)]],
                    [None] * len(ms))
    return [synthesize(ps, n, 2, p=3.0) for n in range(len(ms))]


@pytest.fixture
def no_monitor(monkeypatch):
    """Make `solver.monitor` raise: callers that read only convergence
    must not build the norm report."""
    def fail(*args, **kwargs):
        raise AssertionError("monitor called")
    monkeypatch.setattr(solver, "monitor", fail)


@pytest.fixture
def block_matrices(monkeypatch):
    """Count the block-norm matrices built through `spacetime`; the
    returned list grows by one entry per matrix."""
    calls = []
    engine = spacetime.block_lp_norms

    def counted(u, p):
        calls.append(p)
        return engine(u, p)
    monkeypatch.setattr(spacetime, "block_lp_norms", counted)
    return calls


def rng_fields(grid, count, j_lo=0, j_hi=2, amplitude=0.1, seed0=100):
    return [random_band_limited(grid, j_lo=j_lo, j_hi=j_hi,
                                seed=seed0 + i, amplitude=amplitude)
            for i in range(count)]
