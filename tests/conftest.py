"""Shared fixtures: small grids and seeded divergence-free data.

Session scope keeps the FFT-heavy setups (Picard solves, 64^3 grids)
to one evaluation per run.
"""
import numpy as np
import pytest

from bnslab import profiles, solver, spacetime
from bnslab.field import random_band_limited
from bnslab.grid import GridSpec
from bnslab.profiles import ProfileSet, ScaleCore, evolve_decomposition, synthesize
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


@pytest.fixture(scope="session")
def criterion_11_run(grid64):
    """Criterion 11's evolved decomposition (test_acceptance.py), made once: two
    shell-2 profiles, the first at m = 0 and the origin at every index, the
    second at m = n and core (5, 9, 3), over four indices.  Returns its records,
    the number of `solve` calls it made and the p of each block-norm matrix."""
    phi1 = random_band_limited(grid64, j_lo=2, j_hi=2, seed=41, amplitude=0.6)
    phi2 = random_band_limited(grid64, j_lo=2, j_hi=2, seed=42, amplitude=0.3)
    ps = ProfileSet(profiles=[phi1, phi2],
                    schedules=[[ScaleCore(0, (0, 0, 0))] * 4,
                               [ScaleCore(n, (5, 9, 3)) for n in range(4)]],
                    remainders=[None] * 4)
    solves, matrices = [], []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(profiles, "solve", lambda *args: solves.append(1) or solver.solve(*args))
        _count_block_matrices(patch, matrices)
        records = evolve_decomposition(ps, SolverConfig(dt=0.005, n_steps=8), p=3.0)
    return records, len(solves), matrices


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
    _count_block_matrices(monkeypatch, calls)
    return calls


def _count_block_matrices(patch, calls):
    """Wrap `spacetime.block_lp_norms` on `patch` to append each matrix's p to calls."""
    engine = spacetime.block_lp_norms

    def counted(u, p):
        calls.append(p)
        return engine(u, p)
    patch.setattr(spacetime, "block_lp_norms", counted)


def rng_fields(grid, count, j_lo=0, j_hi=2, amplitude=0.1, seed0=100):
    return [random_band_limited(grid, j_lo=j_lo, j_hi=j_hi,
                                seed=seed0 + i, amplitude=amplitude)
            for i in range(count)]
