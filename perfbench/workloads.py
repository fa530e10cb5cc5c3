"""The three benchmark workloads: seeded inputs, one operation, its check.

Each workload calls bnslab through module attributes (``solver.picard_solve``,
not a name bound at import), so that the traced pass sees every call.
Inputs are built from the workload seed only (profile_extraction does not
use it); a round is the list of inputs the measuring loop runs before it
looks at the clock again.
"""

from __future__ import annotations

import math

import numpy as np

from bnslab import expansion, field, grid, littlewood_paley, profiles, solver, spacetime

C0 = 0.05  # small-data amplitude used by the acceptance gate
CHECK_TOL = 1e-8  # Picard residual and K[v] round-trip tolerance (criteria 05, 08)
PROFILE_TOL = 0.05  # recovered profile norm vs planted (criterion 12)
GRID_CACHES = (grid.wavevectors, grid.wavenumber_sq, grid.dealias_mask,
               grid.low_pass_multipliers, grid.shell_multipliers)


def warm_grid_caches(g: grid.GridSpec) -> None:
    """Drop and rebuild the per-grid multiplier caches."""
    for cached in GRID_CACHES:
        cached.cache_clear()
    for cached in GRID_CACHES:
        cached(g)


def _seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31, count)]


class Picard64:
    """picard_solve of a small band-limited datum, 64^3, 17 time levels."""

    name = "picard_64"
    # Picard iterations every datum of this class takes at the seed commit;
    # a change that alters the count changes the numerics, not just speed
    ITERATIONS = 2
    POOL = 2

    def __init__(self, seed: int):
        self.grid = grid.GridSpec(64)
        self.cfg = solver.SolverConfig(dt=0.01, n_steps=16)
        self.idx = littlewood_paley.critical_index(3.0, 3.0)
        warm_grid_caches(self.grid)
        rng = np.random.default_rng(seed)
        self.inputs = [field.random_band_limited(self.grid, seed=s, j_lo=0, j_hi=2,
                                                 amplitude=C0)
                       for s in _seeds(rng, self.POOL)]

    def warm_up(self) -> None:
        # a 3-level solve fills the transform plans at full size
        solver.picard_solve(self.inputs[0], solver.SolverConfig(dt=0.01, n_steps=2),
                            self.idx)

    def round(self, k: int) -> list:
        return [self.inputs[k % self.POOL]]

    def op(self, u0):
        return solver.picard_solve(u0, self.cfg, self.idx)

    def check(self, u0, result) -> list[str]:
        _, report = result
        res = report.picard_residuals
        problems = []
        if report.classification != "decaying":
            problems.append(f"classification {report.classification}")
        if not res or not res[-1] <= CHECK_TOL:
            problems.append(f"last Picard residual {res[-1] if res else None}")
        if len(res) != self.ITERATIONS:
            problems.append(f"{len(res)} Picard iterations, expected {self.ITERATIONS}")
        return problems

    def array_bytes(self) -> dict[str, int]:
        n = self.grid.n_points
        return {"trajectory": (self.cfg.n_steps + 1) * 3 * n**3 * 16,
                "field": 3 * n**3 * 16}


class DriftInversion:
    """invert_K(apply_L(w)) round trips, 32^3, 11 time levels, over a
    seeded ladder of drift amplitudes from c0/2 to about 64."""

    name = "drift_inversion"
    RUNGS = 8
    TOP = 64.0

    def __init__(self, seed: int):
        self.grid = grid.GridSpec(32)
        self.cfg = solver.SolverConfig(dt=0.01, n_steps=10)
        warm_grid_caches(self.grid)
        rng = np.random.default_rng(seed)
        steps = np.arange(self.RUNGS) / (self.RUNGS - 1)
        amps = (C0 / 2) * (self.TOP / (C0 / 2)) ** steps * rng.uniform(0.95, 1.05, self.RUNGS)
        self.inputs = []
        for amp, s_v, s_w in zip(amps, _seeds(rng, self.RUNGS), _seeds(rng, self.RUNGS)):
            v0 = field.random_band_limited(self.grid, seed=s_v, j_lo=0, j_hi=2,
                                           amplitude=float(amp))
            w0 = field.random_band_limited(self.grid, seed=s_w, j_lo=0, j_hi=2,
                                           amplitude=0.1)
            handle = expansion.OperatorHandle(solver.heat_trajectory(v0, self.cfg.times))
            self.inputs.append((handle, solver.heat_trajectory(w0, self.cfg.times)))

    def warm_up(self) -> None:
        self.op(self.inputs[0])

    def round(self, k: int) -> list:
        return self.inputs

    def op(self, item):
        handle, w = item
        return expansion.invert_K(handle, expansion.apply_L(handle, w))

    def check(self, item, back) -> list[str]:
        _, w = item
        err = spacetime.script_norm(back - w, 1.0, math.inf, 3.0)
        ref = spacetime.script_norm(w, 1.0, math.inf, 3.0)
        if not err <= CHECK_TOL * ref:
            return [f"round-trip error {err / ref:.3e} relative"]
        return []

    def array_bytes(self) -> dict[str, int]:
        n = self.grid.n_points
        return {"trajectory": (self.cfg.n_steps + 1) * 3 * n**3 * 16}


class ProfileExtraction:
    """extract_profiles on the criterion-12 sequence: 64^3, two planted
    profiles, six indices.

    The inputs do not depend on the seed.  Every variation tried (whole-
    sequence translations, other planted profiles) makes the extractor
    accept a spurious third profile on some seeds, a defect of
    extract_profiles described in this directory's README; the acceptance
    case itself passes.
    """

    name = "profile_extraction"
    SCALES = (-1, -1, -2, -2, -3, -3)
    SEPARATIONS = (3, 5, 7, 9, 11, 13)

    def __init__(self, seed: int):
        self.grid = grid.GridSpec(64)
        self.idx = littlewood_paley.critical_index(3.0, 3.0)
        warm_grid_caches(self.grid)
        phi1 = field.random_band_limited(self.grid, j_lo=1, j_hi=1, seed=21, amplitude=1.0)
        phi2 = field.random_band_limited(self.grid, j_lo=0, j_hi=0, seed=22, amplitude=0.7)
        n_seq = len(self.SCALES)
        ps = profiles.ProfileSet(
            profiles=[phi1, phi2],
            schedules=[[profiles.ScaleCore(0, (0, 0, 0))] * n_seq,
                       [profiles.ScaleCore(m, (s, s, s))
                        for m, s in zip(self.SCALES, self.SEPARATIONS)]],
            remainders=[None] * n_seq)
        self.seq = [profiles.synthesize(ps, n, 2, p=3.0) for n in range(n_seq)]
        self.planted = sorted((littlewood_paley.besov_norm(phi1, self.idx),
                               littlewood_paley.besov_norm(phi2, self.idx)), reverse=True)

    def warm_up(self) -> None:
        self.op(self.seq)

    def round(self, k: int) -> list:
        return [self.seq]

    def op(self, seq):
        return profiles.extract_profiles(seq, j_max=3, threshold=0.01)

    def check(self, seq, rec) -> list[str]:
        if rec.n_profiles() != 2:
            return [f"{rec.n_profiles()} profiles extracted, expected 2"]
        problems = []
        for j, planted in enumerate(self.planted):
            got = littlewood_paley.besov_norm(rec.profiles[j], self.idx)
            if not abs(got - planted) <= PROFILE_TOL * planted:
                problems.append(f"profile {j} norm {got:.6g} vs planted {planted:.6g}")
        return problems

    def array_bytes(self) -> dict[str, int]:
        n = self.grid.n_points
        return {"field": 3 * n**3 * 16, "sequence": len(self.SCALES) * 3 * n**3 * 16}


WORKLOADS = {w.name: w for w in (Picard64, DriftInversion, ProfileExtraction)}
