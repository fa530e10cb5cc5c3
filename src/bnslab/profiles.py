"""Profile decompositions: dyadic scale/core operators, synthesis, a constructive
extractor, orthogonality diagnostics, and the evolved decomposition of a whole
set in one call, one record per index, each profile solved once per scale.

The extractor holds candidates and profiles on support boxes (`_box`) until it
returns them, and scales, unscales and tail-averages only on boxes, by the
operators' float operations: only the sign of a zero it skips can differ.

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
import operator
from dataclasses import dataclass, replace

import numpy as np

from .errors import GridError
from .field import (SpectralField, _Field, _lattice_box, _map, _occupied, _real_physical,
                    dyadic_shift)
from .grid import GridSpec, TWO_PI, wavevectors
from .littlewood_paley import (BesovIndex, _block_lp_norms, _blocks, besov_from_blocks,
                               besov_norm, block_lp_norms, critical_index)
from .solver import SolverConfig, heat_trajectory, solve
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
        return ScaleCore(self.m + other.m, tuple(
            _on_grid(self.lam * o, "composed") + c
            for o, c in zip(other.core, self.core)))

    def inverse(self) -> "ScaleCore":
        """ScaleCore with Lambda_inv Lambda = identity; requires the
        rescaled core to stay on the grid."""
        return ScaleCore(-self.m, tuple(_on_grid(-c / self.lam, "inverse")
                                        for c in self.core))


def _on_grid(x: float, what: str) -> int:
    """x as a grid offset; raises GridError unless it is an integer."""
    if abs(x - round(x)) > 1e-9:
        raise GridError(f"{what} core leaves the grid")
    return round(x)


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
    instead of raising.  The phase is evaluated at every mode after the
    shift, as `translate` does (on the shifted lattice only, zeros off it
    would change sign), and multiplied into the shift's new array.
    """
    shift = -sc.m  # lambda = 2^m spreads; frequency moves down by m
    if normalization == "critical":
        amp = 2.0 ** (-shift * critical_index(p, p).s)
    elif normalization == "ns":
        amp = 2.0**shift
    else:
        raise ValueError(f"unknown normalization {normalization!r}")
    out = dyadic_shift(u, shift, amplitude=amp, strict=strict)
    if out is u or tuple(sc.core) == (0, 0, 0):  # never write into the input
        return translate(out, sc.core)
    np.multiply(out.coeffs, _phase(out.grid, sc.core), out=out.coeffs)
    return out


def translate(u: _Field, core: tuple[int, int, int]) -> _Field:
    """u(x - x_c): every mode, as any may be populated, times e^{-i k.x_c}."""
    if tuple(core) == (0, 0, 0):
        return u
    return replace(u, coeffs=u.coeffs * _phase(u.grid, core))


def _phase(grid: GridSpec, core: tuple[int, int, int], rows=(slice(None),) * 3) -> np.ndarray:
    """e^{-i k.x_c} at the modes rows[0] x rows[1] x rows[2] (fftn rows per axis), from
    one 1-D wavenumber row by the float operations of the `wavevectors` form, element
    for element; np.exp runs in two x-slabs on the level pool (one per row costs more)."""
    x = np.asarray(core, dtype=float) * (grid.period / grid.n_points)
    k = wavevectors(grid)[2, 0, 0].astype(float) * (TWO_PI / grid.period)
    kx, ky, kz = (k[r] for r in rows)
    out, step = np.empty((len(kx), len(ky), len(kz)), dtype=complex), -(-len(kx) // 2) or 1
    _map(lambda s: np.exp(-1j * ((kx[s, None, None] * x[0] + ky[None, :, None] * x[1])
                                 + kz * x[2]), out=out[s]),
         [slice(i, i + step) for i in range(0, len(kx), step)])
    return out


@dataclass
class ProfileSet:
    profiles: list  # list of SpectralField
    schedules: list  # per profile: list over n of ScaleCore
    remainders: list  # per n: SpectralField (or None)
    complete: bool = True

    def n_profiles(self) -> int:
        return len(self.profiles)

    def _remainder(self, n: int) -> SpectralField | None:
        """psi_n, or None when the set holds no remainder at index n."""
        return self.remainders[n] if self.remainders and n < len(self.remainders) else None

    def manifest_rows(self) -> str:
        lines = ["profile,n,m,core_x,core_y,core_z"]
        for j, sched in enumerate(self.schedules):
            for n, sc in enumerate(sched):
                lines.append(f"{j},{n},{sc.m},{sc.core[0]},{sc.core[1]},{sc.core[2]}")
        return "\n".join(lines)


def synthesize(ps: ProfileSet, n: int, J: int | None = None, p: float = 3.0,
               normalization: str = "critical") -> SpectralField:
    """f_n = sum_{j<J} Lambda_{j,n} phi_j + psi_n."""
    return _synthesis(ps, n, J, p, normalization)[0]


def _synthesis(ps: ProfileSet, n: int, J: int | None, p: float,
               normalization: str = "critical") -> tuple[SpectralField, list]:
    """(f_n, [Lambda_{j,n} phi_j for j < J] + [psi_n if the set holds one])."""
    J = ps.n_profiles() if J is None else min(J, ps.n_profiles())
    terms = [scale_op(ps.schedules[j][n], ps.profiles[j], p, normalization)
             for j in range(J)]
    rem = ps._remainder(n)
    terms += [] if rem is None else [rem]
    if not terms:
        raise GridError("nothing to synthesize")
    return sum(terms[1:], terms[0]), terms


# -- diagnostics -------------------------------------------------------------

def pythagorean_gap(ps: ProfileSet, n: int, idx: BesovIndex) -> float:
    """epsilon(n) = | ||f_n||^p - sum_j ||Lambda_{j,n} phi_j||^p - ||psi_n||^p |.

    Each summand norm is evaluated on the grid where it actually lives
    (after scaling); the scaling operator is an exact isometry in the
    continuum, so this agrees with the textbook statement there while
    keeping quadrature drift out of the orthogonality diagnostic.
    """
    f_n, terms = _synthesis(ps, n, None, idx.p)
    total = besov_norm(f_n, idx) ** idx.p
    for term in terms:
        total -= besov_norm(term, idx) ** idx.p
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
    sp = critical_index(p, p).s
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

def _dominant_shell(weights: np.ndarray, grid: GridSpec, idx: BesovIndex) -> int:
    js = list(grid.shells)
    scores = [2.0 ** (j * idx.s) * w for j, w in zip(js, weights)]
    return js[int(np.argmax(scores))]


def _peak_cell(u: SpectralField) -> tuple[int, int, int]:
    phys = u.physical()
    mag = np.sum(np.multiply(phys, phys, out=phys), axis=0)
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

    The tail residuals' block norms, each index's schedule, the core
    alignment and the residual update run one task per index (`field._map`);
    the tail average stays serial, so its sum keeps its order and bytes.
    """
    grid = seq[0].grid
    idx = critical_index(p, p)
    idx_q = critical_index(6.0, 6.0)
    residual = [replace(f, coeffs=f.coeffs.copy()) for f in seq]
    tail = range(len(seq) // 2, len(seq))
    profiles: list[tuple] = []  # boxes until they are returned
    schedules: list[list[ScaleCore]] = []
    while True:
        norms = dict(zip(tail, _map(lambda n: _block_lp_norms(residual[n], (idx_q.p, idx.p)),
                                    tail)))
        complete = float(np.mean([besov_from_blocks(norms[n][:, 0], grid, idx_q)
                                  for n in tail])) < threshold
        if complete or len(profiles) == j_max:
            break
        # per-index schedule from the dominant concentration
        sched = _map(lambda n: ScaleCore(
            1 - _dominant_shell(norms[n][:, 1] if n in tail else
                                block_lp_norms(residual[n], idx.p), grid, idx),
            _peak_cell(residual[n])), range(len(residual)))
        sched, cand = _fit(residual, sched, tail, p, 2)
        if besov_norm(_full(grid, cand), idx) < threshold:
            complete = True
            break
        if any(orthogonality_gap(sched[-1], s[-1], grid) < 4.0 for s in schedules):
            break
        profiles.append(cand)
        schedules.append(sched)
        _update(residual, sched, cand, p, operator.isub)
    cand = None  # a rejected candidate would stay alive through back-fitting
    # back-fitting: refit each profile on the residual with its own
    # contribution restored, cleaning up greedy cross-contamination
    for _ in range(2):
        for jj in range(len(profiles)):
            _update(residual, schedules[jj], profiles[jj], p, operator.iadd)
            schedules[jj], profiles[jj] = _fit(residual, schedules[jj], tail, p, 1)
            _update(residual, schedules[jj], profiles[jj], p, operator.isub)
    # gauge: absorb the last-index schedule into each profile so a
    # constant (identity) schedule round-trips to the planted field
    for jj in range(len(profiles)):
        try:
            ref_inv = schedules[jj][-1].inverse()
            profiles[jj] = _scaled(schedules[jj][-1], profiles[jj], grid, p)
            schedules[jj] = [s.compose(ref_inv) for s in schedules[jj]]
        except GridError:
            pass
    profiles = [_full(grid, box) for box in profiles]
    order = np.argsort([-besov_norm(f, idx) for f in profiles])
    profiles = [profiles[i] for i in order]
    schedules = [schedules[i] for i in order]
    return ProfileSet(profiles, schedules, list(residual), complete)


def _fit(residual: list[SpectralField], sched: list[ScaleCore], tail: range, p: float,
         rounds: int) -> tuple[list[ScaleCore], tuple]:
    """Tail-average the unscaled residuals into a candidate box, then `rounds`
    times refine every core by cross-correlating its residual against the
    scaled candidate (raw peak cells are noisy when several bumps coexist)
    and rebuild the candidate.  Each tail residual is scanned once."""
    grid, boxes = residual[0].grid, dict(zip(tail, _map(lambda n: _box(residual[n].coeffs), tail)))
    cand = _tail_average(boxes, sched, tail, grid, p)
    for _ in range(rounds):
        sched = _map(lambda n: ScaleCore(sched[n].m, _align_core(
            residual[n], cand, sched[n].m, p)), range(len(residual)))
        cand = _tail_average(boxes, sched, tail, grid, p)
    return sched, cand


def _box(c: np.ndarray, rows: tuple | None = None) -> tuple:
    """The support box (rows, block) of c (..., X, Y, Z), whose axes hold the fftn
    rows `rows` (every row when None): per axis the rows holding a nonzero value,
    by one scan, and c on their product set; c is zero off that set."""
    at = tuple(np.flatnonzero(mask) for mask in _occupied(c))
    return tuple(at if rows is None else map(np.take, rows, at)), c[(Ellipsis,) + np.ix_(*at)]


def _full(grid: GridSpec, box: tuple) -> SpectralField:
    """The field of a support box."""
    n = grid.n_points
    c = np.zeros(box[1].shape[:-3] + (n, n, n), dtype=complex)
    c[(Ellipsis,) + np.ix_(*box[0])] = box[1]
    return SpectralField(grid, c)


def _scaled(sc: ScaleCore, box: tuple, grid: GridSpec, p: float) -> tuple:
    """The box of scale_op(sc, u, p, strict=False) for u's box, by its float
    operations: amp * u at the rows the shift keeps, times the phase where they land."""
    _, vals, at = _lattice_box(*box, grid.n_points, -sc.m)
    vals *= 2.0 ** (sc.m * critical_index(p, p).s)
    if tuple(sc.core) != (0, 0, 0):
        vals *= _phase(grid, sc.core, at)
    return at, vals


def _unscale(sc: ScaleCore, box: tuple, grid: GridSpec, p: float) -> tuple:
    """Inverse of `_scaled`, dropping modes that do not descend from the coarse
    lattice (weak-limit filtering): the box of translate(u, -x_c) then a non-strict
    dyadic_shift by m, amp * (u * phase) with the phase at the kept rows."""
    rows, vals, at = _lattice_box(*box, grid.n_points, sc.m)
    if tuple(sc.core) != (0, 0, 0):
        vals *= _phase(grid, tuple(-c for c in sc.core), rows)
    if sc.m != 0:  # dyadic_shift leaves m = 0 unmultiplied
        vals *= 2.0 ** (-sc.m * critical_index(p, p).s)
    return at, vals


def _update(residual: list[SpectralField], sched: list[ScaleCore], profile: tuple,
            p: float, op) -> None:
    """op(residual[n].coeffs, Lambda_n profile) in place on the box `_scaled` gives,
    one task per index n: operator.iadd restores a profile box, operator.isub
    deflates it."""
    def update(n: int) -> None:
        rows, vals = _scaled(sched[n], profile, residual[n].grid, p)
        at = (Ellipsis,) + np.ix_(*rows)
        residual[n].coeffs[at] = op(residual[n].coeffs[at], vals)
    _map(update, range(len(sched)))


def _tail_average(boxes: dict, sched: list[ScaleCore], tail: range, grid: GridSpec,
                  p: float) -> tuple:
    """The box of the mean of the tail's unscaled residual boxes, summed in index
    order on the union of their rows and trimmed to the rows the mean occupies."""
    parts = [_unscale(sched[n], boxes[n], grid, p) for n in tail]
    rows = tuple(np.unique(np.concatenate(axis)) for axis in zip(*(at for at, _ in parts)))
    acc = np.zeros(parts[0][1].shape[:-3] + tuple(map(len, rows)), dtype=complex)
    for at, vals in parts:
        acc[(Ellipsis,) + np.ix_(*map(np.searchsorted, rows, at))] += vals
    acc *= 1.0 / len(tail)
    return _box(acc, rows)


def _align_core(r: SpectralField, cand: tuple, m: int, p: float) -> tuple[int, int, int]:
    """Grid shift maximizing the circular cross-correlation of r with the candidate
    box scaled by `_scaled` at scale m, formed and inverted only at that box's rows,
    in the x planes the inverse reads."""
    n = r.grid.n_points
    (tx, ty, tz), w = _scaled(ScaleCore(m), cand, r.grid, p)
    x = tx <= n // 2
    w, tx = np.conj(w[..., x, :, :]), tx[x]
    spec = np.zeros((int(np.max(tx, initial=-1)) + 1,) + w.shape[-2:], dtype=complex)
    spec[tx] = np.sum(np.multiply(w, r.coeffs[(Ellipsis,) + np.ix_(tx, ty, tz)], out=w), axis=0)
    # a periodic scaled candidate gives exactly tied correlation maxima, and
    # rounding decides which one argmax returns: the transpose transforms the
    # last axis first, the order under which test_criterion_12_extraction_roundtrip
    # finds its two profiles (untransposed, it finds three)
    corr = _real_physical(spec.T, n, (tz, ty, len(spec))).T
    return tuple(int(i) for i in np.unravel_index(np.argmax(corr), corr.shape))


# -- evolved decomposition -----------------------------------------------------

_EVOLVE_Q = 5.0  # an evolved record's script norms: the spatial integrability
# and the l^q exponent over the shells (the time exponents are 2 and inf)


def evolve_decomposition(ps: ProfileSet, cfg: SolverConfig, p: float = 3.0) -> list[dict]:
    """Per index n of the set, in order, the script 2:inf norms of u_n = NS(f_n),
    f_n synthesized in the NS normalization, and of r_n = u_n - sum Lambda U_j - w_n:
    each profile evolves once per scale m_{j,n} on its own dilated time grid (exact
    solver equivariance) and is held until the last index that uses it, and the
    remainder w_n rides the heat flow."""
    last = {(j, sc.m): n for j, sched in enumerate(ps.schedules) for n, sc in enumerate(sched)}
    records, held = [], {}
    for n in range(len(ps.schedules[0]) if ps.schedules else len(ps.remainders or ())):
        records.append(_evolve_index(ps, cfg, n, p, held))
        held = {key: out for key, out in held.items() if last[key] > n}
    return records


def _evolve_index(ps: ProfileSet, cfg: SolverConfig, n: int, p: float, held: dict) -> dict:
    """Index n's record; `held` maps (j, m) to phi_j's sub-solve at scale m,
    which nothing may write into (`scale_op` returns it at m = 0, core 0)."""
    u_n, _, converged = solve(synthesize(ps, n, p=p, normalization="ns"), cfg, p)
    if not converged:
        return {"diverged": True, "r_norm": math.inf, "n": n}
    total = None
    for j in range(ps.n_profiles()):
        sc = ps.schedules[j][n]
        if (j, sc.m) not in held:
            held[j, sc.m] = solve(ps.profiles[j], replace(cfg, dt=cfg.dt / sc.lam**2), p)
        U_j, _, converged = held[j, sc.m]
        if not converged:
            return {"diverged": True, "r_norm": math.inf, "n": n, "which": j}
        # Lambda U_j(t/lambda^2) on the dilated time grid, dropping the modes that leave
        # the band: harmonics of the coarse solution that the fine grid dealiases
        total_j = replace(scale_op(sc, U_j, p, "ns", strict=False),
                          times=U_j.times * sc.lam**2)
        total = total_j if total is None else total + total_j
    rem = ps._remainder(n)
    if rem is not None:
        w = heat_trajectory(rem, u_n.times)
        total = w if total is None else total + w
    r_norm = script_norm(u_n - total, 2.0, math.inf, _EVOLVE_Q)
    return {"diverged": False, "n": n, "r_norm": r_norm,
            "u_norm": script_norm(u_n, 2.0, math.inf, _EVOLVE_Q)}
