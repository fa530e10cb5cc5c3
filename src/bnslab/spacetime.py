"""Space-time norms over trajectories: Chemin-Lerner, the two-exponent
scaling-invariant family, and Kato norms.

Time integrals use the composite trapezoid rule on the trajectory's own
grid; suprema are maxima over sampled times.  Singular weights t^a with
a < 0 are evaluated from the first positive sample onward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .field import SpectralField, Trajectory, scaling_transform
from .grid import GridSpec
from .littlewood_paley import BesovIndex, besov_from_blocks, block_lp_norms


def from_fields(times, fields: list[SpectralField]) -> Trajectory:
    times = np.asarray(times, dtype=float)
    if len(fields) != len(times):
        raise ValueError("times and snapshots differ in length")
    grid = fields[0].grid
    coeffs = np.stack([f.coeffs for f in fields])
    return Trajectory(grid, times, coeffs)


def constant_trajectory(u: SpectralField, times) -> Trajectory:
    times = np.asarray(times, dtype=float)
    coeffs = np.broadcast_to(u.coeffs, (len(times),) + u.coeffs.shape).copy()
    return Trajectory(u.grid, times, coeffs)


def rescale_trajectory(traj: Trajectory, m: int) -> Trajectory:
    """u_lambda(t, x) = lambda u(lambda^2 t, lambda x), lambda = 2^m.

    Spatial part via `scaling_transform` (period shrinks), time nodes
    divided by lambda^2 so the sampled history is the same.
    """
    return replace(scaling_transform(traj, m), times=traj.times / 4.0**m)


@dataclass(frozen=True)
class SpaceTimeNormSpec:
    """kind in {lebesgue, chemin_lerner, script, kato, kato1}."""

    kind: str
    besov: BesovIndex
    rho: float = math.inf  # time exponent (lebesgue / chemin_lerner)
    a: float = 1.0  # script family endpoints
    b: float = math.inf
    t1: float = 0.0
    t2: float = math.inf

    def __post_init__(self):
        if self.kind not in {"lebesgue", "chemin_lerner", "script", "kato", "kato1"}:
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if self.rho < 1:
            raise ValueError("time exponent must be >= 1")
        if self.a > self.b:
            raise ValueError("script norm requires a <= b")


# -- block norm matrix -----------------------------------------------------

def block_norm_matrix(traj: Trajectory, p: float) -> np.ndarray:
    """||Delta_j u(t_i)||_{L^p} as an (n_times, n_shells) array."""
    return block_lp_norms(traj, p)


def _spatial_lp(traj: Trajectory, p: float) -> np.ndarray:
    """||u(t_i)||_{L^p} for each time level, one real transform per level."""
    return np.array([SpectralField(traj.grid, c).lp(p) for c in traj.coeffs])


def _window(traj: Trajectory, t1: float, t2: float) -> Trajectory:
    """The samples in [t1, t2], as a view."""
    t2 = min(t2, traj.t_final)
    if t1 < traj.times[0] - 1e-15 or t2 > traj.t_final + 1e-15 or t1 >= t2:
        raise ValueError(f"window [{t1}, {t2}] outside trajectory range")
    lo = np.searchsorted(traj.times, t1 - 1e-15)
    hi = np.searchsorted(traj.times, t2 + 1e-15, side="right")
    if hi <= lo:
        raise ValueError(f"window [{t1}, {t2}] holds no sampled time")
    return Trajectory(traj.grid, traj.times[lo:hi], traj.coeffs[lo:hi])


def _time_norms(values: np.ndarray, times: np.ndarray, rho: float) -> np.ndarray:
    """L^rho norms in time along the leading axis of values: row i is the
    norm on [times[0], times[i]] (cumulative trapezoid, or running maximum
    for rho = inf), so the last row is the norm on the whole window."""
    if math.isinf(rho):
        return np.maximum.accumulate(values, axis=0)
    powered = values**rho
    dt = np.diff(times).reshape((-1,) + (1,) * (values.ndim - 1))
    steps = np.cumsum(dt * (powered[1:] + powered[:-1]) / 2.0, axis=0)
    return np.concatenate([np.zeros_like(powered[:1]), steps]) ** (1.0 / rho)


def _script_prefix(mat: np.ndarray, times: np.ndarray, grid: GridSpec,
                   a: float, b: float, p: float, q: float | None = None) -> np.ndarray:
    """The script norm on every prefix window [times[0], times[i]]."""
    q = p if q is None else q
    sp = -1.0 + 3.0 / p
    return np.maximum.reduce([
        besov_from_blocks(_time_norms(mat, times, r), grid,
                          BesovIndex(sp + (0.0 if math.isinf(r) else 2.0 / r), p, q))
        for r in {a, b}])


# -- the norms -------------------------------------------------------------

def chemin_lerner_norm(
    traj: Trajectory, idx: BesovIndex, rho: float,
    t1: float = 0.0, t2: float = math.inf,
) -> float:
    """|| 2^{js} ||Delta_j u||_{L^rho([t1,t2]; L^p)} ||_{l^q}."""
    win = _window(traj, t1, t2)
    mat = block_norm_matrix(win, idx.p)
    return besov_from_blocks(_time_norms(mat, win.times, rho)[-1], traj.grid, idx)


def lebesgue_besov_norm(
    traj: Trajectory, idx: BesovIndex, rho: float,
    t1: float = 0.0, t2: float = math.inf,
) -> float:
    """|| ||u(t)||_{B^s_{p,q}} ||_{L^rho([t1,t2])} (time norm outside)."""
    win = _window(traj, t1, t2)
    besov = besov_from_blocks(block_norm_matrix(win, idx.p), traj.grid, idx)
    return float(_time_norms(besov, win.times, rho)[-1])


def script_norm(
    traj: Trajectory, a: float, b: float, p: float, q: float | None = None,
    T: float = math.inf,
) -> float:
    """The two-exponent scaling-invariant family on [0, T].

    Realized as the max of the Chemin-Lerner endpoint norms at exponents
    r in {a, b} with regularity s_p + 2/r each; interior exponents
    interpolate between the endpoints.
    """
    if a > b:
        raise ValueError("script norm requires a <= b")
    win = _window(traj, 0.0, T)
    mat = block_norm_matrix(win, p)
    return float(_script_prefix(mat, win.times, traj.grid, a, b, p, q)[-1])


def _kato_sup(times: np.ndarray, values: np.ndarray, q: float, order: int) -> float:
    """sup over t > 0 of t^{-s_q/2} (order 0) or t^{1/2 - s_q/2} (order 1)
    times the sampled values; 0 when no sample is positive."""
    sq = -1.0 + 3.0 / q
    power = -sq / 2.0 + (0.5 if order == 1 else 0.0)
    pos = times > 0.0
    return float(np.max(times[pos] ** power * values[pos], initial=0.0))


def kato_norm(traj: Trajectory, q: float, T: float = math.inf, order: int = 0) -> float:
    """Kato norms on (0, T]: order 0 is sup t^{-s_q/2} ||u(t)||_{L^q},
    order 1 is sup t^{1/2 - s_q/2} ||u(t)||_{B^1_{q,inf}}.

    The sup runs over sampled times t > 0 only.
    """
    if q <= 3:
        raise ValueError("Kato norms require q > 3")
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    lo, hi = np.searchsorted(traj.times, [0.0, T + 1e-15], side="right")
    part = Trajectory(traj.grid, traj.times[lo:hi], traj.coeffs[lo:hi])
    if order == 1:
        values = besov_from_blocks(block_norm_matrix(part, q), traj.grid,
                                   BesovIndex(1.0, q, math.inf))
    else:
        values = _spatial_lp(part, q)
    return _kato_sup(part.times, values, q, order)


def evaluate(traj: Trajectory, spec: SpaceTimeNormSpec) -> float:
    """Dispatch a SpaceTimeNormSpec to the matching norm."""
    if spec.kind == "lebesgue":
        return lebesgue_besov_norm(traj, spec.besov, spec.rho, spec.t1, spec.t2)
    if spec.kind == "chemin_lerner":
        return chemin_lerner_norm(traj, spec.besov, spec.rho, spec.t1, spec.t2)
    if spec.kind == "script":
        return script_norm(traj, spec.a, spec.b, spec.besov.p, spec.besov.q, spec.t2)
    if spec.kind == "kato":
        return kato_norm(traj, spec.besov.p, spec.t2, order=0)
    return kato_norm(traj, spec.besov.p, spec.t2, order=1)


def report_row(traj: Trajectory, spec: SpaceTimeNormSpec) -> str:
    """One CSV row: norm_kind, a, b, s, p, q, t1, t2, value."""
    value = evaluate(traj, spec)
    t2 = min(spec.t2, traj.t_final)
    if spec.kind in ("lebesgue", "chemin_lerner"):
        a, b = spec.rho, ""
    elif spec.kind == "script":
        a, b = spec.a, spec.b
    else:
        a, b = "", ""
    cells = [spec.kind, a, b, spec.besov.s, spec.besov.p, spec.besov.q,
             spec.t1, t2, value]
    return ",".join(str(c) for c in cells)


REPORT_HEADER = "norm_kind,a,b,s,p,q,t1,t2,value"


# -- structural checks -----------------------------------------------------

def embedding_chain_check(
    traj: Trajectory, rho1: float, q: float, rho2: float, idx: BesovIndex,
    t1: float = 0.0, t2: float = math.inf,
) -> dict:
    """Embedding chain between time-inside and time-outside Besov norms.

    For rho1 <= q <= rho2 (q is the Besov third index), Minkowski gives
    CL^{rho1} <= Leb^{rho1} and Leb^{rho2} <= CL^{rho2}, and Hoelder on
    the finite window gives CL^{rho1} <= T^{1/rho1-1/rho2} CL^{rho2}.
    Returns the four values, the Hoelder factor, and a pass flag with
    1e-9 slack.
    """
    if not (1 <= rho1 <= q <= rho2):
        raise ValueError("embedding chain requires 1 <= rho1 <= q <= rho2")
    idx = replace(idx, q=q)
    win = _window(traj, t1, t2)
    mat = block_norm_matrix(win, idx.p)
    besov = besov_from_blocks(mat, traj.grid, idx)
    leb1, leb2 = (float(_time_norms(besov, win.times, r)[-1]) for r in (rho1, rho2))
    cl1, cl2 = (besov_from_blocks(_time_norms(mat, win.times, r)[-1], traj.grid, idx)
                for r in (rho1, rho2))
    T = min(t2, traj.t_final) - t1
    inv_gap = (1.0 / rho1 if not math.isinf(rho1) else 0.0) - (
        1.0 / rho2 if not math.isinf(rho2) else 0.0)
    holder = T**inv_gap
    slack = 1e-9
    ok = (
        cl1 <= leb1 * (1 + slack) + slack
        and cl1 <= holder * cl2 * (1 + slack) + slack
        and leb2 <= cl2 * (1 + slack) + slack
    )
    return {
        "lebesgue_rho1": leb1, "chemin_lerner_rho1": cl1,
        "chemin_lerner_rho2": cl2, "lebesgue_rho2": leb2,
        "holder_factor": holder, "ok": bool(ok),
    }


def kato_interpolation_constant(traj: Trajectory, p: float, T: float = math.inf) -> float:
    """C with ||f||_K_p <= C ||f||_{L^inf B^{s_p}_{p,inf}}^{p/(2p-3)}
    ||f||_{K1_p}^{(p-3)/(2p-3)}; returns the observed ratio."""
    if p <= 3:
        raise ValueError("requires p > 3")
    sp = -1.0 + 3.0 / p
    kato = kato_norm(traj, p, T, order=0)
    win = _window(traj, 0.0, T)
    mat = block_norm_matrix(win, p)
    kato1 = _kato_sup(win.times, besov_from_blocks(
        mat, traj.grid, BesovIndex(1.0, p, math.inf)), p, order=1)
    linf = float(np.max(besov_from_blocks(mat, traj.grid,
                                          BesovIndex(sp, p, math.inf))))
    th1 = p / (2.0 * p - 3.0)
    th2 = (p - 3.0) / (2.0 * p - 3.0)
    denom = linf**th1 * kato1**th2
    return kato / denom if denom > 0 else 0.0
