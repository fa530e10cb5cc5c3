"""Iteration engines: the multilinear Duhamel expansion H_N/Z_N, the drift
operators L[v] and K[v] = L[v]^{-1}, the u_{L,n}/w_k expansion, and the
simple positive-regularity iteration.

Everything is assembled from the one discrete bilinear operator B, so the
expansion identities are algebraic: their residuals inherit only the
solver's fixed-point defect, not quadrature error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import InversionError
from .field import SpectralField, Trajectory, _from_box, _real_physical
from .grid import dealias_box, wavenumber_sq
from .solver import (SolverConfig, _add_box, _bilinear_box, _Levels, bilinear_B,
                     heat_trajectory, nonlinear_term, solve)
from .spacetime import _spatial_lp, _time_norms, script_norm


@dataclass
class ExpansionResult:
    terms: list  # list of Trajectory
    tail: Trajectory
    residual: float  # relative, in the script 1:inf endpoint norm
    term_norms: list = dc_field(default_factory=list)
    tail_norm: float = 0.0

    def manifest_rows(self) -> str:
        lines = ["term,norm"]
        for i, v in enumerate(self.term_norms):
            lines.append(f"term_{i},{v}")
        lines.append(f"tail,{self.tail_norm}")
        lines.append(f"residual,{self.residual}")
        return "\n".join(lines)


@dataclass(frozen=True)
class OperatorHandle:
    """Defines L[v]w = w - 2 B_sigma(v, w) and its inverse K[v]."""

    drift: Trajectory


# K[v] fixed point: the relative update that counts as converged, and the
# iterations allowed per time slab
_INVERSION_TOL = 1e-10
_INVERSION_ITERS = 80
# early verdict on a slab round: from iteration _VERDICT_FROM on, the rate
# is the geometric mean of the last _VERDICT_SPAN update ratios
_VERDICT_FROM = 5
_VERDICT_SPAN = 4


def _rel_script(diff: Trajectory, ref: float, p: float) -> float:
    return script_norm(diff, 1.0, math.inf, p) / max(ref, 1e-300)


def _check_duhamel_order(N: int, p: float) -> None:
    """`duhamel_expand`'s supported orders 2 <= N <= 4 and its guard p > 3(N-1)."""
    if not 2 <= N <= 4:
        raise ValueError("duhamel_expand supports 2 <= N <= 4")
    if p <= 3 * (N - 1):
        raise ValueError(f"need p > 3(N-1) = {3 * (N - 1)}, got p = {p}")


def duhamel_expand(u: Trajectory, u0: SpectralField, N: int,
                   p: float = 10.0) -> ExpansionResult:
    """u = H_N + Z_N with H_N multilinear in u_L = e^{tL}u0 only.

    H_2 = u_L, Z_2 = B(u,u); each step substitutes u = u_L + B(u,u) into
    the lowest-order tail term.  Supported for 2 <= N <= 4 under the
    integrability guard p > 3(N-1).
    """
    _check_duhamel_order(N, p)
    u_lin = heat_trajectory(u0, u.times)
    q = bilinear_B(u, u)  # B(u,u)
    terms = [u_lin]
    if N == 2:
        tail = q
    else:
        b_ll = bilinear_B(u_lin, u_lin)
        terms.append(b_ll)
        if N == 3:
            tail = 2.0 * bilinear_B(u_lin, q) + bilinear_B(q, q)
        else:
            terms.append(2.0 * bilinear_B(u_lin, b_ll))
            b_qq = bilinear_B(q, q)
            tail = (4.0 * bilinear_B(u_lin, bilinear_B(u_lin, q))
                    + 2.0 * bilinear_B(u_lin, b_qq) + b_qq)
    ref = script_norm(u, 1.0, math.inf, p)
    residual = _rel_script(u - sum(terms[1:], terms[0]) - tail, ref, p)
    term_norms = [script_norm(t, 1.0, math.inf, p) for t in terms]
    tail_p = p / N
    tail_norm = (script_norm(tail, tail_p, tail_p, tail_p)
                 if tail_p > 1 else script_norm(tail, 1.0, 1.0, 3.0))
    return ExpansionResult(terms, tail, residual, term_norms, tail_norm)


# -- L[v] and K[v] -----------------------------------------------------------

def apply_L(handle: OperatorHandle, w: Trajectory) -> Trajectory:
    """L[v]w = w - 2 B_sigma(v, w), with B summed from the dealiased box."""
    return _add_box(w, -2.0 * _bilinear_box(handle.drift, w), np.empty_like(w.coeffs))


def _round_fails(deltas: list[float], scale: float) -> bool:
    """True once the updates of a slab round so far condemn it: the last
    exceeds 4x the one before, or (early verdict) their rate r is at least
    1 or the last relative update times r^(iterations left) is still above
    the tolerance, so the budget cannot suffice."""
    it = len(deltas)
    if it > 1 and deltas[-1] > 4.0 * deltas[-2]:
        return True
    if it < _VERDICT_FROM:
        return False
    r = (deltas[-1] / deltas[-1 - _VERDICT_SPAN]) ** (1.0 / _VERDICT_SPAN)
    return r >= 1.0 or deltas[-1] / scale * r ** (_INVERSION_ITERS - it) > _INVERSION_TOL


def _slab_bounds(nt: int, n_slabs: int) -> np.ndarray:
    """Start indices of n_slabs near-equal slabs of nt time levels, then nt."""
    return np.linspace(0, nt, n_slabs + 1).astype(int)


def invert_K(handle: OperatorHandle, z: Trajectory) -> Trajectory:
    """Solve L[v]w = z by the fixed point w <- z + 2 B_sigma(v, w), held as in
    `solver.solve`: z is only read, and d = w - z (2 B_sigma(v, w) on settled
    levels, 0 elsewhere) lives on the dealiased box, where the update size
    and the final check L[v]w - z = d - 2 B_sigma(v, w) are taken.  v is
    transformed to real samples once, for every application of B.

    The fixed point runs on time slabs: B_sigma is causal, so slab [lo, hi)
    applies B to the levels before hi only, and once w is converged on
    [0, t1] the later slabs only ever read settled values.
    A round fails when an update exceeds 4x the previous one, when the
    iteration budget runs out, or as soon as the rate of the updates shows
    that the budget cannot suffice.  Then the slab count doubles, shrinking
    the local drift norm, up to 64 slabs or until every slab holds one
    time level, after which doubling leaves the partition unchanged.
    """
    v, grid, times, nt, n = handle.drift, z.grid, z.times, z.n_times, z.grid.n_points
    vp = _real_physical(v.coeffs, n)
    scale = max(float(np.max(np.abs(z.coeffs))), 1e-300)
    n_slabs = 1
    while True:
        d = np.zeros((nt, 3) + dealias_box(grid)[3].shape, dtype=complex)
        w = Trajectory(grid, times, _Levels(n, d, z.coeffs))
        bounds = _slab_bounds(nt, n_slabs)
        ok = True
        for s in range(n_slabs):
            lo, hi = bounds[s], bounds[s + 1]
            if hi <= lo:
                continue
            v_s = Trajectory(grid, times[:hi], v.coeffs[:hi])
            w_s = Trajectory(grid, times[:hi], _Levels(n, d[:hi], z.coeffs[:hi]))
            deltas = []
            for _ in range(_INVERSION_ITERS):
                d_next = 2.0 * _bilinear_box(v_s, w_s, vp[:hi])
                delta = float(np.max(np.abs(d_next - d[:hi])))
                d[lo:hi] = d_next[lo:hi]
                if delta / scale < _INVERSION_TOL:
                    break
                deltas.append(delta)
                if _round_fails(deltas, scale):
                    ok = False
                    break
            else:
                ok = False
            if not ok:
                break
        if ok:
            rel = float(np.max(np.abs(d - 2.0 * _bilinear_box(v, w, vp)))) / scale
            if rel < 100 * _INVERSION_TOL:
                del vp  # the drift's samples go before the result is made
                return _add_box(z, d, np.empty_like(z.coeffs))
        if n_slabs >= min(nt, 64):
            break
        n_slabs *= 2
    raise InversionError(
        f"K[v] fixed point failed to contract within {n_slabs} time slabs")


def heat_drift_defect(handle: OperatorHandle, z: Trajectory) -> float:
    """Relative defect of (d/dt - Lap_v) K[v]z = (d/dt - Lap) z.

    Lap_v = Lap - 2 P grad.(v (x)_sigma .); time derivatives by central
    differences on the trajectory grid, compared in the max coefficient
    norm over interior times.
    """
    w = invert_K(handle, z)
    k2 = wavenumber_sq(z.grid)
    g = _from_box(z.grid.n_points, nonlinear_term(handle.drift, w))

    def heat_op(traj: Trajectory, extra=None):
        c = traj.coeffs
        dt = np.diff(traj.times)[:, None, None, None, None]
        ddt = (c[2:] - c[:-2]) / (dt[1:] + dt[:-1])
        out = ddt + k2[None, None] * c[1:-1]
        if extra is not None:
            out = out + 2.0 * extra[1:-1]
        return out

    lhs = heat_op(w, extra=g)  # (d/dt - Lap)w + 2 P grad.(v (x) w)
    rhs = heat_op(z)
    scale = max(float(np.max(np.abs(rhs))), 1e-300)
    return float(np.max(np.abs(lhs - rhs))) / scale


# -- the u_{L,n} / w_k expansion ----------------------------------------------

def expand_solution(u0: SpectralField, k: int, cfg: SolverConfig) -> ExpansionResult:
    """Decompose u = sum_{n=0}^k u_{L,n} + w_k at integrability p = 3*2^k - 2.

    Construction: u_{L,0} = e^{tL}u0, w_0 = B(u,u); then with the
    accumulated drift v_{n+1} = sum_{j<=n} u_{L,j},
        z_n     = B(u_{L,n}, u_{L,n}) + B(w_n, w_n),
        u_{L,n+1} = K[v_{n+1}] B(u_{L,n}, u_{L,n}),
        w_{n+1}   = K[v_{n+1}] B(K[v_{n+1}] z_n, K[v_{n+1}] z_n).
    The residual measures the reconstruction against the Picard solution.
    """
    p = 3.0 * 2**k - 2.0
    u, _, converged = solve(u0, cfg, p)
    if not converged:
        raise InversionError("base Picard solve diverged; datum too large")
    terms = [heat_trajectory(u0, u.times)]
    w = bilinear_B(u, u)
    drift = terms[0]
    for n in range(k):
        handle = OperatorHandle(drift)
        b_ll = bilinear_B(terms[n], terms[n])
        z = b_ll + bilinear_B(w, w)
        u_next = invert_K(handle, b_ll)
        kz = invert_K(handle, z)
        w = invert_K(handle, bilinear_B(kz, kz))
        terms.append(u_next)
        drift = drift + u_next
    ref = script_norm(u, 1.0, math.inf, p)
    residual = _rel_script(u - sum(terms[1:], terms[0]) - w, ref, p)
    term_norms = [script_norm(terms[n], 1.0, math.inf, p / 2**n)
                  for n in range(k + 1)]
    pk = 6.0 * p / (2.0 * p + 1.0)
    tail_norm = script_norm(w, math.inf, math.inf, pk, q=math.inf)
    return ExpansionResult(terms, w, residual, term_norms, tail_norm)


# -- simple iteration ---------------------------------------------------------

def simple_iteration(u: Trajectory, u0: SpectralField, j_steps: int) -> list[dict]:
    """Iterate v <- e^{tL}u0 + B(v,v) + 2B_sigma(v,w), w <- B(w,w) from
    v0 = e^{tL}u0 on u's times and w0 = B(u,u), for the solution u from u0.

    Each step preserves u = v + w up to the accumulated solver defect, and its
    record holds the decomposition defect and the monitored norms (sup-in-time
    L^p of v, space-time L^3 of w)."""
    u_lin = heat_trajectory(u0, u.times)
    v, w = u_lin, bilinear_B(u, u)
    u_ref = v + w
    records = []
    for j in range(1, j_steps + 1):
        v, w = u_lin + bilinear_B(v, v) + 2.0 * bilinear_B(v, w), bilinear_B(w, w)
        defect = script_norm(u_ref - v - w, 1.0, math.inf, 3.0)
        sup_lp = float(np.max(_spatial_lp(v, 3.0)))
        w_l3 = float(_time_norms(_spatial_lp(w, 3.0), w.times, 3.0)[-1])
        records.append({"j": j, "defect": defect, "v_sup_l3": sup_lp,
                        "w_l3": w_l3})
    return records
