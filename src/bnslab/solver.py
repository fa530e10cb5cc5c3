"""Mild-solution machinery: the bilinear Duhamel operator B and one Picard
solver, `solve`, for w = e^{tL}w0 + B(w,w) + 2B_sigma(v,w) + H(f) with
optional drifts v and forcings f.  It returns the trajectory, the residuals
and whether the iteration converged; `picard_solve` is `solve` followed by
`monitor`, the norm report that `bnslab solve` writes.

Time integrals against the heat kernel use an exponential-integrator
trapezoid: over each step the nonlinearity is interpolated linearly and
integrated against e^{(t-s)|k|^2} exactly per mode, so the only error is
quadrature of the nonlinearity, never stiffness of the kernel.

B runs on the dealiased box of `grid.dealias_box`: a dealiased product of
real fields has no mode outside it, and its k_z < 0 half mirrors the rest.
`bilinear_B` expands B to the full fftn layout; the fixed points `solve` and
`expansion.invert_K` keep it on the box, beside a full-layout base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import GridError
from .field import (SpectralField, Trajectory, _box_spectral, _from_box, _map,
                    _project, _real_physical, leray_project)
from .grid import TWO_PI, dealias_box, wavenumber_sq
from .littlewood_paley import BesovIndex, besov_from_blocks, critical_index
from .spacetime import _script_prefix, block_norm_matrix, script_norm


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    n_steps: int
    picard_tol: float = 1e-8
    max_picard_iters: int = 40

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.max_picard_iters < 1:
            raise ValueError(
                f"max_picard_iters must be >= 1, got {self.max_picard_iters}")
        if not (math.isfinite(self.picard_tol) and self.picard_tol > 0):
            raise ValueError(
                f"picard_tol must be finite and positive, got {self.picard_tol}")

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)


@dataclass
class BlowupReport:
    """Norm monitoring along a trajectory; growth is a signature, never a
    claim of singularity."""

    times: np.ndarray
    besov_norms: np.ndarray  # ||u(t_i)|| in the monitoring index
    running_script: np.ndarray  # script norm over [0, t_i]
    classification: str  # decaying | growing | picard_diverged
    picard_residuals: list = dc_field(default_factory=list)

    def rows(self) -> str:
        lines = ["t,besov_norm,running_script_norm,classification"]
        for i, t in enumerate(self.times):
            lines.append(
                f"{t},{self.besov_norms[i]},{self.running_script[i]},{self.classification}"
            )
        return "\n".join(lines)


# -- building blocks --------------------------------------------------------

def heat_trajectory(u0: SpectralField, times) -> Trajectory:
    """t -> e^{t Laplacian} u0 sampled on the given time grid."""
    times = np.asarray(times, dtype=float)
    k2 = wavenumber_sq(u0.grid)
    mult = np.exp(-np.multiply.outer(times, k2))  # (nt, N, N, N)
    coeffs = mult[:, None] * u0.coeffs[None]
    return Trajectory(u0.grid, times, coeffs)


# real samples per `_box_spectral` call of `nonlinear_term`: a level's six
# products go in groups of m = min(6, max(1, _PRODUCT_POINTS // N^3))
_PRODUCT_POINTS = 2**18
_PAIRS = [(a, b) for a in range(3) for b in range(a, 3)]


def nonlinear_term(u: Trajectory, v: Trajectory, u_phys=None) -> np.ndarray:
    """g(t) = P grad.(u (x)_sigma v)(t) for all sampled times, as coefficients
    on the dealiased box |n_x|, |n_y| <= K, 0 <= n_z <= K, (nt, 3, 2K+1, 2K+1, K+1).

    The symmetrized tensor product is formed pointwise in physical space
    and dealiased by the spherical 2/3 rule (|n| < N/3, so |n_i| <= K) before
    differentiation; the k_z < 0 half of the real product mirrors the box.
    Each time level is one task on `field._map`'s pool and fills its own slice
    of g; only u_phys, u's real samples if given, spans more than one level.
    """
    if u.grid != v.grid:
        raise GridError("trajectories live on different grids")
    grid = u.grid
    n = grid.n_points
    K, nn, _, mask = dealias_box(grid)
    k = nn * (TWO_PI / grid.period)
    g = np.zeros((u.n_times, 3) + mask.shape, dtype=np.complex128)
    m = min(6, max(1, _PRODUCT_POINTS // n**3))

    def level(i: int) -> None:
        up = _real_physical(u.coeffs[i], n) if u_phys is None else u_phys[i]
        vp = up if v is u else _real_physical(v.coeffs[i], n)
        tabs = np.empty((m, n, n, n))
        for s in range(0, 6, m):
            pairs = _PAIRS[s:s + m]
            for t, (a, b) in zip(tabs, pairs):
                t[...] = up[a] * up[b] if v is u else 0.5 * (up[a] * vp[b] + vp[a] * up[b])
            for (a, b), that in zip(pairs, _box_spectral(tabs[:len(pairs)], K) * mask):
                g[i, a] += 1j * k[b] * that
                if b != a:
                    g[i, b] += 1j * k[a] * that
        _project(nn, g[i])

    _map(level, range(u.n_times))
    return g


def _etd_weights(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exponential trapezoid weights for one step of length dt, theta = |k|^2 dt.

    int_0^dt e^{-(dt-s)|k|^2} [g_i (1-s/dt) + g_{i+1} s/dt] ds
      = dt (c_lo g_i + c_hi g_{i+1}),
    with c_hi = (theta - 1 + E)/theta^2, c_lo = (1 - (1+theta)E)/theta^2,
    E = e^{-theta}.  Small-theta branch uses the series to avoid cancellation.
    """
    E = np.exp(-theta)
    small = theta < 1e-4
    th = np.where(small, 1.0, theta)
    c_hi = np.where(small, 0.5 - theta / 6.0 + theta**2 / 24.0,
                    (th - 1.0 + E) / th**2)
    c_lo = np.where(small, 0.5 - theta / 3.0 + theta**2 / 8.0,
                    (1.0 - (1.0 + th) * E) / th**2)
    return E, c_lo, c_hi


def duhamel_integral(k2: np.ndarray, times: np.ndarray, g: np.ndarray,
                     sign: float = 1.0) -> np.ndarray:
    """t -> sign * int_0^t e^{(t-s) Laplacian} g(s) ds on the sampling grid,
    for g on any layout whose modes have |k|^2 = k2, written over g and
    returned (one original level held aside, ETD weights once per step size)."""
    held = g[0].copy()
    g[0] = 0.0
    steps = np.diff(times).tolist()
    weights = {dt: _etd_weights(k2 * dt) for dt in set(steps)}
    for i, dt in enumerate(steps):
        E, c_lo, c_hi = weights[dt]
        lo, held = held, g[i + 1].copy()
        g[i + 1] = E * g[i] + dt * (c_lo * lo + c_hi * held)
    g *= sign
    return g


def _bilinear_box(u: Trajectory, v: Trajectory, u_phys=None) -> np.ndarray:
    """B(u,v) on the dealiased box (nt, 3, 2K+1, 2K+1, K+1); u_phys as in `nonlinear_term`."""
    k2 = dealias_box(u.grid)[2]
    return duhamel_integral(k2, u.times, nonlinear_term(u, v, u_phys), sign=-1.0)


def bilinear_B(u: Trajectory, v: Trajectory) -> Trajectory:
    """B(u,v)(t) = -int_0^t e^{(t-t')Laplacian} P grad.(u (x)_sigma v) dt'."""
    return Trajectory(u.grid, u.times, _from_box(u.grid.n_points, _bilinear_box(u, v)))


def forcing_integral(f: Trajectory) -> Trajectory:
    """H(f)(t) = int_0^t e^{(t-s)Laplacian} P f(s) ds (Leray applied per time)."""
    g = leray_project(f).coeffs
    g[:, :, 0, 0, 0] = 0.0
    return Trajectory(f.grid, f.times, duhamel_integral(wavenumber_sq(f.grid), f.times, g))


# -- Picard solver -----------------------------------------------------------

class _Levels:
    """Coefficients base[i] + _from_box(box[i]) (the box part alone without
    base), made when level i is read: the coefficient array of a trajectory
    that `nonlinear_term` and `block_lp_norms` read one level per task.  Its
    `reshape` is the box's, which perfbench samples to tell matrices apart."""

    def __init__(self, n: int, box: np.ndarray, base: np.ndarray | None = None):
        self.n, self.box, self.base, self.reshape = n, box, base, box.reshape
        self.shape = box.shape[:-3] + (n, n, n)

    def __getitem__(self, i) -> np.ndarray:
        level = _from_box(self.n, self.box[i])
        return level if self.base is None else np.add(self.base[i], level, out=level)


def _add_box(base: Trajectory, box: np.ndarray, out: np.ndarray) -> Trajectory:
    """base + _from_box(box), a fixed point's last iterate, summed level by
    level into out (which may be base.coeffs)."""
    for i in range(base.n_times):
        np.add(base.coeffs[i], _from_box(base.grid.n_points, box[i]), out=out[i])
    return Trajectory(base.grid, base.times, out)


def solve(w0: SpectralField, cfg: SolverConfig, p: float = 3.0,
          drifts=(), forcings=()) -> tuple[Trajectory, list[float], bool]:
    """Iterate w <- e^{tL}w0 + H(f) + B(w,w) + 2B_sigma(v,w) from the base
    e^{tL}w0 + H(f), where v is the sum of the drift trajectories and f the
    sum of the forcings (spectral divergence-of-tensor data).

    Only the Duhamel part b = B(w,w) + 2B_sigma(v,w) changes between
    iterates, so w is held as the full-layout base plus b on the dealiased
    box, and a level of w is formed only inside the task that reads it; the
    last iterate is summed into the base's buffer.  The residual of each
    update is the script 1:inf norm at integrability p of the change in b,
    relative to the norm of the base.  Returns (last iterate, residuals,
    converged): a residual below picard_tol converges, a non-finite one or
    one above 1e6 diverges, and so does an exhausted budget.
    """
    base = heat_trajectory(w0, cfg.times)
    if forcings:
        base = base + forcing_integral(sum(forcings[1:], forcings[0]))
    v = sum(drifts[1:], drifts[0]) if drifts else None
    scale = max(script_norm(base, 1.0, math.inf, p), 1e-300)
    grid, times, n = base.grid, base.times, base.grid.n_points
    w, b = base, None
    residuals: list[float] = []
    for _ in range(cfg.max_picard_iters):
        b_next = _bilinear_box(w, w)
        if v is not None:
            b_next += 2.0 * _bilinear_box(v, w)
        # the retired iterate's Duhamel part takes the step
        step = b_next if b is None else np.subtract(b_next, b, out=b)
        mat = block_norm_matrix(Trajectory(grid, times, _Levels(n, step)), p)
        res = float(_script_prefix(mat, times, grid, 1.0, math.inf, p)[-1]) / scale
        residuals.append(res)
        b = b_next
        w = Trajectory(grid, times, _Levels(n, b, base.coeffs))
        if not math.isfinite(res) or res > 1e6 or res < cfg.picard_tol:
            break
    return _add_box(base, b, base.coeffs), residuals, res < cfg.picard_tol


def picard_solve(
    u0: SpectralField, cfg: SolverConfig, idx: BesovIndex | None = None,
) -> tuple[Trajectory, BlowupReport]:
    """`solve` at integrability idx.p followed by `monitor`: the solution of
    u = e^{tL}u0 + B(u,u) with its norm report."""
    idx = idx if idx is not None else critical_index(3.0, 3.0)
    u, residuals, converged = solve(u0, cfg, idx.p)
    return u, monitor(u, idx, residuals=residuals, diverged=not converged)


def monitor(traj: Trajectory, idx: BesovIndex, residuals=None,
            diverged: bool = False) -> BlowupReport:
    """Per-time Besov norms and running script norms with classification."""
    mat = block_norm_matrix(traj, idx.p)
    besov = besov_from_blocks(mat, traj.grid, idx)
    running = _script_prefix(mat, traj.times, traj.grid, 1.0, math.inf, idx.p)
    running[0] = 0.0
    if diverged:
        cls = "picard_diverged"
    elif besov[-1] >= besov[0] or (running[-1] > 0 and
                                   running[-1] >= 10.0 * max(running[1], 1e-300)):
        cls = "growing"
    else:
        cls = "decaying"
    return BlowupReport(traj.times, besov, running, cls, list(residuals or []))


# -- diagnostics --------------------------------------------------------------

def energy_balance_defect(traj: Trajectory) -> float:
    """Max per-step relative defect of d/dt (1/2)||u||_2^2 + ||grad u||_2^2 = 0.

    Both sides from Parseval; the defect is measured against the mean
    dissipation on the step.
    """
    grid = traj.grid
    vol = grid.period**3
    k2 = wavenumber_sq(grid)
    energy = 0.5 * vol * np.sum(np.abs(traj.coeffs) ** 2, axis=(1, 2, 3, 4))
    dissip = vol * np.sum(k2[None, None] * np.abs(traj.coeffs) ** 2,
                          axis=(1, 2, 3, 4))
    worst = 0.0
    for i in range(traj.n_times - 1):
        dt = float(traj.times[i + 1] - traj.times[i])
        lhs = (energy[i + 1] - energy[i]) / dt
        mid = 0.5 * (dissip[i] + dissip[i + 1])
        if mid > 0:
            worst = max(worst, abs(lhs + mid) / mid)
    return worst
