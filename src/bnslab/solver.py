"""Mild-solution machinery: the bilinear Duhamel operator B, the Picard
fixed-point solver, and the perturbed solver.

Time integrals against the heat kernel use an exponential-integrator
trapezoid: over each step the nonlinearity is interpolated linearly and
integrated against e^{(t-s)|k|^2} exactly per mode, so the only error is
quadrature of the nonlinearity, never stiffness of the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import GridError
from .field import (SpectralField, Trajectory, _project, _to_physical,
                    _to_spectral)
from .grid import GridSpec, TWO_PI, dealias_mask, wavenumber_sq, wavevectors
from .littlewood_paley import BesovIndex, besov_from_blocks, critical_index
from .spacetime import _script_prefix, block_norm_matrix, script_norm


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    n_steps: int
    picard_tol: float = 1e-8
    max_picard_iters: int = 40

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.max_picard_iters < 1:
            raise ValueError(
                f"max_picard_iters must be >= 1, got {self.max_picard_iters}")
        if self.picard_tol <= 0:
            raise ValueError("picard_tol must be positive")

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)

    @property
    def t_final(self) -> float:
        return self.dt * self.n_steps


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


def nonlinear_term(u: Trajectory, v: Trajectory) -> np.ndarray:
    """g(t) = P grad.(u (x)_sigma v)(t) for all sampled times, as coefficients.

    The symmetrized tensor product is formed pointwise in physical space
    and dealiased by the spherical 2/3 rule before differentiation.
    """
    if u.grid != v.grid:
        raise GridError("trajectories live on different grids")
    grid = u.grid
    nt = u.n_times
    n = grid.n_points
    up = _to_physical(u.coeffs)
    vp = up if v is u else _to_physical(v.coeffs)
    mask = dealias_mask(grid)
    k = wavevectors(grid).astype(float) * (TWO_PI / grid.period)
    g = np.zeros((nt, 3, n, n, n), dtype=np.complex128)
    for a in range(3):
        for b in range(a, 3):
            tab = 0.5 * (up[:, a] * vp[:, b] + vp[:, a] * up[:, b])
            that = _to_spectral(tab) * mask
            g[:, a] += 1j * k[b] * that
            if b != a:
                g[:, b] += 1j * k[a] * that
    _project(grid, g)
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


def duhamel_integral(grid: GridSpec, times: np.ndarray, g: np.ndarray,
                     sign: float = 1.0) -> np.ndarray:
    """t -> sign * int_0^t e^{(t-s) Laplacian} g(s) ds on the sampling grid."""
    nt = len(times)
    out = np.zeros_like(g)
    k2 = wavenumber_sq(grid)
    for i in range(nt - 1):
        dt = float(times[i + 1] - times[i])
        E, c_lo, c_hi = _etd_weights(k2 * dt)
        out[i + 1] = E * out[i] + dt * (c_lo * g[i] + c_hi * g[i + 1])
    return sign * out


def bilinear_B(u: Trajectory, v: Trajectory) -> Trajectory:
    """B(u,v)(t) = -int_0^t e^{(t-t')Laplacian} P grad.(u (x)_sigma v) dt'."""
    g = nonlinear_term(u, v)
    coeffs = duhamel_integral(u.grid, u.times, g, sign=-1.0)
    return Trajectory(u.grid, u.times, coeffs)


def forcing_integral(f: Trajectory) -> Trajectory:
    """H(f)(t) = int_0^t e^{(t-s)Laplacian} P f(s) ds (Leray applied per time)."""
    grid = f.grid
    g = f.coeffs.copy()
    _project(grid, g)
    g[:, :, 0, 0, 0] = 0.0
    coeffs = duhamel_integral(grid, f.times, g, sign=1.0)
    return Trajectory(grid, f.times, coeffs)


# -- Picard solver -----------------------------------------------------------

def _picard(base: Trajectory, step, cfg: SolverConfig,
            p: float) -> tuple[Trajectory, list[float], bool]:
    """Iterate u <- step(u) from u = base.

    The residual of each update is its script 1:inf norm relative to the
    norm of base.  Returns (last iterate, residuals, converged): a residual
    below picard_tol converges, a non-finite one or one above 1e6 diverges,
    and so does an exhausted budget.
    """
    scale = max(script_norm(base, 1.0, math.inf, p), 1e-300)
    u = base
    residuals: list[float] = []
    for _ in range(cfg.max_picard_iters):
        u_next = step(u)
        res = script_norm(u_next - u, 1.0, math.inf, p) / scale
        residuals.append(res)
        u = u_next
        if not math.isfinite(res) or res > 1e6:
            return u, residuals, False
        if res < cfg.picard_tol:
            return u, residuals, True
    return u, residuals, False


def picard_solve(
    u0: SpectralField, cfg: SolverConfig, idx: BesovIndex | None = None,
) -> tuple[Trajectory, BlowupReport]:
    """Iterate u <- e^{t Laplacian}u0 + B(u,u) over the whole window.

    Stops when the script-norm of the update falls below picard_tol
    relative to the iterate's norm, or reports picard_diverged.
    """
    idx = idx if idx is not None else critical_index(3.0, 3.0)
    u_lin = heat_trajectory(u0, cfg.times)
    u, residuals, converged = _picard(
        u_lin, lambda u: u_lin + bilinear_B(u, u), cfg, idx.p)
    return u, monitor(u, idx, residuals=residuals, diverged=not converged)


def monitor(traj: Trajectory, idx: BesovIndex, residuals=None,
            diverged: bool = False) -> BlowupReport:
    """Per-time Besov norms and running script norms with classification."""
    residuals = residuals or []
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
    return BlowupReport(traj.times, besov, running, cls, list(residuals))


def solve_perturbed(
    w0: SpectralField,
    cfg: SolverConfig,
    drifts: list[Trajectory] = (),
    forcings: list[Trajectory] = (),
) -> tuple[Trajectory, bool]:
    """Solve w = e^{tL}w0 + B(w,w) + 2B_sigma(v, w) + H(f) by Picard.

    v is the sum of the drift trajectories, f the sum of the forcings
    (spectral divergence-of-tensor data).  Returns (trajectory, converged);
    residuals are measured at spatial integrability p = 3.
    """
    times = cfg.times
    base = heat_trajectory(w0, times)
    v = None
    for d in drifts:
        v = d if v is None else v + d
    if forcings:
        f = forcings[0]
        for extra in forcings[1:]:
            f = f + extra
        base = base + forcing_integral(f)

    def step(w: Trajectory) -> Trajectory:
        w_next = base + bilinear_B(w, w)
        if v is not None:
            w_next = w_next + 2.0 * bilinear_B(v, w)
        return w_next

    w, _, converged = _picard(base, step, cfg, 3.0)
    return w, converged


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
