"""Littlewood-Paley blocks and homogeneous Besov norms.

A block set carries Delta_j u for the grid's resolved shells, plus the two
trimmed tails S_{j_min} u and (Id - S_{j_max+1}) u so that reconstruction
is exact by telescoping.

`block_lp_norms` is the one block-norm engine behind every Besov,
Chemin-Lerner, script and Kato norm.  It never forms a full complex block,
and three rules keep it exact for the real fields the package holds.  The
blocks of a real field are real, so `irfftn` of their k_z >= 0 half gives
the samples.  At p = 2 the rectangle-rule norm of a trigonometric
polynomial is Parseval's vol * sum |delta_j c|^2, with no transform.  And
delta_j vanishes exactly outside |n_i| <= K (K read from the multiplier),
so when 2(2K+1) <= N the inverse skips lines that hold only zeros
(Sorensen & Burrus 1993): x over the (2K+1)(K+1) occupied y-z lines, y
over N(K+1), then the real z pass.  Wider shells take the plain
`irfftn`, where pruning saves no work but costs memory.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import GridError
from .field import SpectralField, _real_physical, lp_norm
from .grid import GridSpec, low_pass_multipliers, shell_index, shell_multipliers


@dataclass(frozen=True)
class BesovIndex:
    """Homogeneous Besov index (s, p, q)."""

    s: float
    p: float
    q: float

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ValueError(f"integrability indices must be >= 1, got p={self.p} q={self.q}")


def critical_index(p: float, q: float) -> BesovIndex:
    return BesovIndex(-1.0 + 3.0 / p, p, q)


@dataclass(frozen=True)
class LPBlockSet:
    grid: GridSpec
    blocks: tuple[SpectralField, ...]  # Delta_j u, j = j_min .. j_max
    low_tail: SpectralField  # S_{j_min} u
    high_tail: SpectralField  # (Id - S_{j_max+1}) u

    def reconstruct(self) -> SpectralField:
        total = self.low_tail + self.high_tail
        for b in self.blocks:
            total = total + b
        return total

    def reconstruction_defect(self, u: SpectralField) -> float:
        diff = self.reconstruct() - u
        top = u.sup_coeff()
        return diff.sup_coeff() / top if top > 0 else diff.sup_coeff()


def lp_decompose(u: SpectralField) -> LPBlockSet:
    grid = u.grid
    deltas = shell_multipliers(grid)
    lows = low_pass_multipliers(grid)
    blocks = tuple(replace(u, coeffs=u.coeffs * deltas[i])
                   for i in range(grid.n_shells))
    low_tail = replace(u, coeffs=u.coeffs * lows[0])
    high_tail = replace(u, coeffs=u.coeffs * (1.0 - lows[-1]))
    return LPBlockSet(grid, blocks, low_tail, high_tail)


@functools.lru_cache(maxsize=8)
def _shell_plans(grid: GridSpec) -> tuple:
    """Per resolved shell: the index of the k_z >= 0 modes it can occupy and
    their x and y fftn rows (None when the shell is too wide to prune)."""
    n = grid.n_points
    freqs = np.abs(np.fft.fftfreq(n, 1.0 / n)).astype(int)
    plans = []
    for delta in shell_multipliers(grid):
        # radial multiplier: its extent K along x is its extent on every axis
        k = int(np.max(freqs[np.any(delta != 0, axis=(1, 2))], initial=0))
        if 2 * (2 * k + 1) <= n:
            rows = np.r_[0:k + 1, n - k:n]
            plans.append((np.ix_(rows, rows, np.arange(k + 1)), rows))
        else:
            plans.append(((slice(None), slice(None), slice(n // 2 + 1)), None))
    return tuple(plans)


def block_lp_norms(u, p: float) -> np.ndarray:
    """||Delta_j u||_{L^p} for the resolved shells, shaped coeffs.shape[:-4]
    + (n_shells,) for any real u with a `.grid` and `.coeffs` (..., 3, N,
    N, N), e.g. a field or a trajectory.  One block is transformed at a
    time, from its half spectrum and only over the lines it occupies; p = 2
    takes Parseval sums instead (see the module docstring)."""
    grid, n = u.grid, u.grid.n_points
    deltas, plans = shell_multipliers(grid), _shell_plans(grid)
    out = np.empty(u.coeffs.shape[:-4] + (len(plans),))
    for i in np.ndindex(out.shape[:-1]):
        c = u.coeffs[i]
        if p == 2.0:
            energy = np.sum(np.abs(c) ** 2, axis=0)
            out[i] = [math.sqrt(grid.period**3 * float(np.sum(d * d * energy)))
                      for d in deltas]
        else:
            out[i] = [lp_norm(_real_physical(c[(Ellipsis,) + box] * d[box], n, rows),
                              grid, p) for d, (box, rows) in zip(deltas, plans)]
    return out


def besov_norm(u: SpectralField, idx: BesovIndex) -> float:
    """Homogeneous Besov norm over the grid's resolved shells."""
    return besov_from_blocks(block_lp_norms(u, idx.p), u.grid, idx)


def besov_from_blocks(block_norms: np.ndarray, grid: GridSpec,
                      idx: BesovIndex) -> float | np.ndarray:
    """Besov norm over the last axis: a float for one block-norm vector, an
    array for a (..., n_shells) stack such as a block-norm matrix."""
    js = np.array(list(grid.shells), dtype=float)
    block_norms = np.asarray(block_norms, dtype=float)
    if block_norms.shape[-1:] != js.shape:
        raise GridError("block norm array does not match the grid's shells")
    # Shell j on a grid of period P sits at physical frequency 2^j (2 pi / P);
    # the (2 pi / P)^s factor makes norms comparable across rescaled grids and
    # is identically 1 on the default box.
    anchor = (2.0 * math.pi / grid.period) ** idx.s
    weighted = anchor * (2.0 ** (js * idx.s)) * block_norms
    if math.isinf(idx.q):
        norms = np.max(weighted, axis=-1)
    else:
        norms = np.sum(weighted**idx.q, axis=-1) ** (1.0 / idx.q)
    return float(norms) if norms.ndim == 0 else norms


def bernstein_ratio(u: SpectralField, j: int, p: float, q: float) -> float:
    """||Delta_j u||_{L^q} / (2^{j d (1/p - 1/q)} ||Delta_j u||_{L^p}), q >= p.

    Bernstein's inequality bounds this by a constant independent of j; the
    dyadic factor uses the integer-frequency normalization of the shells.
    """
    if q < p:
        raise ValueError("bernstein_ratio expects q >= p")
    delta = shell_multipliers(u.grid)[shell_index(u.grid, j)]
    block = _real_physical(u.coeffs * delta, u.grid.n_points)
    denom = lp_norm(block, u.grid, p)
    if denom == 0.0:
        return 0.0
    # shell j lives at integer frequencies ~2^(j+1); in physical wavenumbers
    # that is (2 pi / period) 2^(j+1)
    lam = (2.0 * math.pi / u.grid.period) * 2.0 ** (j + 1)
    return float(lp_norm(block, u.grid, q) / (lam ** (3.0 * (1.0 / p - 1.0 / q)) * denom))


def shell_energies(u: SpectralField) -> np.ndarray:
    """||Delta_j u||_{L^2}^2 per resolved shell (Parseval, exact)."""
    return block_lp_norms(u, 2.0) ** 2
