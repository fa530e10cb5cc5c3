"""Littlewood-Paley blocks and homogeneous Besov norms.

`_block_halves` gathers the blocks' half spectra, one block at a time and on
request with the trimmed tails S_{j_min} u and (Id - S_{j_max+1}) u that make
the blocks telescope to u, for the engine, and `_blocks` their samples for the
Bony split and the cross terms.  `reconstruction_defect` checks that
telescoping on the coefficients, holding one running sum and one block at a time.

`block_lp_norms` is the one block-norm engine behind every Besov,
Chemin-Lerner, script and Kato norm.  It never forms a full complex block,
and three rules keep it exact for the real fields the package holds.  The
blocks of a real field are real, so `irfftn` of their k_z >= 0 half gives
the samples.  At p = 2 the rectangle-rule norm of a trigonometric
polynomial is Parseval's vol * sum |delta_j c|^2, with no transform.  And a
block vanishes off the lines both its level and its multiplier occupy, so
one scan of the level's k_z >= 0 half, intersected with each multiplier's
cached masks, lets a block's inverse skip the other lines (Sorensen & Burrus
1993) if the rest span at most half the grid on x and on y; a zero block is
normed 0.0 untransformed.  Time levels are independent, so the
engine runs one level per task on the pool of `field._map`, shells on one thread.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError
from .field import (SpectralField, _map, _occupied, _power_root, _real_physical, _sparse,
                    lp_norm)
from .grid import GridSpec, low_pass_multipliers, shell_index, shell_multipliers


@dataclass(frozen=True)
class BesovIndex:
    """Homogeneous Besov index (s, p, q)."""

    s: float
    p: float
    q: float

    def __post_init__(self):
        if not (self.p >= 1 and self.q >= 1):
            raise ValueError(f"integrability indices must be >= 1, got p={self.p} q={self.q}")


def critical_index(p: float, q: float) -> BesovIndex:
    return BesovIndex(-1.0 + 3.0 / p, p, q)


def reconstruction_defect(u: SpectralField) -> float:
    """sup |S_{j_min} u + sum_j Delta_j u + (Id - S_{j_max+1}) u - u| over the
    coefficients, relative to sup |u|; summed one block at a time."""
    c = u.coeffs
    low, *shells, high = _multipliers(u.grid, True)
    total = c * low + c * high
    for m in shells:
        total += c * m
    total -= c
    defect = float(np.max(np.abs(total)))
    top = u.sup_coeff()
    return defect / top if top > 0 else defect


def _multipliers(grid: GridSpec, tails: bool):
    """Delta_{j_min..j_max}; with `tails`, S_{j_min} first and Id - S_{j_max+1} last."""
    if not tails:
        return shell_multipliers(grid)
    lows = low_pass_multipliers(grid)
    return (lows[0], *shell_multipliers(grid), 1.0 - lows[-1])


@functools.lru_cache(maxsize=8)
def _multiplier_masks(grid: GridSpec) -> tuple:
    """`field._occupied` of the k_z >= 0 half of each of `_multipliers(grid, True)`;
    masks only, so clearing the grid caches frees every multiplier."""
    return tuple(_occupied(m[..., : grid.n_points // 2 + 1]) for m in _multipliers(grid, True))


def _block_halves(c: np.ndarray, grid: GridSpec, tails: bool = False):
    """Per block Delta_j u of the real field with coefficients c (3, N, N, N), with
    `tails` S_{j_min} u first and (Id - S_{j_max+1}) u last, its gathered k_z >= 0
    coefficients and `_real_physical` rows (module docstring), from one scan of c."""
    n = grid.n_points
    level, masks = _occupied(c[..., : n // 2 + 1]), _multiplier_masks(grid)
    for m, occ in zip(_multipliers(grid, tails), masks if tails else masks[1:-1]):
        box, rows = _sparse(tuple(a & b for a, b in zip(level, occ)), n)
        yield c[(Ellipsis,) + box] * m[box], rows


def _blocks(c: np.ndarray, grid: GridSpec, tails: bool = False):
    """Real samples of the blocks of `_block_halves` (see the module docstring)."""
    return (_real_physical(half, grid.n_points, rows)
            for half, rows in _block_halves(c, grid, tails))


def _block_energies(c: np.ndarray, grid: GridSpec):
    """Per resolved shell delta_j^2 sum_a |c_a|^2, whose sum is ||Delta_j u||_2^2 / vol."""
    energy = np.sum(np.abs(c) ** 2, axis=0)
    for d in shell_multipliers(grid):
        yield d * d * energy


def block_lp_norms(u, p: float) -> np.ndarray:
    """||Delta_j u||_{L^p} for the resolved shells, shaped coeffs.shape[:-4]
    + (n_shells,) for any real u with a `.grid` and `.coeffs` (..., 3, N,
    N, N), e.g. a field or a trajectory.  Blocks come from `_block_halves`; p = 2
    takes Parseval sums instead.  Each time level is one task (module docstring)."""
    return _block_lp_norms(u, (p,))[..., 0]


def _block_lp_norms(u, ps: tuple) -> np.ndarray:
    """`block_lp_norms` at each p of `ps` from one set of block samples,
    shaped coeffs.shape[:-4] + (n_shells, len(ps)); ps = (2,) is Parseval's.
    Each block is dropped once normed."""
    grid = u.grid

    def norms(half, rows):
        if rows is not None and not np.any(half):  # a zero block: no transform
            return [0.0] * len(ps)
        b = _real_physical(half, grid.n_points, rows)
        return [lp_norm(b, grid, p) for p in ps]

    def level(i):
        c = u.coeffs[i]  # read inside the task: u's levels may be made on read
        if ps == (2.0,):
            return [[math.sqrt(grid.period**3 * float(np.sum(w)))]
                    for w in _block_energies(c, grid)]
        return [norms(*block) for block in _block_halves(c, grid)]

    lead = u.coeffs.shape[:-4]
    rows = _map(level, np.ndindex(lead))
    return np.array(rows, dtype=float).reshape(lead + (grid.n_shells, len(ps)))


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
        norms = _power_root(np.max(weighted, axis=-1), idx.q, lambda s: np.sum(
            (weighted / s[..., None]) ** idx.q, axis=-1))
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
