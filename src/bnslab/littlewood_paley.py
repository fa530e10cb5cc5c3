"""Littlewood-Paley blocks and homogeneous Besov norms.

`_blocks` is the one source of block samples, one block at a time and on
request with the trimmed tails S_{j_min} u and (Id - S_{j_max+1}) u that
make the blocks telescope to u; the engine, the Bony split and the cross
terms read it.  `reconstruction_defect` checks that telescoping on the
coefficients, holding one running sum and one block at a time.

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
`irfftn`, where pruning saves no work but costs memory.  The time levels
of a trajectory are independent, so the engine runs one level per task on
the level pool of `field._map`; one field's shells stay on one thread.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError
from .field import SpectralField, _map, _real_physical, lp_norm
from .grid import GridSpec, _support_box, low_pass_multipliers, shell_index, shell_multipliers


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
def _block_plans(grid: GridSpec) -> tuple:
    """Per multiplier of `_multipliers(grid, True)`, the index of the k_z >= 0
    modes it can occupy and their x and y fftn rows (None when too wide to
    prune); index data only, so clearing the grid caches frees every multiplier."""
    n = grid.n_points
    freqs = np.abs(np.fft.fftfreq(n, 1.0 / n)).astype(int)
    plans = []
    for m in _multipliers(grid, True):
        # radial multiplier: its extent K along x is its extent on every axis
        k = int(np.max(freqs[np.any(m != 0, axis=(1, 2))], initial=0))
        if 2 * (2 * k + 1) <= n:
            plans.append(_support_box(n, k))
        else:
            plans.append(((slice(None), slice(None), slice(n // 2 + 1)), None))
    return tuple(plans)


def _blocks(c: np.ndarray, grid: GridSpec, tails: bool = False):
    """Real samples of Delta_j u for the resolved shells of the real field
    with coefficients c (3, N, N, N); with `tails`, S_{j_min} u comes first
    and (Id - S_{j_max+1}) u last (see the module docstring)."""
    plans = _block_plans(grid)
    for m, (box, rows) in zip(_multipliers(grid, tails), plans if tails else plans[1:-1]):
        yield _real_physical(c[(Ellipsis,) + box] * m[box], grid.n_points, rows)


def _block_energies(c: np.ndarray, grid: GridSpec):
    """Per resolved shell delta_j^2 sum_a |c_a|^2, whose sum is ||Delta_j u||_2^2 / vol."""
    energy = np.sum(np.abs(c) ** 2, axis=0)
    for d in shell_multipliers(grid):
        yield d * d * energy


def block_lp_norms(u, p: float) -> np.ndarray:
    """||Delta_j u||_{L^p} for the resolved shells, shaped coeffs.shape[:-4]
    + (n_shells,) for any real u with a `.grid` and `.coeffs` (..., 3, N,
    N, N), e.g. a field or a trajectory.  Blocks come from `_blocks`; p = 2
    takes Parseval sums instead.  Each time level is one task (module docstring)."""
    grid = u.grid
    norm = functools.partial(lp_norm, grid=grid, p=p)  # map drops each block once normed

    def level(i):
        c = u.coeffs[i]  # read inside the task: u's levels may be made on read
        if p == 2.0:
            return [math.sqrt(grid.period**3 * float(np.sum(w)))
                    for w in _block_energies(c, grid)]
        return list(map(norm, _blocks(c, grid)))

    lead = u.coeffs.shape[:-4]
    rows = _map(level, np.ndindex(lead))
    return np.array(rows, dtype=float).reshape(lead + (grid.n_shells,))


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
