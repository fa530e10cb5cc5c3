"""Littlewood-Paley blocks and homogeneous Besov norms.

A block set carries Delta_j u for the grid's resolved shells, plus the two
trimmed tails S_{j_min} u and (Id - S_{j_max+1}) u so that reconstruction
is exact by telescoping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError
from .field import SpectralField
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

    @property
    def critical_s(self) -> float:
        """The scaling-critical regularity -1 + 3/p for this p."""
        return -1.0 + 3.0 / self.p


def critical_index(p: float, q: float) -> BesovIndex:
    return BesovIndex(-1.0 + 3.0 / p, p, q)


@dataclass(frozen=True)
class LPBlockSet:
    grid: GridSpec
    blocks: tuple[SpectralField, ...]  # Delta_j u, j = j_min .. j_max
    low_tail: SpectralField  # S_{j_min} u
    high_tail: SpectralField  # (Id - S_{j_max+1}) u

    def block(self, j: int) -> SpectralField:
        return self.blocks[shell_index(self.grid, j)]

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
    blocks = tuple(
        SpectralField(grid, u.coeffs * deltas[i], u.divergence_free)
        for i in range(grid.n_shells)
    )
    low_tail = SpectralField(grid, u.coeffs * lows[0], u.divergence_free)
    high_tail = SpectralField(grid, u.coeffs * (1.0 - lows[-1]), u.divergence_free)
    return LPBlockSet(grid, blocks, low_tail, high_tail)


def block_lp_norms(u: SpectralField, p: float) -> np.ndarray:
    """||Delta_j u||_{L^p} for the resolved shells, as an array."""
    bs = lp_decompose(u)
    return np.array([b.lp(p) for b in bs.blocks])


def besov_norm(u: SpectralField, idx: BesovIndex) -> float:
    """Homogeneous Besov norm over the grid's resolved shells."""
    return besov_from_blocks(block_lp_norms(u, idx.p), u.grid, idx)


def besov_from_blocks(block_norms: np.ndarray, grid: GridSpec, idx: BesovIndex) -> float:
    js = np.array(list(grid.shells), dtype=float)
    if len(block_norms) != len(js):
        raise GridError("block norm array does not match the grid's shells")
    # Shell j on a grid of period P sits at physical frequency 2^j (2 pi / P);
    # the (2 pi / P)^s factor makes norms comparable across rescaled grids and
    # is identically 1 on the default box.
    anchor = (2.0 * math.pi / grid.period) ** idx.s
    weighted = anchor * (2.0 ** (js * idx.s)) * np.asarray(block_norms, dtype=float)
    if math.isinf(idx.q):
        return float(np.max(weighted)) if len(weighted) else 0.0
    return float(np.sum(weighted**idx.q) ** (1.0 / idx.q))


def bernstein_ratio(u: SpectralField, j: int, p: float, q: float) -> float:
    """||Delta_j u||_{L^q} / (2^{j d (1/p - 1/q)} ||Delta_j u||_{L^p}), q >= p.

    Bernstein's inequality bounds this by a constant independent of j; the
    dyadic factor uses the integer-frequency normalization of the shells.
    """
    if q < p:
        raise ValueError("bernstein_ratio expects q >= p")
    b = lp_decompose(u).block(j)
    denom = b.lp(p)
    if denom == 0.0:
        return 0.0
    # shell j lives at integer frequencies ~2^(j+1); in physical wavenumbers
    # that is (2 pi / period) 2^(j+1)
    lam = (2.0 * math.pi / u.grid.period) * 2.0 ** (j + 1)
    return b.lp(q) / (lam ** (3.0 * (1.0 / p - 1.0 / q)) * denom)


def shell_energies(u: SpectralField) -> np.ndarray:
    """||Delta_j u||_{L^2}^2 per resolved shell (Parseval, exact)."""
    bs = lp_decompose(u)
    return np.array([b.l2() ** 2 for b in bs.blocks])
