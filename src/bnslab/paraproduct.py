"""Bony decomposition and empirical product/heat/bilinear estimates.

The product of two fields splits as fg = T_f g + T_g f + R(f, g), where
T_f g collects interactions of low frequencies of f against high
frequencies of g and R keeps the nearly-diagonal pairs.  We build the
split from `littlewood_paley._blocks` with the two trimmed tails, so the
three pieces partition all block pairs and reconstruction is exact by
telescoping: pairs with j' <= j - 2 go to T_f g, pairs with j <= j' - 2 to
T_g f, and |j - j'| <= 1 to R.  The heat decay fits take Parseval sums.

Products are formed pointwise per component: for vector fields the
"product" here is the componentwise array f_c g_c, which is what the
product laws control component by component.

The module also houses the empirical estimate checks: Besov product
laws (constants recorded, never asserted against the inexplicit ones),
heat-flow characterization of negative-regularity Besov norms, per-block
heat decay rates, and the bilinear bound in Kato-type spaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError
from .field import SpectralField, Trajectory, dealias, from_physical, heat_flow
from .grid import TWO_PI, wavenumber_sq, wavevectors
from .littlewood_paley import BesovIndex, _block_energies, _blocks, besov_norm
from .solver import bilinear_B
from .spacetime import kato_norm


@dataclass(frozen=True)
class BonyTriple:
    """The three pieces of the Bony splitting of a pointwise product."""

    low_high: SpectralField   # T_f g
    high_low: SpectralField   # T_g f
    high_high: SpectralField  # R(f, g)

    def reconstruct(self) -> SpectralField:
        return self.low_high + self.high_low + self.high_high


def bony_decompose(f: SpectralField, g: SpectralField) -> BonyTriple:
    """Split the pointwise product fg into T_f g + T_g f + R(f, g), each
    piece dealiased."""
    if f.grid != g.grid:
        raise GridError("bony_decompose needs a shared grid")
    grid = f.grid
    fb = list(_blocks(f.coeffs, grid, tails=True))
    # extended positions: the trimmed tails sit two rungs past the resolved
    # range, so a pure low tail (e.g. a constant) pairs into T against every
    # block rather than into the diagonal part
    pos = [grid.j_min - 2] + list(grid.shells) + [grid.j_max + 2]
    t_fg = np.zeros_like(fb[0])
    t_gf = np.zeros_like(fb[0])
    rem = np.zeros_like(fb[0])
    for pos_g, gblk in zip(pos, _blocks(g.coeffs, grid, tails=True)):
        for pos_f, fblk in zip(pos, fb):
            d = pos_f - pos_g
            piece = fblk * gblk
            if d <= -2:
                t_fg += piece
            elif d >= 2:
                t_gf += piece
            else:
                rem += piece
    return BonyTriple(*(dealias(from_physical(grid, arr))
                        for arr in (t_fg, t_gf, rem)))


def bony_reconstruction_defect(f: SpectralField, g: SpectralField) -> float:
    """Relative coefficient-space error of the telescoping identity."""
    grid = f.grid
    tri = bony_decompose(f, g)
    prod = dealias(from_physical(grid, f.physical() * g.physical()))
    diff = tri.reconstruct() - prod
    top = prod.sup_coeff()
    return diff.sup_coeff() / top if top > 0 else diff.sup_coeff()


def paraproduct_support_defect(f: SpectralField, g: SpectralField) -> float:
    """Largest coefficient of any T_f g block-j contribution outside its
    frequency envelope |n| <= 5 * 2^j (low-pass support 2^j plus block
    support 2^{j+2}), relative to the overall sup coefficient."""
    if f.grid != g.grid:
        raise GridError("paraproduct_support_defect needs a shared grid")
    grid = f.grid
    fb = _blocks(f.coeffs, grid, tails=True)
    gb = _blocks(g.coeffs, grid)
    next(gb)  # T_f g has no block-j_min term
    low = next(fb)  # at shell j: S_{j_min} f plus Delta_k f for k <= j - 2
    n = wavevectors(grid)
    nsq = n[0] ** 2 + n[1] ** 2 + n[2] ** 2
    worst = 0.0
    top = 0.0
    for j, gblk, fblk in zip(grid.shells[1:], gb, fb):
        piece = from_physical(grid, low * gblk)
        low = low + fblk
        top = max(top, piece.sup_coeff())
        outside = nsq > 25 * 4**j  # |n| > 5 * 2^j, exact in integers
        if np.any(outside):
            worst = max(worst, float(np.max(np.abs(piece.coeffs[:, outside]))))
    return worst / top if top > 0 else worst


# -- product laws --------------------------------------------------------------

def product_estimate_check(
    f: SpectralField,
    g: SpectralField,
    s1: float,
    t1: float,
    p: float,
    p2: float,
) -> dict:
    """Empirical constants for the two Besov product laws.

    T-law (needs s1 < 0):   ||T_f g||_{B^{s1+t1}_{pbar,inf}} vs
    ||f||_{B^{s1}_{p,inf}} ||g||_{B^{t1}_{p2,inf}} with 1/pbar = 1/p + 1/p2.
    R-law (needs s1+t1 > 0): same exponent arithmetic on the diagonal part.
    Constants are reported, not asserted; the cutoff fixes them.
    """
    if s1 >= 0:
        raise ValueError("the paraproduct law needs s1 < 0")
    inv_pbar = 1.0 / p + 1.0 / p2
    if inv_pbar > 1.0:
        raise ValueError("exponent arithmetic needs 1/p + 1/p2 <= 1")
    pbar = 1.0 / inv_pbar
    tri = bony_decompose(f, g)
    nf = besov_norm(f, BesovIndex(s1, p, math.inf))
    ng = besov_norm(g, BesovIndex(t1, p2, math.inf))
    lhs_t = besov_norm(tri.low_high, BesovIndex(s1 + t1, pbar, math.inf))
    out = {
        "s1": s1, "t1": t1, "p": p, "p2": p2, "pbar": pbar,
        "t_lhs": lhs_t, "rhs": nf * ng,
        "t_constant": lhs_t / (nf * ng) if nf * ng > 0 else 0.0,
    }
    if s1 + t1 > 0:
        lhs_r = besov_norm(tri.high_high, BesovIndex(s1 + t1, pbar, math.inf))
        out["r_lhs"] = lhs_r
        out["r_constant"] = lhs_r / (nf * ng) if nf * ng > 0 else 0.0
    return out


# -- heat flow characterization -------------------------------------------------

def heat_characterization_norm(u: SpectralField, idx: BesovIndex) -> float:
    """sup_t t^{-s/2} ||e^{t Laplace} u||_{L^p}: the heat-flow formulation
    of a negative-regularity Besov norm (s < 0 required), over 48
    geometric times covering the dyadic times of every resolved shell."""
    if idx.s >= 0:
        raise ValueError("heat characterization needs s < 0")
    grid = u.grid
    k0 = (TWO_PI / grid.period) * 2.0 ** grid.j_min
    k1 = (TWO_PI / grid.period) * 2.0 ** (grid.j_max + 2)
    t_grid = np.geomspace(0.05 / k1**2, 4.0 / k0**2, 48)
    best = 0.0
    for t in t_grid:
        val = t ** (-idx.s / 2.0) * heat_flow(u, t).lp(idx.p)
        best = max(best, val)
    return best


def heat_block_decay_rates(u: SpectralField) -> list[tuple[int, float, float]]:
    """Fitted exponential decay rate per shell under the heat flow, from
    12 times spanning one decay time of the shell.

    Returns (j, fitted_rate, reference_rate) triples.  The reference is
    the squared physical wavenumber of the shell's nominal frequency
    2^{j+1} (the center of the integer band the cutoff assigns to shell
    j); the fitted rate interpolates between the energy-weighted mean at
    early times and the support edge at late times, and stays within a
    bounded factor of the nominal rate for any block content.
    """
    grid = u.grid
    k_unit = TWO_PI / grid.period
    k2 = wavenumber_sq(grid)
    out = []
    for w, j in zip(_block_energies(u.coeffs, grid), grid.shells):
        if not np.any(w):
            continue
        k_ref = k_unit * 2.0 ** (j + 1)
        ts = np.linspace(0.0, 1.0 / k_ref**2, 12)
        vals = np.sqrt([grid.period**3 * float(np.sum(w * np.exp(-2.0 * t * k2)))
                        for t in ts])
        good = vals > 0
        slope = np.polyfit(ts[good], np.log(vals[good]), 1)[0]
        out.append((j, -float(slope), float(k_ref**2)))
    return out


# -- bilinear Kato bound ---------------------------------------------------------

def bilinear_kato_check(
    f: Trajectory,
    g: Trajectory,
    p: float,
    q: float,
    r: float,
    T: float = math.inf,
) -> dict:
    """Empirical constant for ||B(f,g)||_{K_r(T)} against the bound
    c [ (1/p + 1/q)^{-1} + (1/3 + 1/r - 1/p - 1/q)^{-1} ]
      ||f||_{K_p(T)} ||g||_{K_q(T)}."""
    inv = 1.0 / p + 1.0 / q
    if not (0.0 < inv < 1.0 / 3.0 + 1.0 / r):
        raise ValueError("exponent window violated: need 0 < 1/p + 1/q < 1/3 + 1/r")
    if not (1.0 / r <= inv <= 1.0):
        raise ValueError("exponent window violated: need 1/r <= 1/p + 1/q <= 1")
    b = bilinear_B(f, g)
    lhs = kato_norm(b, r, T)
    nf = kato_norm(f, p, T)
    ng = kato_norm(g, q, T)
    factor = 1.0 / inv + 1.0 / (1.0 / 3.0 + 1.0 / r - inv)
    rhs = factor * nf * ng
    return {
        "p": p, "q": q, "r": r, "lhs": lhs, "factor": factor,
        "f_norm": nf, "g_norm": ng,
        "constant": lhs / rhs if rhs > 0 else 0.0,
    }
