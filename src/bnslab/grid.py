"""Periodic grid description and cached spectral machinery.

Every field in this package lives on an N^3 periodic grid with a fixed
range [j_min, j_max] of resolved dyadic frequency shells.  The smooth
radial cutoff used to carve out the shells is pinned here so that block
supports are reproducible bit-for-bit across runs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError

TWO_PI = 2.0 * math.pi


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """An N^3 periodic grid with a resolved dyadic shell range.

    Invariants: n_points is a power of two >= 16, at least four shells
    are resolved (j_max - j_min >= 3), and 2^(j_max+1) must not exceed
    the Nyquist wavenumber n_points/2 (in units of 2*pi/period).
    """

    n_points: int
    period: float = TWO_PI
    j_min: int = 0
    j_max: int = -1  # sentinel, replaced in __post_init__

    def __post_init__(self):
        if not _is_power_of_two(self.n_points) or self.n_points < 16:
            raise GridError(f"n_points must be a power of two >= 16, got {self.n_points}")
        if self.period <= 0:
            raise GridError("period must be positive")
        if self.j_max == -1:
            # default: widest range allowed by the Nyquist constraint
            object.__setattr__(self, "j_max", int(math.log2(self.n_points)) - 2)
        if self.j_max - self.j_min < 3:
            raise GridError(
                f"need at least four resolved shells, got [{self.j_min}, {self.j_max}]"
            )
        if 2 ** (self.j_max + 1) > self.n_points // 2:
            raise GridError(
                f"shell {self.j_max} exceeds Nyquist for n_points={self.n_points}"
            )

    @property
    def shells(self) -> range:
        return range(self.j_min, self.j_max + 1)

    @property
    def n_shells(self) -> int:
        return self.j_max - self.j_min + 1

    @property
    def cell_volume(self) -> float:
        return (self.period / self.n_points) ** 3

    @property
    def resolved_band(self) -> tuple[float, float]:
        """Wavenumber band on which the shell partition of unity is exact."""
        scale = TWO_PI / self.period
        return (2.0 ** (self.j_min + 1) * scale, 2.0 ** (self.j_max + 1) * scale)


def radial_cutoff(r: np.ndarray) -> np.ndarray:
    """Smooth cutoff: 1 for r <= 1, 0 for r >= 2, C-infinity bump between.

    Built from f(x) = exp(-1/x) on x > 0; the transition is
    f(2-r) / (f(2-r) + f(r-1)).
    """
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    out[r <= 1.0] = 1.0
    mid = (r > 1.0) & (r < 2.0)
    if np.any(mid):
        x = r[mid]
        with np.errstate(over="ignore"):
            fa = np.exp(-1.0 / (2.0 - x))
            fb = np.exp(-1.0 / (x - 1.0))
        out[mid] = fa / (fa + fb)
    return out


@functools.lru_cache(maxsize=32)
def wavevectors(grid: GridSpec) -> np.ndarray:
    """Integer wavevector components, shape (3, N, N, N), fftn layout."""
    n = np.fft.fftfreq(grid.n_points, d=1.0 / grid.n_points).astype(np.int64)
    kx, ky, kz = np.meshgrid(n, n, n, indexing="ij")
    return np.stack([kx, ky, kz])


@functools.lru_cache(maxsize=32)
def wavenumber_sq(grid: GridSpec) -> np.ndarray:
    """|k|^2 with k in physical units 2*pi/period * integer."""
    scale = TWO_PI / grid.period
    n = wavevectors(grid)
    return (scale * scale) * (n[0] ** 2 + n[1] ** 2 + n[2] ** 2).astype(float)


@functools.lru_cache(maxsize=32)
def dealias_mask(grid: GridSpec) -> np.ndarray:
    """Spherical 2/3-rule mask: keep integer modes with |n| < N/3."""
    n = wavevectors(grid)
    r2 = (n[0] ** 2 + n[1] ** 2 + n[2] ** 2).astype(float)
    return r2 < (grid.n_points / 3.0) ** 2


@functools.lru_cache(maxsize=32)
def dealias_box(grid: GridSpec) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """K, then the integer wavevectors, |k|^2 and 2/3-rule mask on the box
    |n_x|, |n_y| <= K, 0 <= n_z <= K, where K is the largest |n_i| the mask
    keeps; shaped (2K+1, 2K+1, K+1), x and y in fftn order [0..K, -K..-1]."""
    mask = dealias_mask(grid)
    k = int(np.max(np.abs(wavevectors(grid)[0][mask])))
    box, _ = _support_box(grid.n_points, k)
    return k, wavevectors(grid)[(slice(None),) + box], wavenumber_sq(grid)[box], mask[box]


def _support_box(n: int, k: int) -> tuple[tuple, np.ndarray]:
    """Index of the modes |n_x|, |n_y| <= k, 0 <= n_z <= k, and their fftn rows."""
    rows = np.r_[0 : k + 1, n - k : n]
    return np.ix_(rows, rows, np.arange(k + 1)), rows


@functools.lru_cache(maxsize=32)
def low_pass_multipliers(grid: GridSpec) -> np.ndarray:
    """S_j multipliers for j in [j_min, j_max+1], shape (n_shells+1, N, N, N).

    Entry i is the multiplier of S_(j_min+i), i.e. the cutoff evaluated at
    |k| / 2^(j_min+i).
    """
    kk = np.sqrt(wavenumber_sq(grid)) * (grid.period / TWO_PI)  # integer modulus
    out = np.empty((grid.n_shells + 1,) + kk.shape)
    for i, j in enumerate(range(grid.j_min, grid.j_max + 2)):
        out[i] = radial_cutoff(kk / 2.0**j)
    return out


@functools.lru_cache(maxsize=32)
def shell_multipliers(grid: GridSpec) -> np.ndarray:
    """Delta_j multipliers (S_(j+1) - S_j) for each resolved shell."""
    lows = low_pass_multipliers(grid)
    return lows[1:] - lows[:-1]


def shell_index(grid: GridSpec, j: int) -> int:
    if not (grid.j_min <= j <= grid.j_max):
        raise GridError(f"shell {j} outside resolved range [{grid.j_min}, {grid.j_max}]")
    return j - grid.j_min
