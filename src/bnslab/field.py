"""Three-component vector fields stored as Fourier coefficients.

Coefficients follow the `fftn` layout and the convention
u(x) = sum_k c[k] exp(i k.x), so that physical values are recovered by an
unnormalized inverse FFT.  All fields are mean-zero and real in physical
space (Hermitian-symmetric coefficients).

This module is the package's spectral core: the FFTs, the Leray
projection and the FFT worker count live here and nowhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.fft as sfft

from .errors import GridError, ResolutionError
from .grid import GridSpec, TWO_PI, dealias_mask, wavenumber_sq, wavevectors

_WORKERS = -1  # let scipy.fft use all cores


def set_threads(n: int) -> None:
    """Cap the FFT worker pool package-wide (n <= 0 means all cores)."""
    global _WORKERS
    _WORKERS = n if n > 0 else -1


# -- the transforms -----------------------------------------------------------
# Every FFT in the package goes through these two functions, which act on
# the last three axes of a batched array, e.g. (nt, 3, N, N, N).

def _to_physical(coeffs: np.ndarray) -> np.ndarray:
    """Real-space samples of coefficient arrays (real part only)."""
    return np.real(sfft.ifftn(coeffs, axes=(-3, -2, -1), norm="forward",
                              workers=_WORKERS))


def _to_spectral(phys: np.ndarray) -> np.ndarray:
    """Coefficients of real-space sample arrays."""
    return sfft.fftn(phys, axes=(-3, -2, -1), norm="forward", workers=_WORKERS)


@dataclass(frozen=True)
class SpectralField:
    grid: GridSpec
    coeffs: np.ndarray  # (3, N, N, N) complex128
    divergence_free: bool = False

    def __post_init__(self):
        n = self.grid.n_points
        if self.coeffs.shape != (3, n, n, n):
            raise GridError(f"coefficient array shape {self.coeffs.shape} mismatches grid")

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField(
            self.grid,
            self.coeffs + other.coeffs,
            self.divergence_free and other.divergence_free,
        )

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField(
            self.grid,
            self.coeffs - other.coeffs,
            self.divergence_free and other.divergence_free,
        )

    def __mul__(self, alpha: float) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * alpha, self.divergence_free)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return self * (-1.0)

    # -- diagnostics -----------------------------------------------------
    def physical(self) -> np.ndarray:
        """Real-space samples, shape (3, N, N, N), real part only."""
        return _to_physical(self.coeffs)

    def l2(self) -> float:
        """L2 norm by Parseval (exact)."""
        vol = self.grid.period**3
        return math.sqrt(vol * float(np.sum(np.abs(self.coeffs) ** 2)))

    def lp(self, p: float) -> float:
        return lp_norm(self.physical(), self.grid, p)

    def sup_coeff(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def hermitian_defect(self) -> float:
        """Max |c(-k) - conj(c(k))| relative to the largest coefficient."""
        rev = _reverse(self.coeffs)
        top = self.sup_coeff()
        if top == 0.0:
            return 0.0
        return float(np.max(np.abs(np.conj(rev) - self.coeffs))) / top

    def divergence_defect(self) -> float:
        """Max over modes of |k.c(k)| / (|k| max|c|), a scale-free defect."""
        k = wavevectors(self.grid).astype(float) * (TWO_PI / self.grid.period)
        kmag = np.sqrt(k[0] ** 2 + k[1] ** 2 + k[2] ** 2)
        kmag[0, 0, 0] = 1.0
        dot = np.abs(np.einsum("cxyz,cxyz->xyz", k, self.coeffs))
        mag = np.sqrt(np.sum(np.abs(self.coeffs) ** 2, axis=0))
        top = float(np.max(mag))
        if top == 0.0:
            return 0.0
        return float(np.max(dot / kmag)) / top


def _check_same_grid(a: SpectralField, b: SpectralField):
    if a.grid != b.grid:
        raise GridError("fields live on different grids")


def _reverse(c: np.ndarray) -> np.ndarray:
    """c evaluated at -k in fftn layout."""
    return np.roll(c[:, ::-1, ::-1, ::-1], 1, axis=(1, 2, 3))


def lp_norm(phys: np.ndarray, grid: GridSpec, p: float) -> float:
    """L^p norm of a (3,N,N,N) or (N,N,N) sample array by the rectangle rule.

    Vector fields use the pointwise Euclidean magnitude.  p = inf is the
    grid max (which underestimates the true sup between grid points).
    """
    if phys.ndim == 4:
        mag = np.sqrt(np.sum(phys * phys, axis=0))
    else:
        mag = np.abs(phys)
    if math.isinf(p):
        return float(np.max(mag))
    return float((np.sum(mag**p) * grid.cell_volume) ** (1.0 / p))


# -- constructors ---------------------------------------------------------

def zero_field(grid: GridSpec) -> SpectralField:
    n = grid.n_points
    return SpectralField(grid, np.zeros((3, n, n, n), dtype=np.complex128), True)


def from_physical(grid: GridSpec, phys: np.ndarray) -> SpectralField:
    c = _to_spectral(np.asarray(phys, dtype=float))
    c[:, 0, 0, 0] = 0.0
    return SpectralField(grid, c)


def hermitian_symmetrize(grid: GridSpec, c: np.ndarray) -> SpectralField:
    """Project raw coefficients onto real-valued fields and zero the mean."""
    c = 0.5 * (c + np.conj(_reverse(c)))
    c[:, 0, 0, 0] = 0.0
    return SpectralField(grid, c)


def random_band_limited(
    grid: GridSpec,
    seed: int,
    j_lo: int | None = None,
    j_hi: int | None = None,
    amplitude: float = 1.0,
    solenoidal: bool = True,
) -> SpectralField:
    """Random divergence-free field with modes in shells [j_lo, j_hi].

    Modes are drawn in the band 2^(j_lo+1) <= |n| <= 2^(j_hi+1) so the
    field reconstructs exactly from its resolved blocks.  Deterministic
    given the seed.
    """
    j_lo = grid.j_min if j_lo is None else j_lo
    j_hi = grid.j_max - 1 if j_hi is None else j_hi
    rng = np.random.default_rng(seed)
    n = grid.n_points
    c = rng.standard_normal((3, n, n, n)) + 1j * rng.standard_normal((3, n, n, n))
    nn = wavevectors(grid)
    r = np.sqrt((nn[0] ** 2 + nn[1] ** 2 + nn[2] ** 2).astype(float))
    band = (r >= 2.0 ** (j_lo + 1)) & (r <= 2.0 ** (j_hi + 1))
    band &= dealias_mask(grid)
    c *= band
    f = hermitian_symmetrize(grid, c)
    if solenoidal:
        f = leray_project(f)
    top = f.l2()
    if top > 0:
        f = f * (amplitude / top)
    return replace(f, divergence_free=solenoidal)


def shell_bump(grid: GridSpec, j: int, seed: int = 0, amplitude: float = 1.0) -> SpectralField:
    """Random field supported strictly inside shell j (and only that block).

    Modes are confined to 2^(j+1) <= |n| < 2^(j+1) * sqrt(2), where only
    Delta_j is active (the neighbouring blocks vanish there).
    """
    rng = np.random.default_rng(seed)
    n = grid.n_points
    c = rng.standard_normal((3, n, n, n)) + 1j * rng.standard_normal((3, n, n, n))
    nn = wavevectors(grid)
    r = np.sqrt((nn[0] ** 2 + nn[1] ** 2 + nn[2] ** 2).astype(float))
    lo = 2.0 ** (j + 1)
    band = (r >= lo) & (r < lo * math.sqrt(2.0))
    c *= band
    f = leray_project(hermitian_symmetrize(grid, c))
    top = f.l2()
    if top > 0:
        f = f * (amplitude / top)
    return f


def single_mode(grid: GridSpec, mode: tuple[int, int, int], amp: complex = 1.0,
                component: int = 0) -> SpectralField:
    """One Fourier mode (plus its conjugate) in the given vector component."""
    n = grid.n_points
    c = np.zeros((3, n, n, n), dtype=np.complex128)
    ix = tuple(m % n for m in mode)
    c[(component,) + ix] = amp
    return hermitian_symmetrize(grid, 2.0 * c)


def taylor_green_like(grid: GridSpec, amplitude: float = 1.0, j: int = 1) -> SpectralField:
    """Deterministic large-scale swirling datum at shell ~j (divergence-free)."""
    n = grid.n_points
    x = np.linspace(0.0, grid.period, n, endpoint=False)
    X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
    k = 2**j * TWO_PI / grid.period
    u = np.stack([
        np.cos(k * X) * np.sin(k * Y) * np.sin(k * Z),
        -np.sin(k * X) * np.cos(k * Y) * np.sin(k * Z) / 2.0,
        -np.sin(k * X) * np.sin(k * Y) * np.cos(k * Z) / 2.0,
    ])
    f = leray_project(from_physical(grid, u))
    return f * (amplitude / f.l2())


# -- core multiplier operators --------------------------------------------

def leray_project(u: SpectralField) -> SpectralField:
    """Remove the gradient part: c(k) -> c(k) - k (k.c(k)) / |k|^2."""
    c = u.coeffs.copy()
    _project(u.grid, c)
    return SpectralField(u.grid, c, divergence_free=True)


def _project(grid: GridSpec, c: np.ndarray) -> None:
    """Leray projection in place on a (..., 3, N, N, N) coefficient array.

    Works one component at a time, so no temporary is larger than one
    component; the k = 0 coefficient is left unchanged (its k factor is 0).
    """
    k = wavevectors(grid).astype(float)
    k2 = k[0] ** 2 + k[1] ** 2 + k[2] ** 2
    dot = k[0] * c[..., 0, :, :, :]
    dot += k[1] * c[..., 1, :, :, :]
    dot += k[2] * c[..., 2, :, :, :]
    dot /= np.where(k2 == 0.0, 1.0, k2)
    for a in range(3):
        c[..., a, :, :, :] -= k[a] * dot


def heat_flow(u: SpectralField, tau: float) -> SpectralField:
    """e^(tau Laplacian): exact per-mode multiplier exp(-tau |k|^2)."""
    if tau < 0:
        raise ValueError(f"heat flow time must be nonnegative, got {tau}")
    if tau == 0.0:
        return u
    mult = np.exp(-tau * wavenumber_sq(u.grid))
    return SpectralField(u.grid, u.coeffs * mult, u.divergence_free)


def scaling_transform(u: SpectralField, m: int) -> SpectralField:
    """Navier-Stokes rescaling u -> lambda u(lambda x) with lambda = 2^m.

    The rescaled field is lambda-periodic in each direction, so it is
    represented exactly on a grid whose period shrinks by lambda: the
    integer coefficient layout is unchanged, each coefficient gains a
    factor lambda, and every shell moves m rungs up the physical dyadic
    ladder.  This keeps the resolved shells resolved for every m.
    """
    if m == 0:
        return u
    lam = 2.0**m
    new_grid = replace(u.grid, period=u.grid.period / lam)
    return SpectralField(new_grid, lam * u.coeffs, u.divergence_free)


def dyadic_shift(
    u: SpectralField, m: int, amplitude: float = 1.0, strict: bool = True
) -> SpectralField:
    """Move the coefficient at wavevector n to 2^m n, times `amplitude`.

    Same-grid frequency dilation: blocks shift by m shells.  For m > 0,
    raises ResolutionError if populated modes would pass Nyquist (unless
    strict=False, which drops them).  For m < 0, modes not divisible by
    2^|m| are dropped (strict=True raises instead if they carry energy).
    """
    if m == 0:
        return u if amplitude == 1.0 else u * amplitude
    n = u.grid.n_points
    half = n // 2
    idx1d = np.fft.fftfreq(n, 1.0 / n).astype(int)
    if m > 0:
        # the Nyquist bin +-N/2 is a single shared slot; landing there
        # would collide Hermitian partners, so treat it as out of range
        valid = np.abs(idx1d << m) < half
        tgt1d = (idx1d << m) % n
    else:
        valid = idx1d % (1 << (-m)) == 0
        tgt1d = (idx1d >> (-m)) % n
    if strict and not np.all(valid):
        valid3 = valid[:, None, None] & valid[None, :, None] & valid[None, None, :]
        if np.any(np.abs(u.coeffs[:, ~valid3]) > 0):
            raise ResolutionError(
                f"dyadic shift by {m} moves populated modes out of the grid"
            )
    keep = np.nonzero(valid)[0]
    out = np.zeros_like(u.coeffs)
    out[np.ix_(range(3), tgt1d[keep], tgt1d[keep], tgt1d[keep])] = (
        amplitude * u.coeffs[np.ix_(range(3), keep, keep, keep)]
    )
    return SpectralField(u.grid, out, u.divergence_free)


def dealias(u: SpectralField) -> SpectralField:
    return SpectralField(u.grid, u.coeffs * dealias_mask(u.grid), u.divergence_free)
