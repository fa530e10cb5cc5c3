"""Three-component vector fields stored as Fourier coefficients.

Coefficients follow the `fftn` layout and the convention
u(x) = sum_k c[k] exp(i k.x), so that physical values are recovered by an
unnormalized inverse FFT.  All fields are mean-zero and real in physical
space (Hermitian-symmetric coefficients).

This module is the package's spectral core and owns the coefficient
representation: a `SpectralField` holds one (3, N, N, N) array and a
`Trajectory` holds a (nt, 3, N, N, N) array sampled at `times`; time is
just a leading axis.  Both share one arithmetic, one compatibility check
and the defect checks, and every coefficient operator here acts on any
leading axes and returns the type of its input.  The FFTs, the Leray
projection and the one thread setting, `set_threads`, live here and
nowhere else; it also sizes the level pool, whose n - 1 helpers run
`_map`'s tasks with the caller (an idle caller would cost a malloc arena).
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, replace

import numpy as np
import scipy.fft as sfft

from .errors import GridError, ResolutionError
from .grid import GridSpec, TWO_PI, dealias_mask, wavenumber_sq, wavevectors

_POOL: ThreadPoolExecutor | None = None  # the n - 1 helpers of `_map`, built on first use
_POOL_LOCK = threading.Lock()
_TASK = threading.local()  # `workers` is 1 in a thread running `_map` tasks


def set_threads(n: int) -> None:
    """Cap the package's threads at n, the caller included: the FFT workers of a
    transform outside `_map`'s tasks, and its n - 1 helpers.  n <= 0, the default,
    means the cores of the process's CPU affinity (the machine's without one)."""
    global _WORKERS, _POOL
    affinity = getattr(os, "sched_getaffinity", None)  # absent on some platforms
    _WORKERS = n if n > 0 else len(affinity(0)) if affinity else os.cpu_count() or 1
    with _POOL_LOCK:
        if _POOL is not None:
            _POOL.shutdown()
        _POOL = None


def _forget_pool() -> None:
    """A forked child inherits the pool and its lock but none of its threads."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)
set_threads(0)  # sets _WORKERS, the package's thread cap


def _workers() -> int:
    return getattr(_TASK, "workers", _WORKERS)


def _map(fn, items) -> list:
    """[fn(x) for x in items], one task per item, taken in turn from one
    counter by the caller and the level pool's n - 1 helpers (each pool
    thread holds its tasks' peak temporaries in a malloc arena of its own,
    so the caller works rather than waits); every task's transforms use one
    worker.  Inline, starting no thread, under set_threads(1), for one item
    and inside a task (nesting cannot deadlock).  A task's exception reaches
    the caller once every helper has stopped.  The items are listed before
    any task runs, so pass indices or views, not arrays made per item."""
    global _POOL
    items, n = list(items), _WORKERS
    if n == 1 or len(items) < 2 or hasattr(_TASK, "workers"):
        return [fn(x) for x in items]
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(n - 1, initializer=setattr, initargs=(_TASK, "workers", 1))
        pool = _POOL
    out, todo = [None] * len(items), itertools.count()  # one C call per next(): atomic

    def work():
        while (i := next(todo)) < len(items):
            out[i] = fn(items[i])

    helpers = [pool.submit(work) for _ in range(min(n, len(items)) - 1)]
    _TASK.workers = 1
    try:
        work()
    finally:
        del _TASK.workers
        wait(helpers)
    for h in helpers:
        h.result()
    return out


# -- the transforms -----------------------------------------------------------
# Every FFT in the package goes through `_to_spectral`, `_real_physical` and
# `_box_spectral`, on the last three axes of a batched array (nt, 3, N, N, N).
# An inverse skips the lines that a scan of its data (`_occupied`, then `_sparse`) finds empty.

def _to_spectral(phys: np.ndarray) -> np.ndarray:
    """Coefficients of real-space sample arrays."""
    return sfft.fftn(phys, axes=(-3, -2, -1), norm="forward", workers=_workers())


def _box_spectral(phys: np.ndarray, k: int) -> np.ndarray:
    """Coefficients of real samples on the dealiased box of `grid.dealias_box`
    in three pruned passes: the real z transform keeping k + 1 planes, y over
    those keeping 2k + 1 lines, then x over those keeping 2k + 1 rows."""
    zs = sfft.rfftn(phys, axes=(-1,), norm="forward", workers=_workers())[..., : k + 1]
    ys = sfft.fftn(zs, axes=(-2,), norm="forward", workers=_workers())
    ys = np.concatenate((ys[..., : k + 1, :], ys[..., -k:, :]), axis=-2)
    xs = sfft.fftn(ys, axes=(-3,), norm="forward", workers=_workers(), overwrite_x=True)
    return np.concatenate((xs[..., : k + 1, :, :], xs[..., -k:, :, :]), axis=-3)


def _from_box(n: int, box: np.ndarray) -> np.ndarray:
    """Full fftn-layout coefficients, (..., N, N, N), of a real field held on
    the dealiased box: the k_z = 0 plane is made exactly Hermitian, and the
    k_z < 0 half is the conjugate mirror of the k_z > 0 half."""
    k = box.shape[-1] - 1
    mirror = np.conj(np.roll(box[..., ::-1, ::-1, :0:-1], 1, axis=(-3, -2)))
    out = np.zeros(box.shape[:-3] + (n, n, n), dtype=complex)
    halves = ((slice(0, k + 1), slice(0, k + 1)), (slice(n - k, n), slice(k + 1, None)))
    for tx, bx in halves:
        for ty, by in halves:
            out[..., tx, ty, : k + 1] = box[..., bx, by, :]
            out[..., tx, ty, n - k :] = mirror[..., bx, by, :]
    plane = out[..., 0]
    out[..., 0] = 0.5 * (plane + np.conj(np.roll(plane[..., ::-1, ::-1], 1, axis=(-2, -1))))
    return out


def _occupied(c: np.ndarray) -> tuple:
    """Masks of the x rows, y rows and z planes of c (..., X, Y, Z) holding a nonzero value."""
    occ = np.any(c, axis=tuple(range(c.ndim - 3)))
    return tuple(np.any(occ, axis=tuple({0, 1, 2} - {a})) for a in range(3))


def _sparse(occupied: tuple, n: int) -> tuple:
    """Index and `_real_physical` rows of the lines the x, y and k_z >= 0 masks
    `occupied` mark; the k_z >= 0 planes and None past N/2 rows on x or y."""
    x, y, z = (np.flatnonzero(a) for a in occupied)
    if 2 * max(len(x), len(y)) > n:
        return (slice(None), slice(None), slice(n // 2 + 1)), None
    nz = z[-1] + 1 if len(z) else 0
    return np.ix_(x, y, np.arange(nz)), (x, y, nz)


def _real_physical(half: np.ndarray, n: int, rows: tuple | None = None) -> np.ndarray:
    """Real samples of Hermitian coefficients from their first N/2 + 1
    k_z >= 0 planes (the k_z < 0 half of a real field mirrors them, and any
    planes past N/2 are not read), by `irfftn`.  With `rows` = (xs, ys, nz),
    `half` holds only the modes at fftn x rows xs, y rows ys and k_z < nz,
    and the inverse skips the zero lines in `irfftn`'s order: x over the
    occupied y-z lines, then y over every x, then the real z pass."""
    if rows is None:
        return sfft.irfftn(half[..., : n // 2 + 1], s=(n, n, n), axes=(-3, -2, -1),
                           norm="forward", workers=_workers())
    (xs, ys, nz), lead = rows, half.shape[:-3]
    buf = np.zeros(lead + (n, len(ys), nz), dtype=complex)
    buf[..., xs, :, :] = half
    xt = sfft.ifftn(buf, axes=(-3,), norm="forward", workers=_workers(), overwrite_x=True)
    buf = np.zeros(lead + (n, n, nz), dtype=complex)
    buf[..., ys, :] = xt
    yt = sfft.ifftn(buf, axes=(-2,), norm="forward", workers=_workers(), overwrite_x=True)
    return sfft.irfftn(yt, s=(n,), axes=(-1,), norm="forward", workers=_workers())


class _Field:
    """What a field and a trajectory share: coefficients shaped
    (..., 3, N, N, N) on one grid, the arithmetic and the defect checks.
    Per-level quantities reduce over the leading axes by their maximum."""

    def _check_compatible(self, other) -> None:
        if type(other) is not type(self):
            raise GridError(f"cannot combine a {type(self).__name__} "
                            f"with a {type(other).__name__}")
        if other.grid != self.grid:
            raise GridError("fields live on different grids")

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other):
        self._check_compatible(other)
        return replace(self, coeffs=self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check_compatible(other)
        return replace(self, coeffs=self.coeffs - other.coeffs)

    def __mul__(self, alpha: float):
        return replace(self, coeffs=self.coeffs * alpha)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    # -- diagnostics -----------------------------------------------------
    def physical(self) -> np.ndarray:
        """Real-space samples, shape (..., 3, N, N, N), of the real field."""
        n = self.grid.n_points
        box, rows = _sparse(_occupied(self.coeffs[..., : n // 2 + 1]), n)
        return _real_physical(self.coeffs[(Ellipsis,) + box], n, rows)

    def sup_coeff(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def _levels(self):
        """The (3, N, N, N) coefficient arrays, one per leading index."""
        return (self.coeffs[i] for i in np.ndindex(self.coeffs.shape[:-4]))

    def hermitian_defect(self) -> float:
        """Max |c(-k) - conj(c(k))| relative to the largest coefficient."""
        worst = 0.0
        for c in self._levels():
            top = float(np.max(np.abs(c)))
            if top > 0.0:
                worst = max(worst, float(np.max(np.abs(np.conj(_reverse(c)) - c))) / top)
        return worst

    def divergence_defect(self) -> float:
        """Max over modes of |k.c(k)| / (|k| max|c|), a scale-free defect."""
        k = wavevectors(self.grid).astype(float) * (TWO_PI / self.grid.period)
        kmag = np.sqrt(k[0] ** 2 + k[1] ** 2 + k[2] ** 2)
        kmag[0, 0, 0] = 1.0
        worst = 0.0
        for c in self._levels():
            dot = np.abs(np.einsum("cxyz,cxyz->xyz", k, c))
            top = float(np.max(np.sqrt(np.sum(np.abs(c) ** 2, axis=0))))
            if top > 0.0:
                worst = max(worst, float(np.max(dot / kmag)) / top)
        return worst


@dataclass(frozen=True)
class SpectralField(_Field):
    grid: GridSpec
    coeffs: np.ndarray  # (3, N, N, N) complex128

    def __post_init__(self):
        n = self.grid.n_points
        if self.coeffs.shape != (3, n, n, n):
            raise GridError(f"coefficient array shape {self.coeffs.shape} mismatches grid")

    def l2(self) -> float:
        """L2 norm by Parseval (exact)."""
        vol = self.grid.period**3
        return math.sqrt(vol * float(np.sum(np.abs(self.coeffs) ** 2)))

    def lp(self, p: float) -> float:
        return lp_norm(_real_physical(self.coeffs, self.grid.n_points), self.grid, p)


@dataclass(frozen=True)
class Trajectory(_Field):
    """Time-sampled spectral field: coeffs[i] are the coefficients at times[i]."""

    grid: GridSpec
    times: np.ndarray  # (nt,), strictly increasing, times[0] == 0 typically
    coeffs: np.ndarray  # (nt, 3, N, N, N) complex128

    def __post_init__(self):
        n = self.grid.n_points
        nt = len(self.times)
        if self.coeffs.shape != (nt, 3, n, n, n):
            raise GridError("trajectory array shape mismatches grid/times")
        if nt >= 2 and not np.all(np.diff(self.times) > 0):
            raise ValueError("trajectory times must be strictly increasing")

    @property
    def n_times(self) -> int:
        return len(self.times)

    @property
    def t_final(self) -> float:
        return float(self.times[-1])

    def snapshot(self, i: int) -> SpectralField:
        return SpectralField(self.grid, self.coeffs[i])

    def _check_compatible(self, other) -> None:
        super()._check_compatible(other)
        if self.n_times != other.n_times or not np.allclose(self.times, other.times):
            raise ValueError("trajectories have different time grids")


def _reverse(c: np.ndarray) -> np.ndarray:
    """c evaluated at -k in fftn layout, over the last three axes."""
    return np.roll(c[..., ::-1, ::-1, ::-1], 1, axis=(-3, -2, -1))


def _power_root(top, p: float, power_sum):
    """(sum w x^p)^(1/p) from power_sum(s) = sum w (x / s)^p and top = max x,
    per result entry: s = 1 while top^p is within 2^+-960 (2^64 spare for the
    sum), else s = top, so that no term underflows and the sum cannot overflow."""
    with np.errstate(divide="ignore"):
        bits = np.abs(p * np.log2(top))  # inf at top = 0 or inf
    scale = np.where(np.isfinite(bits) & (bits > 960.0), top, 1.0)
    return scale * power_sum(scale) ** (1.0 / p)


def lp_norm(phys: np.ndarray, grid: GridSpec, p: float) -> float:
    """L^p norm of a (3,N,N,N) or (N,N,N) sample array by the rectangle rule.

    Vector fields use the pointwise Euclidean magnitude, from its square m2.
    p = inf is the grid max (which underestimates the true sup between grid
    points); an integer p <= 8 takes |u|^p as at most four products of m2
    (times sqrt(m2) when p is odd), every other p one real power; `_power_root` sums.
    """
    m2 = np.einsum("i...,i...->...", phys, phys) if phys.ndim == 4 else phys * phys
    top = math.sqrt(float(np.max(m2)))
    if math.isinf(p):
        return top

    def power_sum(s):
        sq = m2 if s == 1.0 else m2 / (s * s)
        if p == int(p) and p <= 8:
            powered = np.sqrt(sq) if p % 2 else sq
            for _ in range(int(p - 1) // 2):  # in place, once powered is not sq itself
                powered = np.multiply(powered, sq, out=None if powered is sq else powered)
        else:
            powered = np.sqrt(sq) ** p
        return np.sum(powered) * grid.cell_volume

    return float(_power_root(top, p, power_sum))


# -- constructors ---------------------------------------------------------

def zero_field(grid: GridSpec) -> SpectralField:
    n = grid.n_points
    return SpectralField(grid, np.zeros((3, n, n, n), dtype=np.complex128))


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
    r = _mode_radius(grid)
    band = (r >= 2.0 ** (j_lo + 1)) & (r <= 2.0 ** (j_hi + 1)) & dealias_mask(grid)
    return _random_field(grid, seed, band, amplitude, solenoidal)


def shell_bump(grid: GridSpec, j: int, seed: int = 0, amplitude: float = 1.0) -> SpectralField:
    """Random field supported strictly inside shell j.

    Modes are confined to 2^(j+1) <= |n| < 2^(j+1) * sqrt(2), where only
    Delta_j and Delta_(j+1) are nonzero (every other block vanishes
    exactly); Delta_j carries most of the energy.
    """
    r = _mode_radius(grid)
    lo = 2.0 ** (j + 1)
    return _random_field(grid, seed, (r >= lo) & (r < lo * math.sqrt(2.0)),
                         amplitude, solenoidal=True)


def _mode_radius(grid: GridSpec) -> np.ndarray:
    """|n| for the integer wavevector n of each mode."""
    nn = wavevectors(grid)
    return np.sqrt((nn[0] ** 2 + nn[1] ** 2 + nn[2] ** 2).astype(float))


def _random_field(grid: GridSpec, seed: int, band: np.ndarray, amplitude: float,
                  solenoidal: bool) -> SpectralField:
    """Gaussian coefficients on the band, made real (and divergence-free if
    solenoidal), scaled to L2 norm `amplitude`.  A solenoidal field leaves
    the Nyquist planes empty, as `leray_project` does."""
    rng = np.random.default_rng(seed)
    n = grid.n_points
    c = rng.standard_normal((3, n, n, n)) + 1j * rng.standard_normal((3, n, n, n))
    c *= band
    f = hermitian_symmetrize(grid, c)
    if solenoidal:
        f = leray_project(f)
    top = f.l2()
    return f * (amplitude / top) if top > 0 else f


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
# Each acts on a field or a trajectory, i.e. on coefficients shaped
# (..., 3, N, N, N), and returns the type of its input.

def leray_project(u: _Field) -> _Field:
    """Remove the gradient part: c(k) -> c(k) - k (k.c(k)) / |k|^2.  Modes with
    some n_i = -N/2 come back empty: the fftn layout gives both Hermitian
    partners there the wavenumber -N/2, so projecting them breaks reality."""
    c = u.coeffs.copy()
    _project(wavevectors(u.grid), c)
    h = u.grid.n_points // 2
    c[..., h, :, :] = c[..., h, :] = c[..., h] = 0.0
    return replace(u, coeffs=c)


def _project(nn: np.ndarray, c: np.ndarray) -> None:
    """Leray projection in place on a (..., 3, *S) coefficient array whose
    modes have the integer wavevectors nn (3, *S), e.g. the dealiased box.

    Works one component at a time, so no temporary is larger than one
    component; the k = 0 coefficient is left unchanged (its k factor is 0).
    """
    k = nn.astype(float)
    k2 = k[0] ** 2 + k[1] ** 2 + k[2] ** 2
    dot = k[0] * c[..., 0, :, :, :]
    dot += k[1] * c[..., 1, :, :, :]
    dot += k[2] * c[..., 2, :, :, :]
    dot /= np.where(k2 == 0.0, 1.0, k2)
    for a in range(3):
        c[..., a, :, :, :] -= k[a] * dot


def heat_flow(u: _Field, tau: float) -> _Field:
    """e^(tau Laplacian): exact per-mode multiplier exp(-tau |k|^2)."""
    if tau < 0:
        raise ValueError(f"heat flow time must be nonnegative, got {tau}")
    if tau == 0.0:
        return u
    return replace(u, coeffs=u.coeffs * np.exp(-tau * wavenumber_sq(u.grid)))


def scaling_transform(u: _Field, m: int) -> _Field:
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
    return replace(u, grid=replace(u.grid, period=u.grid.period / lam),
                   coeffs=lam * u.coeffs)


def dyadic_shift(u: _Field, m: int, amplitude: float = 1.0,
                 strict: bool = True) -> _Field:
    """Move the coefficient at wavevector n to 2^m n, times `amplitude`.

    Same-grid frequency dilation: blocks shift by m shells.  For m > 0,
    raises ResolutionError if populated modes would pass Nyquist (unless
    strict=False, which drops them).  For m < 0, modes not divisible by
    2^|m| are dropped (strict=True raises instead if they carry energy).
    """
    if m == 0:
        return u if amplitude == 1.0 else u * amplitude
    return _lattice_shift(u, m, amplitude, strict)


def _lattice(n: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(valid, keep, tgt) of a dyadic shift by m on each axis of N modes: which
    fftn rows it keeps, their indices and the rows they land on (identity at m = 0)."""
    idx1d = np.fft.fftfreq(n, 1.0 / n).astype(int)
    # for m > 0 the Nyquist bin +-N/2 is a single shared slot; landing there
    # would collide Hermitian partners, so treat it as out of range
    valid = np.abs(idx1d << m) < n // 2 if m > 0 else idx1d % (1 << (-m)) == 0
    keep = np.nonzero(valid)[0]
    return valid, keep, (idx1d[keep] << m if m > 0 else idx1d[keep] >> (-m)) % n


def _lattice_shift(u: _Field, m: int, amplitude: float, strict: bool, phase=None) -> _Field:
    """`dyadic_shift` by m != 0; `phase(rows)`, when given, multiplies the kept
    modes, rows x rows x rows for the fftn rows kept on each axis, first."""
    valid, keep, tgt = _lattice(u.grid.n_points, m)
    if strict and not np.all(valid):
        valid3 = valid[:, None, None] & valid[None, :, None] & valid[None, None, :]
        if np.any(np.abs(u.coeffs[..., ~valid3]) > 0):
            raise ResolutionError(
                f"dyadic shift by {m} moves populated modes out of the grid"
            )
    kept = u.coeffs[(Ellipsis,) + np.ix_(keep, keep, keep)]
    if phase is not None:
        kept *= phase(keep)
    out = np.zeros_like(u.coeffs)
    out[(Ellipsis,) + np.ix_(tgt, tgt, tgt)] = amplitude * kept
    return replace(u, coeffs=out)


def dealias(u: _Field) -> _Field:
    return replace(u, coeffs=u.coeffs * dealias_mask(u.grid))
