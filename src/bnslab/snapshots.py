"""Binary snapshot persistence.

Field snapshot layout ("BNSF"):
    magic      4 bytes  b"BNSF"
    version    u32 little-endian (currently 1)
    n_points   u32 little-endian
    period     f64 little-endian
    flags      3 x u8, one per vector component (1 = stored)
followed by the complex coefficients of each stored component as
little-endian f64 pairs (re, im), row-major in the fftn wavevector
layout, and nothing after them.  Readers reject mismatched magic or
version, a short or overlong payload, NaN or infinite coefficients, and
coefficients of a field that is not real (Hermitian defect above 1e-10)
or not mean-zero (k = 0 coefficient above 1e-10 of the largest).

Trajectories are directories holding one snapshot per time index plus a
`times.csv` table; run manifests record config hash, seed, and package
version so identical inputs are recognizably identical runs.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError
from .field import SpectralField, Trajectory
from .grid import GridSpec
from .spacetime import from_fields

MAGIC = b"BNSF"
VERSION = 1
_HEADER = struct.Struct("<4sIId3B")


def write_field(path, u: SpectralField) -> None:
    path = Path(path)
    header = _HEADER.pack(MAGIC, VERSION, u.grid.n_points, u.grid.period,
                          1, 1, 1)
    flat = np.ascontiguousarray(u.coeffs, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(flat.tobytes())


def read_field(path) -> SpectralField:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise ConfigError(f"{path}: truncated snapshot header")
    magic, version, n_points, period, f0, f1, f2 = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise ConfigError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise ConfigError(f"{path}: unsupported snapshot version {version}")
    if (f0, f1, f2) != (1, 1, 1):
        raise ConfigError(f"{path}: partial-component snapshots not supported")
    grid = GridSpec(n_points=n_points, period=period)
    count = 3 * n_points**3
    if len(raw) - _HEADER.size != count * 16:
        raise ConfigError(f"{path}: snapshot payload has {len(raw) - _HEADER.size} "
                          f"bytes, expected {count * 16}")
    coeffs = np.frombuffer(raw, dtype="<c16", offset=_HEADER.size, count=count)
    if not np.all(np.isfinite(coeffs)):
        raise ConfigError(f"{path}: non-finite snapshot coefficient")
    coeffs = coeffs.reshape(3, n_points, n_points, n_points).astype(np.complex128)
    u = SpectralField(grid, coeffs)
    defect = u.hermitian_defect()
    if defect > 1e-10:
        raise ConfigError(f"{path}: coefficients are not Hermitian-symmetric "
                          f"(defect {defect:.3g}), the field is not real")
    if np.max(np.abs(coeffs[:, 0, 0, 0])) > 1e-10 * u.sup_coeff():
        raise ConfigError(f"{path}: the k = 0 coefficient is nonzero, "
                          "the field is not mean-zero")
    return u


def write_trajectory(directory, traj: Trajectory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "times.csv", "w") as fh:
        fh.write("index,t\n")
        for i, t in enumerate(traj.times):
            fh.write(f"{i},{float(t)!r}\n")
    for i in range(traj.n_times):
        write_field(directory / f"snapshot_{i:05d}.bnsf", traj.snapshot(i))


def read_trajectory(directory) -> Trajectory:
    directory = Path(directory)
    times_file = directory / "times.csv"
    if not times_file.exists():
        raise ConfigError(f"{directory}: missing times.csv")
    times = []
    for line in times_file.read_text().splitlines()[1:]:
        _, t = line.split(",")
        times.append(float(t))
    fields = [read_field(directory / f"snapshot_{i:05d}.bnsf")
              for i in range(len(times))]
    return from_fields(np.array(times), fields)


def config_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def write_manifest(directory, command: str, config_text: str, seed,
                   extra: dict | None = None) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    doc = {
        "command": command,
        "config_sha256_16": config_hash(config_text),
        "seed": seed,
        "version": __version__,
    }
    if extra:
        doc.update(extra)
    with open(directory / "manifest.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
