"""Snapshot format and manifests: byte-exact round trips, rejection of
malformed input, deterministic hashing."""
import json

import numpy as np
import pytest

from bnslab.errors import ConfigError
from bnslab.field import SpectralField, random_band_limited
from bnslab.grid import GridSpec
from bnslab.snapshots import (config_hash, read_field, read_trajectory,
                              write_field, write_manifest, write_trajectory)
from bnslab.solver import heat_trajectory


@pytest.fixture(scope="module")
def grid():
    return GridSpec(32)


def test_field_roundtrip(grid, tmp_path):
    u = random_band_limited(grid, j_lo=0, j_hi=2, seed=60)
    path = tmp_path / "u.bnsf"
    write_field(path, u)
    v = read_field(path)
    assert v.grid == u.grid
    assert np.array_equal(v.coeffs, u.coeffs)


def test_write_is_deterministic(grid, tmp_path):
    u = random_band_limited(grid, j_lo=0, j_hi=2, seed=61)
    p1, p2 = tmp_path / "a.bnsf", tmp_path / "b.bnsf"
    write_field(p1, u)
    write_field(p2, u)
    assert p1.read_bytes() == p2.read_bytes()


def test_rejects_bad_magic(grid, tmp_path):
    path = tmp_path / "bad.bnsf"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ConfigError):
        read_field(path)


def test_rejects_truncated(grid, tmp_path):
    u = random_band_limited(grid, j_lo=0, j_hi=2, seed=62)
    path = tmp_path / "t.bnsf"
    write_field(path, u)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(ConfigError):
        read_field(path)


def test_rejects_trailing_bytes(grid, tmp_path):
    u = random_band_limited(grid, j_lo=0, j_hi=2, seed=64)
    path = tmp_path / "long.bnsf"
    write_field(path, u)
    path.write_bytes(path.read_bytes() + bytes(16))
    with pytest.raises(ConfigError, match="expected"):
        read_field(path)


@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.inf)])
def test_rejects_non_finite_coefficients(grid, tmp_path, bad):
    u = random_band_limited(grid, j_lo=0, j_hi=2, seed=65)
    coeffs = u.coeffs.copy()
    coeffs[1, 2, 3, 4] = bad
    path = tmp_path / "nan.bnsf"
    write_field(path, SpectralField(grid, coeffs))
    with pytest.raises(ConfigError, match="non-finite"):
        read_field(path)


def test_rejects_unpaired_mode(grid, tmp_path):
    u = random_band_limited(grid, j_lo=0, j_hi=2, seed=66)
    coeffs = u.coeffs.copy()
    coeffs[0, 1, 2, 3] += 0.1 * u.sup_coeff()  # its partner at -k stays
    path = tmp_path / "complex.bnsf"
    write_field(path, SpectralField(grid, coeffs))
    with pytest.raises(ConfigError, match="Hermitian"):
        read_field(path)


def test_rejects_nonzero_mean(grid, tmp_path):
    u = random_band_limited(grid, j_lo=0, j_hi=2, seed=67)
    coeffs = u.coeffs.copy()
    coeffs[2, 0, 0, 0] = 1e-8 * u.sup_coeff()  # real, so still Hermitian
    path = tmp_path / "mean.bnsf"
    write_field(path, SpectralField(grid, coeffs))
    with pytest.raises(ConfigError, match="mean-zero"):
        read_field(path)


def test_trajectory_roundtrip(grid, tmp_path):
    u0 = random_band_limited(grid, j_lo=0, j_hi=2, seed=63)
    traj = heat_trajectory(u0, np.linspace(0.0, 0.1, 5))
    d = tmp_path / "traj"
    write_trajectory(d, traj)
    back = read_trajectory(d)
    assert np.allclose(back.times, traj.times)
    assert np.array_equal(back.coeffs, traj.coeffs)


def test_config_hash_stable_and_sensitive():
    a = "[grid]\nn_points = 32\n"
    c = "[grid]\nn_points = 64\n"
    assert config_hash(a) == config_hash(a)
    assert config_hash(a) != config_hash(c)
    assert len(config_hash(a)) == 16


def test_manifest_contents(tmp_path):
    write_manifest(tmp_path, "norms", "[grid]\nn_points = 32\n", seed=5)
    m = json.loads((tmp_path / "manifest.json").read_text())
    assert m["command"] == "norms"
    assert m["seed"] == 5
    assert len(m["config_sha256_16"]) == 16
