"""Print the sha256 of every output the lab writes, under one and under two
threads, so that two checkouts can be compared byte for byte.

Usage: python3 scripts/output_digest.py

Each line is `<threads> <output> <sha256>`.  The outputs are:

* every file that `bnslab norms`, `solve` (with `write_trajectory`),
  `iterate`, `expand` (staged), `profiles` (with `extract = true`, and
  under the name `profiles-evolve` with `evolve = true`) and
  `verify-estimates` write on small 32^3 configs, and those of
  `generate-field` with the `taylor_green_like` kind and with the
  `shell_bump` kind at j = 1;
* the raw bytes of the 64^3, 17-level `block_norm_matrix` at p = 2, 3, 5;
* the six fields of the criterion-12 sequence (64^3), made by `synthesize`
  (dyadic shifts and full-size translation phases), and the profiles,
  schedules and remainders that `extract_profiles` returns on it, and the
  `block_norm_matrix` at p = 3, 6 of the six fields stacked as a 6-level
  trajectory with times 0..5 (sparse lattice data, whose narrow shells the
  block engine transforms only over the lines they occupy).  The profiles and
  remainders are hashed with signed zeros folded by `+ 0.0`: the extractor
  forms its scaled copies only on the rows they occupy, and a zero it does
  not multiply keeps the sign it had, but no value changes;
* the coefficients of one 32^3, 11-level K[v] round trip,
  `invert_K(apply_L(w))`, with signed zeros folded as above: K[v] scales
  B by 2 on the dealiased box, before its conjugate mirror to the full
  layout, and where B is exactly zero that order can flip the sign of the
  zero but never a value.

The command outputs go to a temporary directory.  The script exits 1 when
the two thread settings give different bytes.  It calls only long-standing
names (the CLI, `set_threads`, `Trajectory`, `block_norm_matrix`,
`extract_profiles`, `apply_L`, `invert_K`), so it also runs on an older
checkout for a before/after comparison.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

from bnslab.cli import main as bnslab
from bnslab.expansion import OperatorHandle, apply_L, invert_K
from bnslab.field import Trajectory, random_band_limited, set_threads
from bnslab.grid import GridSpec
from bnslab.profiles import ProfileSet, ScaleCore, extract_profiles, synthesize
from bnslab.solver import SolverConfig, heat_trajectory
from bnslab.spacetime import block_norm_matrix

FIELD = """[grid]
n_points = 32
[field]
kind = random_bandlimited
j_lo = 0
j_hi = 2
amplitude = 0.05
[solver]
dt = 0.01
n_steps = 8
"""
PROFILES = """[grid]
n_points = 32
[profile1]
j_lo = 0
j_hi = 0
[profile2]
j_lo = 0
j_hi = 0
amplitude = 0.7
[profiles]
m_sweep = -1 -1 -2 -2
sep_sweep = 3 5 7 9
extract = true
threshold = 0.01
"""
EVOLVE = """[grid]
n_points = 32
[profile1]
j_lo = 0
j_hi = 0
amplitude = 0.3
[profile2]
j_lo = 0
j_hi = 0
amplitude = 0.15
[solver]
dt = 0.01
n_steps = 4
[profiles]
m_sweep = -1 -1 -2 -2
sep_sweep = 3 5 7 9
evolve = true
"""
KIND = "[grid]\nn_points = 32\n[field]\nkind = "
COMMANDS = {  # digest name: (command, config, seed)
    "norms": ("norms", FIELD + "[norms]\nn_steps = 8\n", 4),
    "solve": ("solve", FIELD + "[output]\nwrite_trajectory = true\n", 4),
    "iterate": ("iterate", FIELD + "[iterate]\nj_steps = 3\n", 4),
    "expand": ("expand", FIELD + "[expand]\nmode = staged\nk = 2\n", 4),
    "profiles": ("profiles", PROFILES, 21),
    "verify-estimates": ("verify-estimates",
                         "[grid]\nn_points = 32\n[verify]\nn_fields = 2\n", 3),
    "profiles-evolve": ("profiles", EVOLVE, 21),
    "generate-field-taylor-green": ("generate-field", KIND + "taylor_green_like\n", 5),
    "generate-field-shell-bump": ("generate-field", KIND + "shell_bump\nj = 1\n", 5),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def command_digests(root: Path, threads: int) -> dict:
    """Run every command in COMMANDS and hash each file it writes."""
    out = {}
    for name, (command, config, seed) in COMMANDS.items():
        run_dir = root / f"threads{threads}" / name
        run_dir.mkdir(parents=True)
        (run_dir / "config.ini").write_text(config)
        code = bnslab([command, "--config", str(run_dir / "config.ini"), "--seed",
                       str(seed), "--threads", str(threads), "--out", str(run_dir / "out")])
        out[f"{name}/exit"] = _sha(str(code).encode())
        for path in sorted((run_dir / "out").rglob("*")):
            if path.is_file():
                out[f"{name}/{path.relative_to(run_dir / 'out')}"] = _sha(path.read_bytes())
    return out


def matrix_digests() -> dict:
    """The 64^3, 17-level block-norm matrix at p = 2, 3, 5."""
    grid = GridSpec(64)
    u = random_band_limited(grid, j_lo=0, j_hi=grid.j_max, seed=5, amplitude=0.05)
    traj = heat_trajectory(u, np.linspace(0.0, 0.25, 17))
    return {f"block_norm_matrix/p{p}": _sha(block_norm_matrix(traj, float(p)).tobytes())
            for p in (2, 3, 5)}


def extraction_digests() -> dict:
    """The criterion-12 sequence, its block norms and extract_profiles on it."""
    grid = GridSpec(64)
    phi1 = random_band_limited(grid, j_lo=1, j_hi=1, seed=21, amplitude=1.0)
    phi2 = random_band_limited(grid, j_lo=0, j_hi=0, seed=22, amplitude=0.7)
    ms, seps = (-1, -1, -2, -2, -3, -3), (3, 5, 7, 9, 11, 13)
    ps = ProfileSet(profiles=[phi1, phi2],
                    schedules=[[ScaleCore(0, (0, 0, 0))] * len(ms),
                               [ScaleCore(m, (s, s, s)) for m, s in zip(ms, seps)]],
                    remainders=[None] * len(ms))
    seq = [synthesize(ps, n, 2, p=3.0) for n in range(len(ms))]
    rec = extract_profiles(seq, j_max=3, threshold=0.01)
    out = {f"synthesize/seq{n}": _sha(f.coeffs.tobytes()) for n, f in enumerate(seq)}
    stacked = Trajectory(grid, np.arange(float(len(seq))), np.stack([f.coeffs for f in seq]))
    for p in (3, 6):
        out[f"synthesize/block_norm_matrix/p{p}"] = _sha(
            block_norm_matrix(stacked, float(p)).tobytes())
    out["extract_profiles/schedules"] = _sha(rec.manifest_rows().encode())
    for name, fields in (("profile", rec.profiles), ("remainder", rec.remainders)):
        for i, f in enumerate(fields):
            out[f"extract_profiles/{name}{i}"] = _sha((f.coeffs + 0.0).tobytes())
    return out


def inversion_digests() -> dict:
    """invert_K(apply_L(w)) for a heat-flow drift and target."""
    grid, times = GridSpec(32), SolverConfig(dt=0.01, n_steps=10).times
    v = heat_trajectory(random_band_limited(grid, j_lo=0, j_hi=2, seed=60, amplitude=2.0), times)
    w = heat_trajectory(random_band_limited(grid, j_lo=0, j_hi=2, seed=80, amplitude=0.1), times)
    handle = OperatorHandle(v)
    back = invert_K(handle, apply_L(handle, w))
    return {"invert_K/roundtrip": _sha((back.coeffs + 0.0).tobytes())}


def digests(root: Path, threads: int) -> dict:
    out = command_digests(root, threads)  # the CLI sets the thread count
    set_threads(threads)
    out.update(matrix_digests())
    out.update(extraction_digests())
    out.update(inversion_digests())
    return out


def run(argv=None) -> int:
    argparse.ArgumentParser(description="Digest every output under 1 and 2 "
                            "threads.").parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        try:
            by_threads = {n: digests(Path(tmp), n) for n in (1, 2)}
        finally:
            set_threads(0)
    for n, out in by_threads.items():
        for name, sha in out.items():
            print(f"{n} {name} {sha}")
    if by_threads[1] != by_threads[2]:
        print("thread settings 1 and 2 give different outputs", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(run())
