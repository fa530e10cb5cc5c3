"""Golden outputs: fixed-seed results of the solver, the K[v] inversion,
the solver with a drift and a forcing, profile extraction, the
paraproduct checks, the evolved decomposition and the space-time norm
family, all at 32^3, against `golden/golden.json`.

Each case returns three groups of values:

* ``exact``: counts, schedules, flags and classifications;
* ``rel``: O(1) values, matched at relative 1e-12;
* ``abs``: values that are already ratios to a solution norm (residuals,
  round-trip errors, defects), matched at absolute 1e-12.

Re-record only when a change is meant to move numbers, and list the old
and new values in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py --record <commit of the code>
"""
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from bnslab.expansion import (OperatorHandle, apply_L, invert_K,
                              simple_iteration)
from bnslab.field import random_band_limited
from bnslab.grid import GridSpec
from bnslab.littlewood_paley import besov_norm, critical_index
from bnslab.paraproduct import (bony_reconstruction_defect,
                                paraproduct_support_defect,
                                product_estimate_check)
from bnslab.profiles import (ProfileSet, ScaleCore, evolve_decomposition,
                             extract_profiles, synthesize)
from bnslab.solver import SolverConfig, heat_trajectory, picard_solve, solve
from bnslab.spacetime import (Trajectory, chemin_lerner_norm,
                              embedding_chain_check, kato_interpolation_constant,
                              kato_norm, lebesgue_besov_norm, script_norm)

GOLDEN = Path(__file__).parent / "golden" / "golden.json"
REL = 1e-12
ABS = 1e-12


def _floats(a) -> list:
    return [float(x) for x in np.ravel(a)]


def case_picard(grid):
    u0 = random_band_limited(grid, j_lo=0, j_hi=2, seed=7, amplitude=0.05)
    _, rep = picard_solve(u0, SolverConfig(dt=0.01, n_steps=16))
    return {
        "exact": {"classification": rep.classification,
                  "iterations": len(rep.picard_residuals)},
        "rel": {"times": _floats(rep.times),
                "besov_norms": _floats(rep.besov_norms),
                "running_script": _floats(rep.running_script)},
        "abs": {"residuals": _floats(rep.picard_residuals)},
    }


def case_drift_roundtrip(grid):
    cfg = SolverConfig(dt=0.01, n_steps=10)
    v0 = random_band_limited(grid, j_lo=0, j_hi=2, seed=60, amplitude=0.2)
    w0 = random_band_limited(grid, j_lo=0, j_hi=2, seed=80, amplitude=0.1)
    handle = OperatorHandle(heat_trajectory(v0, cfg.times))
    w = heat_trajectory(w0, cfg.times)
    z = apply_L(handle, w)
    back = invert_K(handle, z)
    ref = script_norm(w, 1.0, math.inf, 3.0)
    return {
        "exact": {},
        "rel": {"z_script": script_norm(z, 1.0, math.inf, 3.0),
                "w_script": ref},
        "abs": {"roundtrip_error": script_norm(back - w, 1.0, math.inf, 3.0) / ref},
    }


def case_perturbed(grid):
    cfg = SolverConfig(dt=0.01, n_steps=8)
    w0 = random_band_limited(grid, j_lo=0, j_hi=2, seed=31, amplitude=0.05)
    v0 = random_band_limited(grid, j_lo=0, j_hi=2, seed=32, amplitude=0.1)
    drift = heat_trajectory(v0, cfg.times)
    # a forcing that is neither solenoidal nor mean-zero
    f0 = random_band_limited(grid, j_lo=0, j_hi=2, seed=33, amplitude=0.2,
                             solenoidal=False)
    coeffs = np.broadcast_to(f0.coeffs, (len(cfg.times),) + f0.coeffs.shape).copy()
    coeffs[:, :, 0, 0, 0] = [0.3, -0.2, 0.1]
    forcing = Trajectory(grid, cfg.times, coeffs)
    w, _, converged = solve(w0, cfg, drifts=[drift], forcings=[forcing])
    idx = critical_index(3.0, 3.0)
    return {
        "exact": {"converged": converged,
                  "mean_max": float(np.max(np.abs(w.coeffs[:, :, 0, 0, 0])))},
        "rel": {"script": script_norm(w, 1.0, math.inf, 3.0),
                "final_besov": besov_norm(w.snapshot(w.n_times - 1), idx),
                "final_divergence_free": float(w.divergence_defect() < 1e-10)},
        "abs": {},
    }


def case_extraction(grid):
    idx = critical_index(3.0, 3.0)
    phi1 = random_band_limited(grid, j_lo=0, j_hi=0, seed=21, amplitude=1.0)
    phi2 = random_band_limited(grid, j_lo=0, j_hi=0, seed=22, amplitude=0.7)
    ms = (-1, -1, -2, -2)
    seps = (3, 5, 7, 9)
    ps = ProfileSet(
        profiles=[phi1, phi2],
        schedules=[[ScaleCore(0, (0, 0, 0))] * len(ms),
                   [ScaleCore(m, (s, s, s)) for m, s in zip(ms, seps)]],
        remainders=[None] * len(ms),
    )
    seq = [synthesize(ps, n, 2, p=3.0) for n in range(len(ms))]
    rec = extract_profiles(seq, j_max=3, threshold=0.01)
    return {
        "exact": {"n_profiles": rec.n_profiles(), "complete": rec.complete,
                  "schedules": [[[sc.m, *sc.core] for sc in sched]
                                for sched in rec.schedules]},
        "rel": {"profile_norms": [besov_norm(f, idx) for f in rec.profiles]},
        "abs": {},
    }


def case_paraproduct(grid):
    f = random_band_limited(grid, j_lo=0, j_hi=2, seed=88)
    g = random_band_limited(grid, j_lo=0, j_hi=2, seed=89)
    rep = product_estimate_check(f, g, s1=-0.5, t1=1.0, p=4.0, p2=4.0)
    return {
        "exact": {},
        "rel": {k: float(v) for k, v in sorted(rep.items())},
        "abs": {"bony_defect": bony_reconstruction_defect(f, g),
                "support_defect": paraproduct_support_defect(f, g)},
    }


def case_evolve(grid):
    phi1 = random_band_limited(grid, j_lo=1, j_hi=1, seed=41, amplitude=0.3)
    phi2 = random_band_limited(grid, j_lo=1, j_hi=1, seed=42, amplitude=0.15)
    rem = random_band_limited(grid, j_lo=0, j_hi=2, seed=43, amplitude=0.05)
    ps = ProfileSet(
        profiles=[phi1, phi2],
        schedules=[[ScaleCore(0, (0, 0, 0))], [ScaleCore(1, (5, 9, 3))]],
        remainders=[rem],
    )
    out = evolve_decomposition(ps, SolverConfig(dt=0.01, n_steps=4), p=3.0)[0]
    return {
        "exact": {"diverged": out["diverged"], "n": out["n"]},
        "rel": {"r_norm": out["r_norm"], "u_norm": out["u_norm"]},
        "abs": {},
    }


def case_spacetime_norms(grid):
    cfg = SolverConfig(dt=0.25 / 16, n_steps=16)
    u = random_band_limited(grid, j_lo=0, j_hi=2, seed=12)
    traj = heat_trajectory(u, cfg.times)
    p, q = 3.0, 6.0
    idx = critical_index(p, p)
    rel = {  # the six rows `bnslab norms` writes
        "chemin_lerner_1": chemin_lerner_norm(traj, idx, 1.0),
        "chemin_lerner_inf": chemin_lerner_norm(traj, idx, math.inf),
        "script": script_norm(traj, 1.0, math.inf, p, math.inf),
        "kato": kato_norm(traj, q),
        "kato1": kato_norm(traj, q, order=1),
        "lebesgue_2": lebesgue_besov_norm(traj, idx, 2.0),
    }
    chain = embedding_chain_check(traj, 1.0, 5.0, math.inf, critical_index(3, 5))
    u0 = random_band_limited(grid, j_lo=0, j_hi=2, seed=75, amplitude=0.05)
    sol, _ = picard_solve(u0, cfg)
    step = simple_iteration(sol, u0, 1)[0]
    rel.update({f"chain_{k}": v for k, v in chain.items() if k != "ok"})
    rel["kato_interpolation"] = kato_interpolation_constant(traj, 6.0)
    rel["v_sup_l3"] = step["v_sup_l3"]
    rel["w_l3"] = step["w_l3"]
    return {
        "exact": {"chain_ok": chain["ok"]},
        "rel": rel,
        "abs": {"defect": step["defect"]},
    }


CASES = {
    "picard": case_picard,
    "drift_roundtrip": case_drift_roundtrip,
    "perturbed": case_perturbed,
    "extraction": case_extraction,
    "paraproduct": case_paraproduct,
    "evolve": case_evolve,
    "spacetime_norms": case_spacetime_norms,
}


def _close(got, want, rel, abs_):
    if isinstance(want, list):
        return len(got) == len(want) and all(
            _close(g, w, rel, abs_) for g, w in zip(got, want))
    return abs(got - want) <= rel * abs(want) + abs_


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    want = json.loads(GOLDEN.read_text())["cases"][name]
    got = CASES[name](GridSpec(32))
    assert got["exact"] == want["exact"]
    assert got["rel"].keys() == want["rel"].keys()
    assert got["abs"].keys() == want["abs"].keys()
    for key, value in want["rel"].items():
        assert _close(got["rel"][key], value, REL, 0.0), (key, got["rel"][key], value)
    for key, value in want["abs"].items():
        assert _close(got["abs"][key], value, 0.0, ABS), (key, got["abs"][key], value)


def test_evolve_builds_no_report(no_monitor, block_matrices):
    # the three solves read only convergence, so none of them builds the
    # report's block-norm matrix (16 matrices when each one did)
    assert not case_evolve(GridSpec(32))["exact"]["diverged"]
    assert len(block_matrices) == 13


def _record(commit: str) -> None:
    grid = GridSpec(32)
    # json writes every float with repr, so the values round-trip exactly
    data = {"commit": commit,
            "cases": {name: fn(grid) for name, fn in sorted(CASES.items())}}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:2] != ["--record"]:
        sys.exit(__doc__)
    _record(sys.argv[2] if len(sys.argv) > 2 else "unknown")
