"""Orthogonality sweep for two planted profiles: prints the defect of
the critical-norm Pythagorean identity and the maximal cross term as a
function of the scale/translation gap (two-column data per block).

Usage: python3 scripts/profile_sweep.py [--n-points 64]
"""
import argparse

from bnslab.field import random_band_limited
from bnslab.grid import GridSpec
from bnslab.littlewood_paley import besov_norm, critical_index
from bnslab.profiles import (ProfileSet, ScaleCore, max_cross_term,
                             orthogonality_gap, pythagorean_gap, scale_op,
                             synthesize)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-points", type=int, default=64)
    args = ap.parse_args()
    grid = GridSpec(args.n_points)
    idx = critical_index(3.0, 3.0)
    phi1 = random_band_limited(grid, j_lo=0, j_hi=1, seed=25, amplitude=1.0)
    phi2 = random_band_limited(grid, j_lo=0, j_hi=0, seed=26, amplitude=0.7)
    cases = [(-1, 4), (-2, 12), (-3, 8), (-3, 28)]

    print("# gap pythagorean_defect cross_term_max")
    for m, sep in cases:
        a = ScaleCore(0, (0, 0, 0))
        b = ScaleCore(m, (sep, sep, sep))
        ps = ProfileSet([phi1, phi2], [[a], [b]], [None])
        f = synthesize(ps, 0, p=idx.p)
        eps = pythagorean_gap(ps, 0, idx)
        rel = eps / besov_norm(f, idx) ** idx.p
        cross = max_cross_term(scale_op(a, phi1), scale_op(b, phi2), 3)
        gap = orthogonality_gap(a, b, grid)
        print(f"{gap:.4f} {rel:.6e} {cross:.6e}")


if __name__ == "__main__":
    main()
