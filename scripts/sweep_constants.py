"""Sweep the empirical constants of the product and heat estimates over
a seeded corpus and print gnuplot-friendly two-column data.

Usage: python3 scripts/sweep_constants.py [--n-points 32] [--corpus 8]
"""
import argparse
import math

from bnslab.field import random_band_limited
from bnslab.grid import GridSpec
from bnslab.littlewood_paley import besov_norm, critical_index
from bnslab.paraproduct import (heat_characterization_norm,
                                product_estimate_check)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-points", type=int, default=32)
    ap.add_argument("--corpus", type=int, default=8)
    args = ap.parse_args()
    grid = GridSpec(args.n_points)
    idx = critical_index(6.0, math.inf)

    fields, reps = [], []
    for seed in range(args.corpus):
        f = random_band_limited(grid, j_lo=0, j_hi=2, seed=seed)
        g = random_band_limited(grid, j_lo=0, j_hi=2, seed=1000 + seed)
        fields.append(f)
        reps.append(product_estimate_check(f, g, s1=-0.5, t1=1.0, p=4.0, p2=4.0))

    print("# seed t_constant")
    for seed, rep in enumerate(reps):
        print(f"{seed} {rep['t_constant']:.6e}")

    print("\n\n# seed r_constant")
    for seed, rep in enumerate(reps):
        print(f"{seed} {rep['r_constant']:.6e}")

    print("\n\n# seed heat_characterization_ratio")
    for seed, u in enumerate(fields):
        ratio = heat_characterization_norm(u, idx) / besov_norm(u, idx)
        print(f"{seed} {ratio:.6e}")


if __name__ == "__main__":
    main()
