"""Calibrate the small-data threshold c0 on the desk-scale grid.

Bisects the largest initial critical norm at which the Picard iteration
still converges within the iteration budget, across a small seed corpus.
The reported value (times a safety margin) is what the acceptance
suite's C0 should track.

Usage: python3 scripts/calibrate_c0.py [--n-points 32] [--seeds 4]
"""
import argparse

from bnslab.field import random_band_limited
from bnslab.grid import GridSpec
from bnslab.solver import SolverConfig, solve


def converges(grid, seed, amplitude):
    u0 = random_band_limited(grid, j_lo=0, j_hi=2, seed=seed,
                             amplitude=amplitude)
    cfg = SolverConfig(dt=0.01, n_steps=16, max_picard_iters=20)
    return solve(u0, cfg)[2]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-points", type=int, default=32)
    ap.add_argument("--seeds", type=int, default=4)
    ap.add_argument("--iters", type=int, default=12)
    args = ap.parse_args()
    grid = GridSpec(args.n_points)
    thresholds = []
    for seed in range(args.seeds):
        lo, hi = 0.0, 8.0
        for _ in range(args.iters):
            mid = 0.5 * (lo + hi)
            if converges(grid, seed, mid):
                lo = mid
            else:
                hi = mid
        thresholds.append(lo)
        print(f"seed {seed}: threshold L2 amplitude ~ {lo:.4f}")
    worst = min(thresholds)
    print(f"\nworst-case threshold: {worst:.4f}")
    print(f"suggested c0 (10x margin): {worst / 10.0:.4f}")


if __name__ == "__main__":
    main()
