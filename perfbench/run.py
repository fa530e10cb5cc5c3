"""bnslab benchmark: run workloads, check their outputs, print their metrics.

    python3 perfbench/run.py --workload picard_64 --seed 1 --seconds 20 --trace 0

Each workload runs in its own worker process (worker.py) against the
package source in ./src of the checkout.  Every metric is printed by name
with its unit; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list.  The exit code is non-zero when any check fails or the
worker cannot run.  Without --workload every workload runs in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER_TIMEOUT_S = 170
PERCENTILES = (50, 75, 90, 95, 99, 99.9)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def tail_percentile(n: int) -> float | None:
    """Highest of PERCENTILES with at least ten samples beyond it."""
    ok = [q for q in PERCENTILES if n * (100 - q) / 100 >= 10]
    return max(ok) if ok else None


def run_worker(workload: str, seed: int, seconds: float, trace: int,
               results: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans-out", str(results / f"spans-{workload}-seed{seed}.jsonl")]
    # subprocess.run kills and reaps the worker if it overruns
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker for {workload} exited with {proc.returncode}")
    raw = json.loads(lines[-1])
    src = (ROOT / "src").resolve()
    if src not in Path(raw["bnslab_file"]).resolve().parents:
        raise RuntimeError(f"worker imported bnslab from {raw['bnslab_file']}, not {src}")
    return raw


def end_to_end(raw: dict) -> dict[str, float]:
    return {"op_p50_s": statistics.median(raw["samples"]),
            "peak_rss_mb": raw["peak_rss_mb"], "setup_s": raw["setup_s"]}


def report(raw: dict, trace: int, spec: dict) -> dict:
    names = spec["per_layer" if trace else "end_to_end"]
    values = raw["layers"] if trace else end_to_end(raw)
    missing = [m["name"] for m in names if values.get(m["name"]) is None]
    if missing or not raw["samples"]:
        raise RuntimeError(f"{raw['workload']}: no value for {missing or 'op_p50_s'}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    wl = raw["workload"]
    n, failed = raw["attempted"], len(raw["failures"])
    q = tail_percentile(len(raw["samples"]))
    for name, m in metrics.items():
        print(f"{wl:<20} {name:<46} {m['value']:>16.6g} {m['unit']}")
    print(f"{wl:<20} {'samples':<46} {len(raw['samples']):>16d} count")
    print(f"{wl:<20} {'tail_percentile':<46} "
          f"{'p%g' % q if q is not None else 'none (<10 samples beyond p50)':>16}")
    print(f"{wl:<20} {'fail_frac':<46} {failed / n:>16.6g} ratio ({failed}/{n})")
    for msg in raw["failures"][:5]:
        print(f"{wl:<20} FAILED: {msg.strip()}")
    print(f"{wl:<20} env {json.dumps(raw['env'], sort_keys=True)}")
    return {"correct": failed == 0, "attempted": n, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=names, default=None,
                    help="one workload (default: all, each in its own process)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "bnslab" / "__init__.py").is_file():
        print(f"bnslab source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    all_correct = True
    for wl in [args.workload] if args.workload else names:
        try:
            raw = run_worker(wl, args.seed, args.seconds, args.trace, results)
            line = report(raw, args.trace, spec)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"{wl}: benchmark could not run: {exc}", file=sys.stderr)
            return 2
        (results / f"{wl}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({"raw": raw, "result": line}, indent=1))
        all_correct &= line["correct"]
        print(json.dumps(line))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
