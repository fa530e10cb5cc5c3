"""Record the benchmark and the tier-1 test durations of this checkout in
BENCH_<label>.json at the repository root.

Usage: python3 scripts/bench_record.py --label NAME

For each workload in BENCHMARK.json it runs perfbench/run.py, unchanged,
at seed 0 for BENCHMARK.json's run_seconds, at --trace 0 and at --trace 1,
one run at a time, and keeps each run's printed metric lines, its final
JSON result line and its environment record.  It then runs the tier-1
suite with --durations=0 and keeps the summary line and every duration
line.  It exits 2 before running anything when `git rev-parse HEAD` cannot
name the checked-out commit (e.g. in a `git archive` copy).  Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN_TIMEOUT_S = 600
TESTS_TIMEOUT_S = 3600
SEED = 0


def _git_head() -> str:
    """The checked-out commit; RuntimeError when git cannot name it (e.g. in a
    checkout without .git), since a record must say what it measured."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    except OSError as exc:
        raise RuntimeError(f"cannot run git: {exc}") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"git rev-parse HEAD failed in {ROOT}: {proc.stderr.strip()}")
    return proc.stdout.strip()


def run_workload(workload: str, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, text=True, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    record = {"trace": trace, "exit_code": proc.returncode,
              "wall_s": round(time.perf_counter() - started, 2),
              "lines": lines[:-1], "result": None, "env": None}
    if lines and lines[-1].startswith("{"):
        record["result"] = json.loads(lines[-1])
    for line in lines:
        head, sep, tail = line.partition(" env ")
        if sep and head.strip() == workload:
            record["env"] = json.loads(tail)
    if proc.returncode != 0:
        record["stderr"] = proc.stderr.strip().splitlines()[-20:]
    return record


def run_tier1() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "--durations=0", "-p", "no:cacheprovider"]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, text=True, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, timeout=TESTS_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    durations = [ln.strip() for ln in lines
                 if ln[:1].isdigit() and "s " in ln and "::" in ln]
    summary = next((ln.strip("= ") for ln in reversed(lines)
                    if " in " in ln and ("passed" in ln or "failed" in ln)), None)
    return {"command": " ".join(cmd[1:]), "exit_code": proc.returncode,
            "wall_s": round(time.perf_counter() - started, 2),
            "summary": summary, "durations": durations}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--label", required=True, help="file is BENCH_<label>.json")
    args = ap.parse_args(argv)

    try:
        commit = _git_head()
    except RuntimeError as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    record = {"label": args.label, "commit": commit, "seed": SEED,
              "seconds": seconds, "workloads": {}}
    for wl in (w["name"] for w in spec["workloads"]):
        record["workloads"][wl] = [run_workload(wl, seconds, trace)
                                   for trace in (0, 1)]
        print(f"{wl}: exit codes "
              f"{[r['exit_code'] for r in record['workloads'][wl]]}", flush=True)
    record["tier1"] = run_tier1()
    print(f"tier-1: {record['tier1']['summary']}", flush=True)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    failed = any(r["exit_code"] for runs in record["workloads"].values() for r in runs)
    return 1 if failed or record["tier1"]["exit_code"] else 0


if __name__ == "__main__":
    sys.exit(main())
