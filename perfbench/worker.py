"""Run one workload in this process and print its raw result as one JSON line.

Started by run.py, one process per workload, with the package's source
directory on PYTHONPATH.  Times are wall-clock seconds from
time.perf_counter; peak memory is this process's own ru_maxrss.
"""

import time

_START = time.perf_counter()  # import time is measured from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

SETUP_REPS = 5


def _environment(wl) -> dict:
    import ctypes
    import platform

    import numpy
    import scipy

    from bnslab import field, solver, spacetime

    modules = {"field": field, "solver": solver, "spacetime": spacetime}

    def held():
        return {name: getattr(mod, "_WORKERS", None) for name, mod in modules.items()}

    default = held()
    field.set_threads(1)
    capped = held()
    field.set_threads(0)  # back to the package default
    # glibc answers _SC_LEVEL2_CACHE_SIZE (191) from cpuid; 0 or -1 if unknown
    l2 = int(ctypes.CDLL(None).sysconf(191))
    arrays = {name: {"bytes": size, "per_l2": size / l2 if l2 > 0 else None}
              for name, size in wl.array_bytes().items()}
    uname = os.uname()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "system": f"{uname.sysname} {uname.release} {uname.machine}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fft_workers": default,
        "fft_workers_after_set_threads_1": capped,
        "l2_bytes": l2,
        "arrays": arrays,
    }


def _batched_ifftn_s(workers: int, repeats: int = 3) -> float:
    """Median time of one 17x3x64^3 inverse transform, the size of a
    picard_64 trajectory, called as the package calls it."""
    import numpy as np
    import scipy.fft

    x = np.zeros((17, 3, 64, 64, 64), dtype=np.complex128)
    x.real = np.random.default_rng(0).standard_normal(x.shape)
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        scipy.fft.ifftn(x, axes=(-3, -2, -1), norm="forward", workers=workers)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def _faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _run_one(wl, item, tracer) -> tuple[tuple[float, float, int] | None, list[str]]:
    """Time one operation and check it outside the timed region.

    The result is dropped on return, so that every operation starts from
    the same memory state: a result kept alive into the next operation
    changes that operation's page faults.
    """
    try:
        r0, c0, t = _faults(), time.process_time(), time.perf_counter()
        if tracer is None:
            result = wl.op(item)
        else:
            with tracer.root():
                result = wl.op(item)
        cost = (time.perf_counter() - t, time.process_time() - c0, _faults() - r0)
        return cost, wl.check(item, result)
    except Exception:  # an unexpected raise is a failed operation
        return None, [traceback.format_exc(limit=3)]


def measure(wl, seconds: float, tracer=None) -> dict:
    """Run rounds of operations until `seconds` have passed (at least one
    round)."""
    samples, cpu, faults, failures, attempted = [], [], [], [], 0
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        for item in wl.round(k):
            attempted += 1
            cost, problems = _run_one(wl, item, tracer)
            if cost is not None:
                samples.append(cost[0])
                cpu.append(cost[1])
                faults.append(cost[2])
            if problems:
                failures.append("; ".join(problems))
        k += 1
    return {"samples": samples, "cpu_s": cpu, "minor_faults": faults,
            "attempted": attempted, "failures": failures}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    import bnslab  # noqa: F401
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _START
    cls = WORKLOADS[args.workload]
    setup_reps = []
    for _ in range(SETUP_REPS):
        wl = None  # release the previous inputs before building new ones
        t = time.perf_counter()
        wl = cls(args.seed)
        setup_reps.append(time.perf_counter() - t)
    out = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "bnslab_file": bnslab.__file__, "import_s": import_s,
           "setup_reps_s": setup_reps,
           "setup_s": import_s + statistics.median(setup_reps),
           "env": _environment(wl)}
    wl.warm_up()

    if args.trace:
        from spans import Tracer, layer_metrics

        plain = measure(wl, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(wl, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        layers = {}  # run.py refuses a traced run whose operations all raised
        if plain["samples"] and traced["samples"]:
            p50 = statistics.median(traced["samples"])
            layers = layer_metrics(tracer.spans, len(traced["samples"]))
            layers["trace.op_p50_s"] = p50
            layers["trace.overhead_s"] = p50 - statistics.median(plain["samples"])
            layers["fft.batched_ifftn_1w_s"] = _batched_ifftn_s(1)
            layers["fft.batched_ifftn_allw_s"] = _batched_ifftn_s(-1)
        out.update(plain, traced_samples=traced["samples"], layers=layers,
                   attempted=plain["attempted"] + traced["attempted"],
                   failures=plain["failures"] + traced["failures"],
                   n_spans=len(tracer.spans))
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                for s in tracer.spans:
                    fh.write(json.dumps([s.sid, s.parent, s.name, s.start, s.end,
                                         s.info]) + "\n")
    else:
        out.update(measure(wl, args.seconds))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
