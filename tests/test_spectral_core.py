"""The single spectral core: every transform goes through `bnslab.field`,
and every block norm through `littlewood_paley.block_lp_norms`.

Oracles: a recording wrapper around scipy.fft shows that the package
thread setting reaches every transform path; tasks that meet at a
barrier show which threads the level pool runs; a patched CPU affinity
shows what "all cores" means; a scan of the package source shows that no
module other than `field` makes a transform or holds a worker count, that
no module other than `grid` and `littlewood_paley` touches the shell
multipliers, that fields and trajectories share one arithmetic with no
operator applied per snapshot, and that solenoidality and dealiasing are
not switches.
"""
import ast
import math
import os
import signal
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

from bnslab.field import _map, _workers, random_band_limited, set_threads
from bnslab.grid import GridSpec
from bnslab.littlewood_paley import block_lp_norms
from bnslab.profiles import _align_core, _box, extract_profiles
from bnslab.solver import SolverConfig, bilinear_B, heat_trajectory, nonlinear_term, solve
from bnslab.spacetime import block_norm_matrix

SRC = Path(__file__).resolve().parents[1] / "src" / "bnslab"
TRANSFORMS = {"fftn", "ifftn", "rfftn", "irfftn"}
# a transform costs this many flops per input point and log2 of its
# transformed length, as the benchmark's tracer counts them
FLOPS_PER_POINT = {"fftn": 5.0, "ifftn": 5.0, "rfftn": 2.5, "irfftn": 2.5}


def test_set_threads_caps_every_transform(monkeypatch, two_profile_seq):
    calls = []  # (workers, thread) of each transform
    meet, met = None, set()  # under two threads, each thread's first transform
    for name in TRANSFORMS:  # waits until the other thread's first transform
        def recording(*args, _fn=getattr(scipy.fft, name), **kwargs):
            calls.append((kwargs.get("workers"), threading.get_ident()))
            if meet is not None and threading.get_ident() not in met:
                met.add(threading.get_ident())
                meet.wait()
            return _fn(*args, **kwargs)
        monkeypatch.setattr(scipy.fft, name, recording)
    grid = GridSpec(32)
    u = random_band_limited(grid, j_lo=0, j_hi=2, seed=5)
    traj = heat_trajectory(u, np.linspace(0.0, 0.02, 6))
    paths = {
        "SpectralField.physical": u.physical,
        "block_norm_matrix": lambda: block_norm_matrix(traj, 3.0),
        "nonlinear_term": lambda: nonlinear_term(traj, traj),
        "profile core alignment": lambda: _align_core(u, _box(u.coeffs), 0, 3.0),
        "profile extraction": lambda: extract_profiles(two_profile_seq, j_max=3,
                                                       threshold=0.01),
    }
    serial = {}
    try:
        set_threads(1)
        for name, run in paths.items():
            calls.clear()
            serial[name] = run()
            assert calls, f"{name} made no scipy.fft transform"
            assert {w for w, _ in calls} == {1}, (name, calls)
        # the level pool: levels on the caller and one helper, one transform
        # worker each; both make transforms at once, or the barrier breaks
        set_threads(2)
        for name in ("block_norm_matrix", "nonlinear_term"):
            calls.clear()
            meet, met = threading.Barrier(2, timeout=30.0), set()
            assert paths[name]().tobytes() == serial[name].tobytes(), name
            assert {w for w, _ in calls} == {1}, (name, calls)
            threads = {t for _, t in calls}
            assert len(threads) == 2 and threading.get_ident() in threads, name
    finally:
        meet = None
        set_threads(0)


def test_level_pool_gives_the_same_bits():
    """B(u, v) and solves with drifts or forcings: the same bytes on one
    thread and on the level pool."""
    grid = GridSpec(32)
    cfg = SolverConfig(dt=0.01, n_steps=4)
    w0 = random_band_limited(grid, j_lo=0, j_hi=2, seed=31, amplitude=0.05)
    drift = heat_trajectory(random_band_limited(grid, j_lo=0, j_hi=2, seed=32,
                                                amplitude=0.1), cfg.times)
    forcing = heat_trajectory(random_band_limited(grid, j_lo=0, j_hi=2, seed=33,
                                                  amplitude=0.2, solenoidal=False),
                              cfg.times)
    runs = {
        "bilinear_B(u, v)": lambda: [bilinear_B(drift, forcing)],
        "solve with drifts": lambda: solve(w0, cfg, drifts=[drift]),
        "solve with forcings": lambda: solve(w0, cfg, forcings=[forcing]),
    }

    def bits(result):
        return [r.coeffs.tobytes() if hasattr(r, "coeffs") else r for r in result]

    try:
        for name, run in runs.items():
            set_threads(1)
            serial = bits(run())
            set_threads(2)
            assert bits(run()) == serial, name
    finally:
        set_threads(0)


def test_level_pool_nests_inline_raises_and_restarts():
    caller = threading.current_thread()
    meet = threading.Barrier(2, timeout=30.0)  # two tasks at once, or it breaks
    finished = []

    def where(_):
        meet.wait()
        return (threading.current_thread(), _workers(),
                _map(lambda _: threading.current_thread(), range(3)))

    def fail_on(side):
        """A task that raises on `side`'s thread; the other side's task
        finishes 0.2 s later."""
        def task(_):
            meet.wait()
            mine = "caller" if threading.current_thread() is caller else "helper"
            if mine == side:
                raise ValueError(f"level on the {side}")
            time.sleep(0.2)
            finished.append(mine)
        return task

    def helper():
        """The one thread other than the caller that runs two met tasks."""
        threads = {t for t, _, _ in _map(where, range(2))}
        assert caller in threads and len(threads) == 2, threads
        return (threads - {caller}).pop()

    grid = GridSpec(32)
    traj = heat_trajectory(random_band_limited(grid, j_lo=0, j_hi=2, seed=5),
                           np.linspace(0.0, 0.02, 4))
    try:
        set_threads(2)
        for outer, workers, inner in _map(where, range(2)):
            assert workers == 1 and inner == [outer] * 3
        for side, other in (("caller", "helper"), ("helper", "caller")):
            finished.clear()
            with pytest.raises(ValueError, match=side) as raised:
                _map(fail_on(side), range(2))
            assert type(raised.value) is ValueError
            assert finished == [other]  # every helper stopped before the raise
        first = helper()
        set_threads(2)  # drops the pool: the next call builds a new one
        assert not first.is_alive() and helper() is not first
        set_threads(1)
        started = threading.active_count()
        assert _map(lambda _: threading.get_ident(), range(4)) == [threading.get_ident()] * 4
        block_norm_matrix(traj, 3.0)
        nonlinear_term(traj, traj)
        assert threading.active_count() == started
    finally:
        set_threads(0)


def test_level_pool_hands_out_every_item_once():
    """More threads than cores, a short switch interval and tasks that sleep
    so every thread takes items: each item runs exactly once and its result
    lands at its index."""
    runs = []
    interval = sys.getswitchinterval()

    def task(i):
        time.sleep(1e-4)
        runs.append(i)
        return -i
    try:
        set_threads(8)
        sys.setswitchinterval(1e-6)
        for _ in range(20):
            runs.clear()
            assert _map(task, range(200)) == [-i for i in range(200)]
            assert sorted(runs) == list(range(200))
    finally:
        sys.setswitchinterval(interval)
        set_threads(0)


def test_level_pool_survives_fork():
    """A child forked after the pool ran builds its own pool rather than
    queueing tasks for threads it did not inherit."""
    grid = GridSpec(32)
    traj = heat_trajectory(random_band_limited(grid, j_lo=0, j_hi=2, seed=5),
                           np.linspace(0.0, 0.02, 4))
    try:
        set_threads(2)
        expected = block_norm_matrix(traj, 3.0)
        pid = os.fork()
        if pid == 0:
            try:
                os._exit(0 if np.array_equal(block_norm_matrix(traj, 3.0), expected) else 1)
            finally:
                os._exit(2)
        deadline = time.monotonic() + 60.0
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0, done
    finally:
        set_threads(0)


def test_all_cores_are_the_affinity(monkeypatch):
    """set_threads(0) caps every transform at the cores of the process's CPU
    affinity, and on one core the block-norm engine starts no thread."""
    workers = []
    for name in TRANSFORMS:
        def recording(*args, _fn=getattr(scipy.fft, name), **kwargs):
            workers.append(kwargs.get("workers"))
            return _fn(*args, **kwargs)
        monkeypatch.setattr(scipy.fft, name, recording)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    grid = GridSpec(32)
    u = random_band_limited(grid, j_lo=0, j_hi=2, seed=5)
    traj = heat_trajectory(u, np.linspace(0.0, 0.02, 4))
    try:
        set_threads(0)
        started = threading.active_count()
        u.physical()
        block_lp_norms(traj, 3.0)
        assert threading.active_count() == started
    finally:
        monkeypatch.undo()
        set_threads(0)
    assert workers and set(workers) == {1}, workers


def test_all_cores_without_an_affinity_call(monkeypatch):
    """Where the platform has no affinity call, all cores are os.cpu_count()."""
    grid = GridSpec(32)
    traj = heat_trajectory(random_band_limited(grid, j_lo=0, j_hi=2, seed=5),
                           np.linspace(0.0, 0.02, 2))
    try:
        set_threads(1)
        serial = block_lp_norms(traj, 3.0)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        set_threads(0)
        assert block_lp_norms(traj, 3.0).tobytes() == serial.tobytes()
    finally:
        monkeypatch.undo()
        set_threads(0)


def test_block_norm_matrix_transforms_pruned_work(monkeypatch):
    """One 64^3 block-norm matrix over 17 levels feeds its transforms far
    fewer input points than one full complex transform per (level, shell)
    pair.  An irfftn call counts its input as padded to `s`, N/2 + 1 planes
    on its real axis.  Half spectra alone come to 0.52 of those points, one
    call each; pruning every block that leaves a line empty, in three passes
    counted one by one, brings the engine to 0.61."""
    points = []
    for name in TRANSFORMS:
        def recording(x, *args, _fn=getattr(scipy.fft, name), _name=name, **kwargs):
            shape = list(np.shape(x))
            if kwargs.get("s") is not None and _name == "irfftn":
                for a, length in zip(kwargs["axes"], kwargs["s"]):
                    shape[a] = length
                shape[kwargs["axes"][-1]] = kwargs["s"][-1] // 2 + 1
            points.append(math.prod(shape))
            return _fn(x, *args, **kwargs)
        monkeypatch.setattr(scipy.fft, name, recording)
    grid = GridSpec(64)
    u = random_band_limited(grid, j_lo=0, j_hi=3, seed=6)
    traj = heat_trajectory(u, np.linspace(0.0, 0.05, 17))
    points.clear()
    block_norm_matrix(traj, 3.0)
    full = 17 * grid.n_shells * 3 * grid.n_points**3
    assert sum(points) <= 0.62 * full, sum(points) / full


def test_bilinear_B_transforms_the_dealiased_box(monkeypatch):
    """One 64^3, 17-level B(u, u) costs its transforms at most 0.4 of the
    full layout's one complex inverse and six complex forward transforms:
    the inverse is real, and the forward passes keep only the box of modes
    the 2/3 rule keeps."""
    flops = []
    for name, per_point in FLOPS_PER_POINT.items():
        def recording(x, *args, _fn=getattr(scipy.fft, name), _c=per_point, **kwargs):
            x = np.asarray(x)
            length = math.prod(x.shape[a] for a in kwargs.get("axes", range(x.ndim)))
            flops.append(_c * x.size * math.log2(length))
            return _fn(x, *args, **kwargs)
        monkeypatch.setattr(scipy.fft, name, recording)
    grid = GridSpec(64)
    u = random_band_limited(grid, j_lo=0, j_hi=3, seed=6)
    traj = heat_trajectory(u, np.linspace(0.0, 0.05, 17))
    flops.clear()
    bilinear_B(traj, traj)
    full = 5.0 * 17 * (3 + 6) * grid.n_points**3 * math.log2(grid.n_points**3)
    assert sum(flops) <= 0.4 * full, sum(flops) / full


def _core_violations(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    in_core = path.name == "field.py"
    found = []
    for node in ast.walk(tree):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Call) and not in_core:
            fn = node.func
            name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
            if name in TRANSFORMS:
                found.append(f"{where} calls {name}")
            if any(kw.arg == "workers" for kw in node.keywords):
                found.append(f"{where} passes workers=")
        if not in_core and "_WORKERS" in (getattr(node, "id", None),
                                          getattr(node, "attr", None)):
            found.append(f"{where} reads _WORKERS")
        # numpy.fft serves only for fftfreq, anywhere in the package
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                and node.value.attr == "fft"
                and getattr(node.value.value, "id", None) in ("np", "numpy")
                and node.attr != "fftfreq"):
            found.append(f"{where} uses numpy.fft.{node.attr}")
        if isinstance(node, ast.ImportFrom) and node.module in ("numpy", "numpy.fft"):
            names = {a.name for a in node.names}
            if (node.module == "numpy" and "fft" in names) or (
                    node.module == "numpy.fft" and names != {"fftfreq"}):
                found.append(f"{where} imports from numpy.fft")
    return found


def test_transforms_live_only_in_field():
    paths = sorted(SRC.glob("*.py"))
    assert any(p.name == "field.py" for p in paths)
    found = [v for p in paths for v in _core_violations(p)]
    assert found == []


def test_one_field_type():
    """Arithmetic is defined in one class, and only `snapshots` splits a
    trajectory into snapshots: every operator acts on the whole array."""
    adds, snapshots = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.FunctionDef) and node.name == "__add__":
                adds.append(where)
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "snapshot" and path.name != "snapshots.py"):
                snapshots.append(where)
    assert len(adds) == 1, adds
    assert snapshots == []


def test_shell_multipliers_live_only_in_grid_and_littlewood_paley():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("grid.py", "littlewood_paley.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.ImportFrom):
                names |= {a.name for a in node.names}
            if "shell_multipliers" in names:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_divergence_flag_or_dealias_switch():
    """Solenoidality is measured (`divergence_defect`), never carried as a
    label, and products are always dealiased: no name `divergence_free`
    and no parameter or keyword `dealias`/`apply_dealias` in the package."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, (ast.arg, ast.keyword)):
                names.add(node.arg)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            if "divergence_free" in names or (
                    isinstance(node, (ast.arg, ast.keyword))
                    and node.arg in ("dealias", "apply_dealias")):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
