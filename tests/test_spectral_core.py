"""The single spectral core: every transform goes through `bnslab.field`,
and every block norm through `littlewood_paley.block_lp_norms`.

Oracles: a recording wrapper around scipy.fft shows that the package
thread setting reaches every transform path; a scan of the package
source shows that no module other than `field` makes a transform or
holds a worker count, that no module other than `grid` and
`littlewood_paley` touches the shell multipliers, that fields and
trajectories share one arithmetic with no operator applied per snapshot,
and that solenoidality and dealiasing are not switches.
"""
import ast
import math
import os
import signal
import threading
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

from bnslab.field import _map, random_band_limited, set_threads
from bnslab.grid import GridSpec
from bnslab.profiles import _align_core
from bnslab.solver import SolverConfig, bilinear_B, heat_trajectory, nonlinear_term, solve
from bnslab.spacetime import block_norm_matrix

SRC = Path(__file__).resolve().parents[1] / "src" / "bnslab"
TRANSFORMS = {"fftn", "ifftn", "rfftn", "irfftn"}
# a transform costs this many flops per input point and log2 of its
# transformed length, as the benchmark's tracer counts them
FLOPS_PER_POINT = {"fftn": 5.0, "ifftn": 5.0, "rfftn": 2.5, "irfftn": 2.5}


def test_set_threads_caps_every_transform(monkeypatch):
    calls = []  # (workers, thread) of each transform
    for name in TRANSFORMS:
        def recording(*args, _fn=getattr(scipy.fft, name), **kwargs):
            calls.append((kwargs.get("workers"), threading.get_ident()))
            return _fn(*args, **kwargs)
        monkeypatch.setattr(scipy.fft, name, recording)
    grid = GridSpec(32)
    u = random_band_limited(grid, j_lo=0, j_hi=2, seed=5)
    traj = heat_trajectory(u, np.linspace(0.0, 0.02, 6))
    paths = {
        "SpectralField.physical": u.physical,
        "block_norm_matrix": lambda: block_norm_matrix(traj, 3.0),
        "nonlinear_term": lambda: nonlinear_term(traj, traj),
        "profile core alignment": lambda: _align_core(u, u, 0, 3.0),
    }
    serial = {}
    try:
        set_threads(1)
        for name, run in paths.items():
            calls.clear()
            serial[name] = run()
            assert calls, f"{name} made no scipy.fft transform"
            assert {w for w, _ in calls} == {1}, (name, calls)
        # the level pool: levels on pool threads, one transform worker each
        set_threads(2)
        for name in ("block_norm_matrix", "nonlinear_term"):
            calls.clear()
            assert paths[name]().tobytes() == serial[name].tobytes(), name
            assert {w for w, _ in calls} == {1}, (name, calls)
            threads = {t for _, t in calls}
            assert len(threads) >= 2 and threading.get_ident() not in threads, name
    finally:
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
    def where(_):
        return threading.get_ident(), _map(lambda _: threading.get_ident(), range(3))

    def fail(i):
        raise ValueError(f"level {i}")

    def pool_names():
        return set(_map(lambda _: threading.current_thread().name, range(4)))

    grid = GridSpec(32)
    traj = heat_trajectory(random_band_limited(grid, j_lo=0, j_hi=2, seed=5),
                           np.linspace(0.0, 0.02, 4))
    try:
        set_threads(2)
        for outer, inner in _map(where, range(4)):
            assert outer != threading.get_ident() and inner == [outer] * 3
        with pytest.raises(ValueError, match="level") as raised:
            _map(fail, range(3))
        assert type(raised.value) is ValueError
        first = pool_names()
        set_threads(2)  # drops the pool: the next call builds a new one
        assert pool_names().isdisjoint(first)
        set_threads(1)
        started = threading.active_count()
        assert _map(lambda _: threading.get_ident(), range(4)) == [threading.get_ident()] * 4
        block_norm_matrix(traj, 3.0)
        nonlinear_term(traj, traj)
        assert threading.active_count() == started
    finally:
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


def test_block_norm_matrix_transforms_pruned_work(monkeypatch):
    """One 64^3 block-norm matrix over 17 levels feeds its transforms far
    fewer input points than one full complex transform per (level, shell)
    pair.  Half spectra alone come to 0.52 of those points; pruning the
    three low shells brings the engine to 0.41."""
    points = []
    for name in TRANSFORMS:
        def recording(x, *args, _fn=getattr(scipy.fft, name), **kwargs):
            points.append(np.asarray(x).size)
            return _fn(x, *args, **kwargs)
        monkeypatch.setattr(scipy.fft, name, recording)
    grid = GridSpec(64)
    u = random_band_limited(grid, j_lo=0, j_hi=3, seed=6)
    traj = heat_trajectory(u, np.linspace(0.0, 0.05, 17))
    points.clear()
    block_norm_matrix(traj, 3.0)
    full = 17 * grid.n_shells * 3 * grid.n_points**3
    assert sum(points) <= 0.45 * full, sum(points) / full


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
