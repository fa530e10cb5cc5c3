"""Tests of the benchmark itself: span arithmetic, tracer patching, and a
reduced-length run of every workload.

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from spans import Span, Tracer, layer_metrics, self_times  # noqa: E402


def test_self_time_subtracts_children_once():
    spans = [
        Span(0, -1, "op", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 4.0),
        Span(2, 0, "b", 5.0, 9.0),
        Span(3, 2, "c", 6.0, 7.0),
        # overlapping children are counted by the union they cover
        Span(4, 1, "d", 1.5, 3.0),
        Span(5, 1, "d", 2.5, 3.5),
        # a child reaching outside its parent counts only inside it
        Span(6, 3, "e", 6.5, 7.5),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 4.0)
    assert own[1] == pytest.approx(3.0 - 2.0)
    assert own[2] == pytest.approx(4.0 - 1.0)
    assert own[3] == pytest.approx(1.0 - 0.5)
    assert own[4] == pytest.approx(1.5)
    assert own[6] == pytest.approx(1.0)
    # on properly nested spans the self times add up to the root's duration
    assert sum(self_times(spans[:4]).values()) == pytest.approx(10.0)


def test_layer_metrics_per_op_and_nesting():
    spans = [
        Span(0, -1, "op", 0.0, 4.0),
        Span(1, 0, "expansion.invert_K", 0.0, 4.0),
        Span(2, 1, "solver.bilinear_B", 0.0, 1.0),
        Span(3, 1, "solver.bilinear_B", 1.0, 2.0),
        Span(4, 3, "fft.scipy.ifftn", 1.0, 1.5,
             {"points": 8, "bytes": 256, "flops": 120.0}),
        Span(5, -1, "op", 10.0, 11.0),
        Span(6, 5, "solver.bilinear_B", 10.0, 11.0),
    ]
    m = layer_metrics(spans, n_ops=2)
    assert m["solver.bilinear_B.calls"] == 1.5
    assert m["expansion.invert_K.calls"] == 0.5
    assert m["expansion.B_per_inversion"] == 2.0  # only B calls under invert_K
    assert m["expansion.invert_K.self_s"] == pytest.approx(1.0)  # (4 - 2) / 2 ops
    assert m["fft.calls"] == 0.5 and m["fft.numpy_calls"] == 0.0
    assert m["fft.bytes_computed"] == 128.0


def test_tracer_wraps_every_binding_and_restores():
    from bnslab import expansion, field, grid, littlewood_paley, solver, spacetime

    original, matrix = solver.bilinear_B, spacetime.block_norm_matrix
    tracer = Tracer()
    tracer.install()
    try:
        assert expansion.bilinear_B is solver.bilinear_B is not original
        u0 = field.random_band_limited(grid.GridSpec(32), seed=1, j_lo=0, j_hi=2,
                                       amplitude=0.05)
        solver.picard_solve(u0, solver.SolverConfig(dt=0.01, n_steps=2))  # not recorded
        assert tracer.spans == []
        with tracer.root():
            solver.picard_solve(u0, solver.SolverConfig(dt=0.01, n_steps=2),
                                littlewood_paley.critical_index(3.0, 3.0))
    finally:
        tracer.uninstall()
    assert solver.bilinear_B is original and expansion.bilinear_B is original
    assert spacetime.block_norm_matrix is matrix
    m = layer_metrics(tracer.spans, n_ops=1)
    assert m["solver.picard_iters"] >= 1
    assert m["solver.bilinear_B.calls"] == m["solver.picard_iters"]
    assert m["spacetime.block_norm_matrix.calls"] >= 2
    assert m["fft.calls"] > 0 and m["fft.gflop_computed"] > 0


@pytest.mark.parametrize("workload", ["picard_64", "drift_inversion",
                                      "profile_extraction"])
def test_smoke_run_has_no_failures(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())
