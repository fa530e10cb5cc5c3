"""Scenario runner: exit codes, artifacts, determinism.

Every command is exercised end to end in a temporary directory; the
exit-code contract (0 success, 2 config error, 3 numerical failure) is
checked on purpose-built configs.
"""
import json
from pathlib import Path

import numpy as np
import pytest

from bnslab.cli import main
from bnslab.field import SpectralField, random_band_limited
from bnslab.grid import GridSpec
from bnslab.snapshots import write_field


def run(tmp_path, name, body, *args):
    cfg = tmp_path / f"{name}.ini"
    cfg.write_text(body)
    out = tmp_path / f"out-{name}"
    return main([name.split("__")[0], "--config", str(cfg),
                 "--out", str(out), *args]), out


GEN = """[grid]
n_points = 32
[field]
kind = random_bandlimited
j_lo = 0
j_hi = 2
amplitude = 0.3
"""

SOLVE = GEN + """[solver]
dt = 0.01
n_steps = 8
"""


def test_generate_field_deterministic(tmp_path):
    code1, out1 = run(tmp_path, "generate-field", GEN, "--seed", "9")
    code2, out2 = run(tmp_path, "generate-field__b", GEN, "--seed", "9")
    assert code1 == 0 and code2 == 0
    b1 = (out1 / "field.bnsf").read_bytes()
    b2 = (out2 / "field.bnsf").read_bytes()
    assert b1 == b2


def test_generate_field_seed_changes_output(tmp_path):
    _, out1 = run(tmp_path, "generate-field", GEN, "--seed", "9")
    _, out2 = run(tmp_path, "generate-field__b", GEN, "--seed", "10")
    assert (out1 / "field.bnsf").read_bytes() != (out2 / "field.bnsf").read_bytes()


def test_norms_report(tmp_path):
    code, out = run(tmp_path, "norms", GEN, "--seed", "4")
    assert code == 0
    rows = (out / "report.csv").read_text().splitlines()
    assert len(rows) > 3
    kinds = {r.split(",")[0] for r in rows[1:]}
    assert {"besov", "chemin_lerner", "kato"} <= kinds


def test_manifest_written(tmp_path):
    code, out = run(tmp_path, "norms", GEN, "--seed", "4")
    assert code == 0
    m = json.loads((out / "manifest.json").read_text())
    assert m["command"] == "norms"
    assert m["seed"] == 4


def test_solve_success(tmp_path):
    code, out = run(tmp_path, "solve", SOLVE, "--seed", "4")
    assert code == 0
    rows = (out / "report.csv").read_text().splitlines()
    assert rows[0] == "t,besov_norm,running_script_norm,classification"
    assert rows[1].endswith("decaying")


def test_exit_2_on_bad_config(tmp_path):
    code, _ = run(tmp_path, "norms", "[grid]\nn_points = 17\n")
    assert code == 2


def test_exit_2_on_missing_config():
    assert main(["solve", "--config", "/nonexistent/x.ini"]) == 2


def test_exit_2_on_unknown_field_kind(tmp_path):
    bad = GEN.replace("random_bandlimited", "mystery")
    code, _ = run(tmp_path, "norms", bad)
    assert code == 2


@pytest.mark.parametrize("setting", ["n_steps = 0", "n_steps = -1",
                                     "max_picard_iters = 0"])
def test_exit_2_on_bad_step_count(tmp_path, setting):
    body = SOLVE.replace("n_steps = 8", setting)
    code, _ = run(tmp_path, "solve", body, "--seed", "4")
    assert code == 2


def test_exit_2_on_non_finite_snapshot(tmp_path):
    u = random_band_limited(GridSpec(32), j_lo=0, j_hi=2, seed=9)
    coeffs = u.coeffs.copy()
    coeffs[0, 1, 0, 0] = np.nan
    path = tmp_path / "nan.bnsf"
    write_field(path, SpectralField(u.grid, coeffs))
    body = f"[grid]\nn_points = 32\n[field]\npath = {path}\n"
    code, _ = run(tmp_path, "generate-field", body)
    assert code == 2


def test_exit_2_on_bad_thread_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BNSLAB_THREADS", "two")
    code, _ = run(tmp_path, "generate-field", GEN, "--seed", "9")
    assert code == 2
    assert "config error:" in capsys.readouterr().err


def test_exit_3_on_divergence(tmp_path):
    body = SOLVE.replace("amplitude = 0.3", "amplitude = 80.0").replace(
        "n_steps = 8", "n_steps = 8\nmax_picard_iters = 6")
    code, out = run(tmp_path, "solve", body, "--seed", "3")
    assert code == 3
    assert (out / "error.csv").exists()


def test_expand_command(tmp_path):
    body = SOLVE.replace("amplitude = 0.3", "amplitude = 0.05") + (
        "[expand]\nmode = duhamel\norder = 2\n")
    code, out = run(tmp_path, "expand", body, "--seed", "4")
    assert code == 0
    report = (out / "report.csv").read_text()
    assert "residual" in report


def test_iterate_command(tmp_path):
    body = SOLVE.replace("amplitude = 0.3", "amplitude = 0.05") + (
        "[iterate]\nj_steps = 3\n")
    code, out = run(tmp_path, "iterate", body, "--seed", "4")
    assert code == 0
    rows = (out / "report.csv").read_text().splitlines()
    assert len(rows) == 4  # header + 3 steps


def test_unknown_command():
    with pytest.raises(SystemExit):
        main(["frobnicate", "--config", "/dev/null"])
