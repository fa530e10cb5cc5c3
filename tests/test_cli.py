"""Scenario runner: exit codes, artifacts, determinism.

Every command is exercised end to end in a temporary directory; the
exit-code contract (0 success, 2 config error, 3 numerical failure) is
checked on purpose-built configs.
"""
import json
import math
from pathlib import Path

import numpy as np
import pytest

from bnslab import cli
from bnslab.cli import main
from bnslab.field import SpectralField, random_band_limited, set_threads
from bnslab.grid import GridSpec
from bnslab.littlewood_paley import besov_norm, critical_index
from bnslab.profiles import ProfileSet, ScaleCore, evolve_decomposition, pythagorean_gap
from bnslab.snapshots import write_field
from bnslab.solver import SolverConfig, heat_trajectory
from bnslab.spacetime import (chemin_lerner_norm, kato_norm, lebesgue_besov_norm,
                              script_norm)


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

KIND = "[grid]\nn_points = 32\n[field]\nkind = "


@pytest.mark.parametrize("body", [GEN, KIND + "taylor_green_like\n",
                                  KIND + "shell_bump\nj = 1\n"],
                         ids=["random_bandlimited", "taylor_green_like", "shell_bump"])
def test_generate_field_deterministic(tmp_path, body):
    code1, out1 = run(tmp_path, "generate-field", body, "--seed", "9")
    code2, out2 = run(tmp_path, "generate-field__b", body, "--seed", "9")
    assert code1 == 0 and code2 == 0
    b1 = (out1 / "field.bnsf").read_bytes()
    b2 = (out2 / "field.bnsf").read_bytes()
    assert b1 == b2
    assert json.loads((out1 / "manifest.json").read_text())["divergence_defect"] < 1e-10


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


def test_norms_rows_are_the_direct_calls(tmp_path):
    """Each report cell is str() of the norm function's own value."""
    code, out = run(tmp_path, "norms", GEN, "--seed", "4")
    assert code == 0
    u = random_band_limited(GridSpec(32), seed=4, j_lo=0, j_hi=2, amplitude=0.3,
                            solenoidal=True)
    traj = heat_trajectory(u, np.linspace(0.0, 0.5, 33))
    idx, kato = critical_index(3.0, 3.0), critical_index(6.0, 6.0)
    assert (out / "report.csv").read_text().splitlines() == [
        "norm_kind,a,b,s,p,q,t1,t2,value",
        f"besov,,,{idx.s},3.0,3.0,0,0,{besov_norm(u, idx)}",
        f"chemin_lerner,1.0,,{idx.s},3.0,3.0,0.0,0.5,"
        f"{chemin_lerner_norm(traj, idx, 1.0)}",
        f"chemin_lerner,inf,,{idx.s},3.0,3.0,0.0,0.5,"
        f"{chemin_lerner_norm(traj, idx, math.inf)}",
        f"script,1.0,inf,{idx.s},3.0,inf,0.0,0.5,"
        f"{script_norm(traj, 1.0, math.inf, 3.0, math.inf)}",
        f"kato,,,{kato.s},6.0,6.0,0.0,0.5,{kato_norm(traj, 6.0)}",
        f"kato1,,,{kato.s},6.0,6.0,0.0,0.5,{kato_norm(traj, 6.0, order=1)}",
        f"lebesgue,2.0,,{idx.s},3.0,3.0,0.0,0.5,{lebesgue_besov_norm(traj, idx, 2.0)}",
    ]


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


def test_solve_same_bytes_for_any_thread_count(tmp_path):
    body = SOLVE + "[output]\nwrite_trajectory = true\n"
    try:
        outs = [run(tmp_path, f"solve__t{n}", body, "--seed", "4", "--threads", str(n))
                for n in (1, 2)]
    finally:
        set_threads(0)
    assert [code for code, _ in outs] == [0, 0]
    files = [sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
             for _, out in outs]
    assert files[0] == files[1]
    assert {"report.csv", "manifest.json", "trajectory/times.csv"} <= {
        str(f) for f in files[0]}
    for f in files[0]:
        assert (outs[0][1] / f).read_bytes() == (outs[1][1] / f).read_bytes(), f


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


@pytest.mark.parametrize("command, body, key", [
    ("solve", SOLVE + "picard_tol = nan\n", "picard_tol"),
    ("solve", SOLVE.replace("dt = 0.01", "dt = inf"), "dt"),
    ("generate-field", GEN.replace("amplitude = 0.3", "amplitude = nan"), "amplitude"),
    ("generate-field", GEN.replace("n_points = 32", "n_points = 32\nperiod = nan"),
     "period"),
    ("norms", GEN + "[norms]\nn_steps = -1\n", "n_steps"),
    ("norms", GEN + "[norms]\nt_final = inf\n", "t_final"),
    ("norms", GEN + "[norms]\nt_final = 0\n", "t_final"),
    ("norms", GEN + "[norms]\np = nan\n", "p=nan"),
    ("norms", GEN + "[norms]\nq = 0.5\n", "[norms] q"),
    ("solve", SOLVE + "monitor_p = inf\n", "[solver] monitor_p"),
    ("expand", SOLVE + "[expand]\nmode = duhamel\np = nan\n", "[expand] p"),
    ("profiles", GEN + "[profiles]\np = nan\n", "[profiles] p"),
    # every value the file sets is parsed, also in a section the command does not read
    ("norms", GEN + "[solver]\ndt = fast\n", "[solver] dt"),
], ids=["picard_tol", "dt", "amplitude", "period", "n_steps", "t_final_inf",
        "t_final_0", "p", "norms_q", "monitor_p", "expand_p", "profiles_p",
        "unread_section"])
def test_exit_2_on_bad_number(tmp_path, capsys, command, body, key):
    code, _ = run(tmp_path, command, body, "--seed", "4")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err


def test_exit_2_on_non_finite_snapshot(tmp_path):
    u = random_band_limited(GridSpec(32), j_lo=0, j_hi=2, seed=9)
    coeffs = u.coeffs.copy()
    coeffs[0, 1, 0, 0] = np.nan
    path = tmp_path / "nan.bnsf"
    write_field(path, SpectralField(u.grid, coeffs))
    body = f"[grid]\nn_points = 32\n[field]\npath = {path}\n"
    code, _ = run(tmp_path, "generate-field", body)
    assert code == 2


def test_exit_2_on_unpaired_mode_snapshot(tmp_path):
    u = random_band_limited(GridSpec(32), j_lo=0, j_hi=2, seed=9)
    coeffs = u.coeffs.copy()
    coeffs[0, 1, 0, 0] += 0.1 * u.sup_coeff()
    path = tmp_path / "complex.bnsf"
    write_field(path, SpectralField(u.grid, coeffs))
    body = f"[grid]\nn_points = 32\n[field]\npath = {path}\n"
    code, _ = run(tmp_path, "generate-field", body)
    assert code == 2


@pytest.mark.parametrize("snapshot", [GridSpec(64), GridSpec(32, period=1.0)],
                         ids=["64", "32-period1"])
def test_exit_2_on_snapshot_grid_mismatch(tmp_path, capsys, snapshot):
    """A snapshot is never silently read on another grid than [grid]'s."""
    path = tmp_path / "u.bnsf"
    write_field(path, random_band_limited(snapshot, j_lo=0, j_hi=2, seed=9,
                                          solenoidal=True))
    body = f"[grid]\nn_points = 32\n[field]\npath = {path}\n"
    code, _ = run(tmp_path, "generate-field", body)
    assert code == 2
    err = capsys.readouterr().err
    assert str(snapshot) in err and str(GridSpec(32)) in err


def test_exit_2_on_missing_snapshot(tmp_path, capsys):
    path = tmp_path / "absent.bnsf"
    body = f"[grid]\nn_points = 32\n[field]\npath = {path}\n"
    code, _ = run(tmp_path, "generate-field", body)
    assert code == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("solenoidal, expected", [(True, 0), (False, 2)])
def test_snapshot_must_be_divergence_free(tmp_path, capsys, solenoidal, expected):
    u = random_band_limited(GridSpec(32), j_lo=0, j_hi=2, seed=9,
                            solenoidal=solenoidal)
    path = tmp_path / "u.bnsf"
    write_field(path, u)
    body = f"[grid]\nn_points = 32\n[field]\npath = {path}\n"
    code, _ = run(tmp_path, "generate-field", body)
    assert code == expected
    assert ("not divergence-free" in capsys.readouterr().err) == (not solenoidal)


@pytest.mark.parametrize("value", ["true", "false"])
def test_exit_2_on_dealias_key(tmp_path, capsys, value):
    code, _ = run(tmp_path, "solve", SOLVE + f"dealias = {value}\n", "--seed", "4")
    assert code == 2
    assert "always dealiased" in capsys.readouterr().err


def test_exit_2_on_unknown_key(tmp_path, capsys):
    body = GEN.replace("amplitude = 0.3", "amplitud = 5.0")
    code, out = run(tmp_path, "generate-field", body, "--seed", "9")
    assert code == 2
    assert "did you mean 'amplitude'" in capsys.readouterr().err
    assert not (out / "field.bnsf").exists()


def test_exit_2_on_unknown_section(tmp_path, capsys):
    code, _ = run(tmp_path, "solve", SOLVE.replace("[solver]", "[solve]"), "--seed", "4")
    assert code == 2
    assert "did you mean 'solver'" in capsys.readouterr().err


def test_exit_2_on_bad_thread_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BNSLAB_THREADS", "two")
    code, _ = run(tmp_path, "generate-field", GEN, "--seed", "9")
    assert code == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("command, section", [
    ("solve", ""), ("iterate", ""), ("expand", "[expand]\nmode = duhamel\n"),
], ids=["solve", "iterate", "expand"])
def test_exit_3_on_divergence(tmp_path, command, section):
    body = SOLVE.replace("amplitude = 0.3", "amplitude = 80.0").replace(
        "n_steps = 8", "n_steps = 8\nmax_picard_iters = 6") + section
    code, out = run(tmp_path, command, body, "--seed", "3")
    assert code == 3
    assert (out / "error.csv").exists() and (out / "manifest.json").exists()


def test_exit_3_on_overflow(tmp_path, capsys):
    # at p = 94.5 the Pythagorean gap raises each Besov norm (about 7.7e3 for
    # amplitude 1e5) to the p-th power, past the float range: OverflowError is
    # a numerical failure, not a traceback
    body = PROFILES.replace("j_hi = 0\n[profile2]", "j_hi = 0\namplitude = 1e5\n[profile2]")
    body = body.replace("amplitude = 0.7", "amplitude = 7e4").replace(
        "extract = true", "p = 94.5")
    code, out = run(tmp_path, "profiles", body, "--seed", "21")
    assert code == 3
    assert (out / "error.csv").exists()
    assert "numerical failure:" in capsys.readouterr().err


@pytest.mark.parametrize("setting", ["mode = duhamel\nn_terms = 2", "mode = staged\nk = 1"],
                         ids=["duhamel", "staged"])
def test_expand_command(tmp_path, no_monitor, setting):
    body = SOLVE.replace("amplitude = 0.3", "amplitude = 0.05") + f"[expand]\n{setting}\n"
    code, out = run(tmp_path, "expand", body, "--seed", "4")
    assert code == 0
    report = (out / "report.csv").read_text()
    assert "residual" in report


@pytest.mark.parametrize("setting", ["n_terms = 5\np = 20", "n_terms = 3\np = 6"],
                         ids=["n_terms", "p"])
def test_exit_2_on_bad_duhamel_order_before_solving(tmp_path, monkeypatch, setting):
    # an unsupported order or p <= 3(n_terms - 1) is a config error, found
    # before the Picard solve, whatever that solve would do
    def fail(*args, **kwargs):
        raise AssertionError("solve called")
    monkeypatch.setattr(cli, "solve", fail)
    body = SOLVE + f"[expand]\nmode = duhamel\n{setting}\n"
    code, out = run(tmp_path, "expand", body, "--seed", "4")
    assert code == 2
    assert not (out / "error.csv").exists()


def test_iterate_command(tmp_path, no_monitor):
    body = SOLVE.replace("amplitude = 0.3", "amplitude = 0.05") + (
        "[iterate]\nj_steps = 3\n")
    code, out = run(tmp_path, "iterate", body, "--seed", "4")
    assert code == 0
    rows = (out / "report.csv").read_text().splitlines()
    assert len(rows) == 4  # header + 3 steps


def test_unknown_command():
    with pytest.raises(SystemExit):
        main(["frobnicate", "--config", "/dev/null"])


PROFILES = """[grid]
n_points = 32
[profile1]
j_lo = 0
j_hi = 0
[profile2]
j_lo = 0
j_hi = 0
amplitude = 0.7
[profiles]
m_sweep = -1 -1 -2 -2
sep_sweep = 3 5 7 9
extract = true
threshold = 0.01
"""


def test_profiles_command(tmp_path):
    # the golden extraction case: profile 2 runs along the schedule
    # (m, (s, s, s)) against a fixed profile 1, and extraction recovers both
    code, out = run(tmp_path, "profiles", PROFILES, "--seed", "21")
    assert code == 0
    rows = (out / "report.csv").read_text().splitlines()
    assert rows[0] == "n,J,epsilon,cross_term_max,r_norm"
    assert [r.split(",")[:2] for r in rows[1:]] == [[str(n), "2"] for n in range(4)]
    m = json.loads((out / "manifest.json").read_text())
    assert set(m) == {"command", "config_sha256_16", "seed", "version",
                      "n_indices", "extracted", "extracted_norms"}
    assert m["n_indices"] == 4 and m["extracted"] == 2
    # the command's set carries no remainders; its defects are the direct ones
    grid = GridSpec(32)
    phi1 = random_band_limited(grid, j_lo=0, j_hi=0, seed=21)
    phi2 = random_band_limited(grid, j_lo=0, j_hi=0, seed=22, amplitude=0.7)
    scheds2 = [ScaleCore(m, (s, s, s)) for m, s in zip((-1, -1, -2, -2), (3, 5, 7, 9))]
    ps = ProfileSet((phi1, phi2), ([ScaleCore(0)] * 4, scheds2), remainders=None)
    idx = critical_index(3.0, 3.0)
    for n, row in enumerate(rows[1:]):
        assert float(row.split(",")[2]) == pythagorean_gap(ps, n, idx)


EVOLVE = """[grid]
n_points = 32
[profile1]
j_lo = 0
j_hi = 0
amplitude = 0.3
[profile2]
j_lo = 0
j_hi = 0
amplitude = 0.15
[solver]
dt = 0.01
n_steps = 4
[profiles]
m_sweep = -1 -1 -2 -2
sep_sweep = 3 5 7 9
evolve = true
"""


def test_profiles_command_evolves_the_set(tmp_path):
    # the r_norm column is the evolved decomposition of the command's set,
    # one record per row
    code, out = run(tmp_path, "profiles", EVOLVE, "--seed", "21")
    assert code == 0
    rows = (out / "report.csv").read_text().splitlines()[1:]
    grid = GridSpec(32)
    phi1 = random_band_limited(grid, j_lo=0, j_hi=0, seed=21, amplitude=0.3)
    phi2 = random_band_limited(grid, j_lo=0, j_hi=0, seed=22, amplitude=0.15)
    scheds2 = [ScaleCore(m, (s, s, s)) for m, s in zip((-1, -1, -2, -2), (3, 5, 7, 9))]
    ps = ProfileSet((phi1, phi2), ([ScaleCore(0)] * 4, scheds2), remainders=None)
    records = evolve_decomposition(ps, SolverConfig(dt=0.01, n_steps=4))
    assert [row.split(",")[4] for row in rows] == [str(rec["r_norm"]) for rec in records]
    assert not any(rec["diverged"] for rec in records)


@pytest.mark.parametrize("command, body, key, first", [
    ("iterate", SOLVE + "[iterate]\nj_steps = 0\n", "[iterate] j_steps", "solve"),
    ("iterate", SOLVE + "[iterate]\nj_steps = -2\n", "[iterate] j_steps", "solve"),
    ("norms", GEN + "[norms]\nq = 3\n", "[norms] q", "heat_trajectory"),
    ("expand", SOLVE + "[expand]\nmode = staged\nk = -1\n", "[expand] k",
     "expand_solution"),
    ("profiles", PROFILES + "p = 1\n", "[profiles] p", "pythagorean_gap"),
    # profile2 (six modes at |n| = 2) leaves the 32^3 grid at m = -3 (Nyquist)
    # and at m = 2 (off the coarse lattice)
    ("profiles", PROFILES.replace("-2 -2", "-2 -3"), "[profiles] m_sweep entry -3",
     "pythagorean_gap"),
    ("profiles", PROFILES.replace("-2 -2", "-2 2"), "[profiles] m_sweep entry 2",
     "pythagorean_gap"),
    ("profiles", PROFILES.replace("-2 -2", "-2 -2.5"), "[profiles] m_sweep",
     "pythagorean_gap"),
    ("profiles", PROFILES.replace("7 9", "7 x"), "[profiles] sep_sweep", "pythagorean_gap"),
    # past 63 rungs the int64 shift used to wrap to an all-zero field
    ("profiles", PROFILES.replace("-2 -2", "-2 -64"), "[profiles] m_sweep entry -64",
     "pythagorean_gap"),
    # a typed read that does not parse names its key
    ("iterate", SOLVE + "[iterate]\nj_steps = 1.5\n", "[iterate] j_steps", "solve"),
    ("iterate", SOLVE.replace("n_points = 32", "n_points = x") + "[iterate]\nj_steps = 2\n",
     "[grid] n_points", "solve"),
    ("iterate", SOLVE.replace("dt = 0.01", "dt = fast") + "[iterate]\nj_steps = 2\n",
     "[solver] dt", "solve"),
    # a value that does not parse fails before the numerics, even one read after them
    ("solve", SOLVE + "[output]\nwrite_trajectory = perhaps\n", "[output] write_trajectory",
     "picard_solve"),
    ("solve", SOLVE + "require_convergence = maybe\n", "[solver] require_convergence",
     "picard_solve"),
    ("expand", SOLVE + "[expand]\nresidual_tol = tiny\n", "[expand] residual_tol",
     "expand_solution"),
    ("profiles", PROFILES.replace("extract = true", "extract = maybe"), "[profiles] extract",
     "pythagorean_gap"),
    ("profiles", PROFILES.replace("threshold = 0.01", "threshold = small"),
     "[profiles] threshold", "pythagorean_gap"),
    # no residual exceeds a NaN tolerance, and no extraction stops at a NaN threshold
    ("expand", SOLVE + "[expand]\nresidual_tol = nan\n", "[expand] residual_tol",
     "expand_solution"),
    ("profiles", PROFILES.replace("threshold = 0.01", "threshold = nan"),
     "[profiles] threshold", "pythagorean_gap"),
], ids=["iterate_j_steps_0", "iterate_j_steps_neg", "norms_q", "expand_k", "profiles_p",
        "profiles_m_sweep_nyquist", "profiles_m_sweep_lattice", "profiles_m_sweep_int",
        "profiles_sep_sweep_int", "profiles_m_sweep_64", "iterate_j_steps_float",
        "grid_n_points_text", "solver_dt_text", "output_write_trajectory_text",
        "solver_require_convergence_text", "expand_residual_tol_text",
        "profiles_extract_text", "profiles_threshold_text", "expand_residual_tol_nan",
        "profiles_threshold_nan"])
def test_exit_2_on_bad_setting_before_numerics(tmp_path, monkeypatch, capsys, command,
                                               body, key, first):
    # a value the numerics would reject late, or not at all, is a config
    # error that names its key, found before the first numerical step of the
    # command, which must not run, and before anything is written
    def fail(*args, **kwargs):
        raise AssertionError(f"{first} called")
    monkeypatch.setattr(cli, first, fail)
    code, out = run(tmp_path, command, body, "--seed", "4")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert not out.exists()


def test_verify_estimates_command(tmp_path):
    body = "[grid]\nn_points = 32\n[verify]\nn_fields = 2\n"
    code, out = run(tmp_path, "verify-estimates", body, "--seed", "3")
    assert code == 0
    rows = [r.split(",") for r in (out / "report.csv").read_text().splitlines()]
    assert rows[0] == ["check_id", "s1", "t1", "p", "p2", "lhs", "rhs", "ratio"]
    ids = [r[0] for r in rows[1:]]
    for i in range(2):
        assert {f"prodT{i}", f"bony{i}", f"heatchar{i}", f"heatdecay{i}_j0"} <= set(ids)
    assert {"chain_ok", "kato_interp", "kato_bilinear"} <= set(ids)
    values = {r[0]: r[5] for r in rows[1:]}
    assert values["chain_ok"] == "True"
    assert all(float(values[f"bony{i}"]) <= 1e-10 for i in range(2))
    m = json.loads((out / "manifest.json").read_text())
    assert set(m) == {"command", "config_sha256_16", "seed", "version", "n_rows"}
    assert m["n_rows"] == len(rows) - 1
