"""The documented entry points run: the README "Quick start" block, its
example config, the `bnslab` command's `--help` and each script's, so a
renamed or moved name breaks a test rather than the docs."""
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def test_readme_quick_start_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md:quick-start", "exec"), {})
    lines = capsys.readouterr().out.split()
    assert lines[0] == "decaying"
    assert float(lines[1]) > 0.0


def test_readme_config_runs(tmp_path):
    from bnslab.cli import main
    readme = (ROOT / "README.md").read_text()
    (tmp_path / "solve.ini").write_text(re.search(r"```ini\n(.*?)```", readme, re.S).group(1))
    assert main(["solve", "--config", str(tmp_path / "solve.ini"), "--seed", "7",
                 "--out", str(tmp_path / "out")]) == 0


def test_cli_help_names_every_command():
    """`python -m bnslab.cli` and the target of the `bnslab` console script
    print a usage naming every command; the README lists the same commands."""
    from bnslab.cli import COMMANDS
    pyproject = (ROOT / "pyproject.toml").read_text()
    module, func = re.search(r'^bnslab = "(.+):(.+)"$', pyproject, re.M).groups()
    script = f"import sys; from {module} import {func}; sys.exit({func}())"
    for argv in (["-m", "bnslab.cli"], ["-c", script]):
        proc = subprocess.run([sys.executable, *argv, "--help"], capture_output=True,
                              text=True, timeout=120, env=ENV)
        assert proc.returncode == 0, proc.stderr
        assert "{" + ",".join(COMMANDS) + "}" in proc.stdout
    readme = (ROOT / "README.md").read_text()
    listed = re.search(r"^Commands: (.*?)\.", readme, re.M | re.S).group(1)
    assert len(COMMANDS) == 7
    assert sorted(re.findall(r"`([^`]+)`", listed)) == sorted(COMMANDS)


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help(script):
    proc = subprocess.run([sys.executable, str(script), "--help"], capture_output=True,
                          text=True, timeout=120, env=ENV)
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout


def test_bench_record_refuses_a_checkout_without_a_commit(monkeypatch, capsys):
    """Without a commit to name, the recorder exits 2 before any workload
    runs and writes no record."""
    spec = importlib.util.spec_from_file_location("bench_record",
                                                  ROOT / "scripts" / "bench_record.py")
    bench_record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_record)
    commands = []

    def no_git(cmd, **kwargs):
        commands.append(cmd)
        if cmd[0] != "git":
            raise AssertionError(f"ran {cmd} without a commit to record")
        return subprocess.CompletedProcess(cmd, 128, stdout="",
                                           stderr="fatal: not a git repository")

    monkeypatch.setattr(bench_record.subprocess, "run", no_git)
    assert bench_record.main(["--label", "no_commit_test"]) == 2
    assert commands == [["git", "rev-parse", "HEAD"]]
    assert "not a git repository" in capsys.readouterr().err
    assert not (ROOT / "BENCH_no_commit_test.json").exists()
