"""Smoke tests: both scripts run as programs and share the CLI's random contract."""

import os
import re
import subprocess
import sys
from pathlib import Path

import hyper_rsp
from hyper_rsp.cli import main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    src = str(Path(hyper_rsp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def alpha0(text):
    return re.search(r"alpha0=(\S+)", text).group(1)


def test_reproduce_tables_draws_the_cli_random_target(capsys):
    result = run_script("reproduce_tables.py", "--seed", "0")
    assert result.returncode == 0, result.stderr
    assert main(["verify", "--protocol", "pf", "--params", "random", "--seed", "0"]) == 0
    assert alpha0(result.stdout) == alpha0(capsys.readouterr().out)
    assert result.stdout.count("verdict: PASS") == 2


def test_loss_sweep_runs():
    result = run_script("loss_sweep.py", "--points", "3", "--trials", "2000")
    assert result.returncode == 0, result.stderr
    assert len(result.stdout.splitlines()) == 4
