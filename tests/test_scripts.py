"""Smoke tests: both scripts run as programs and share the CLI's random contract."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hyper_rsp
from hyper_rsp.cli import main
from hyper_rsp.runtime import sample_with_loss
from hyper_rsp.states import ProtocolKind, TargetParams

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
GOLDEN = Path(__file__).resolve().parent / "golden"


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


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("script", ["reproduce_tables.py", "loss_sweep.py"])
def test_out_of_range_seed_usage_error(script, seed):
    result = run_script(script, "--seed", str(seed))
    assert result.returncode == 2
    assert "--seed must lie in [0, 2**64)" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "script, args, message",
    [
        ("loss_sweep.py", ("--trials", "0"), "--trials must be positive, got 0"),
        ("loss_sweep.py", ("--points", "0"), "--points must be positive, got 0"),
        ("loss_sweep.py", ("--points", "2", "--trials", "100", "--csv", "/nonexistent/dir/x.csv"),
         "cannot write --csv /nonexistent/dir/x.csv: No such file or directory"),
        ("reproduce_tables.py", ("--trials", "-5"), "--trials must not be negative, got -5"),
        ("reproduce_tables.py", ("--params", "2", "0", "1", "0"),
         "pol coefficient 2.0 outside [-1, 1]"),
        ("reproduce_tables.py", ("--params", "0.6", "0.8", "0.6", "0.9"),
         "freq pair (0.6, 0.9) not normalized"),
    ],
)
def test_bad_count_usage_error(script, args, message):
    result = run_script(script, *args)
    assert result.returncode == 2
    assert "usage:" in result.stderr
    assert message in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""  # rejected before any work, e.g. a sweep row


def test_reproduce_tables_bad_pair_names_both_uses_of_the_second_pair():
    result = run_script("reproduce_tables.py", "--params", "0.6", "0.8", "0.6", "0.9")
    assert result.returncode == 2
    assert ("freq pair (0.6, 0.9) not normalized: α²+β² = 1.17; AX BX is the second-register "
            "pair, used as the freq pair (pf) and as the time pair (tb)") in result.stderr


def test_reproduce_tables_frequencies_follow_the_registry_within_three_sigma():
    result = run_script("reproduce_tables.py", "--params", "0.6", "0.8", "0.28", "0.96",
                        "--trials", "20000", "--seed", "3")
    assert result.returncode == 0, result.stderr
    blocks = re.findall(r"expect (\S+) each, 3σ = (\S+)\):\n((?:.+\n)+)", result.stdout)
    registries = (  # the message-code order, pinned: codes are on the wire
        ["H@a1", "H@a2", "V@a1", "V@a2"],
        [f"{pol}@kp{i}" for pol in "HV" for i in range(1, 5)],
    )
    assert len(blocks) == len(registries)
    for registry, (expected, three_sigma, lines) in zip(registries, blocks):
        rows = [line.split() for line in lines.splitlines()]
        assert [outcome for outcome, _ in rows] == registry
        for _, frequency in rows:
            assert abs(float(frequency) - float(expected)) <= float(three_sigma)


def test_reproduce_tables_accepts_negative_exponent_params():
    result = run_script("reproduce_tables.py", "--params", "-3.2e-05", "0.999999999488", "1", "0")
    assert result.returncode == 0, result.stderr
    assert result.stdout.count("verdict: PASS") == 2


def test_loss_sweep_runs(tmp_path):
    csv_path = tmp_path / "sweep.csv"
    result = run_script("loss_sweep.py", "--points", "3", "--trials", "2000", "--csv", str(csv_path))
    assert result.returncode == 0, result.stderr
    assert len(result.stdout.splitlines()) == 4
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("eta_d,") and len(lines) == 4


def test_loss_sweep_matches_golden_file():
    """At 20,000 trials each 6-digit success rate is an exact detection count
    (a multiple of 1/20000), at all 11 points, η_d = 0 and 1 included."""
    result = run_script("loss_sweep.py", "--protocol", "tb", "--points", "11",
                        "--trials", "20000", "--seed", "2")
    assert result.returncode == 0, result.stderr
    assert result.stdout.encode() == (GOLDEN / "loss_sweep_tb.txt").read_bytes()


def test_reproduce_tables_matches_golden_file():
    """At 10,000 trials each 4-digit frequency is an exact outcome count, so a
    changed outcome draw changes the file.  40,000 trials are three chunks,
    the last one short (7,232 trials)."""
    for trials, golden in [("10000", "reproduce_tables.txt"),
                           ("40000", "reproduce_tables_40000.txt")]:
        result = run_script("reproduce_tables.py", "--params", "0.6", "0.8", "0.28", "0.96",
                            "--trials", trials, "--seed", "3")
        assert result.returncode == 0, result.stderr
        assert result.stdout.encode() == (GOLDEN / golden).read_bytes(), trials


#: Outcome counts of the golden 40,000-trial draw, in registry order.  The
#: file's 4-digit frequencies resolve only about 4 trials, so these pin what
#: it cannot: one trial moved between outcomes.
COUNTS_40000 = {
    ProtocolKind.PF: (9979, 10075, 10009, 9937),
    ProtocolKind.TB: (4986, 5058, 5033, 5026, 4937, 4934, 4934, 5092),
}


@pytest.mark.parametrize("kind", list(ProtocolKind), ids=["pf", "tb"])
def test_reproduce_tables_40000_draw_has_the_pinned_counts(kind):
    """The draw behind ``reproduce_tables_40000.txt``, counted as the script counts it."""
    params = TargetParams(0.6, 0.8, 0.28, 0.96, 0.28, 0.96)
    stats = sample_with_loss(kind, params, eta_d=1.0, trials=40000, seed=3)
    assert stats.outcome_counts == COUNTS_40000[kind]
