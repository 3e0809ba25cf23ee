"""CLI contract: flags, exit codes, and report formats that round-trip."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyper_rsp.cli as cli_module
from hyper_rsp import protocols, states
from hyper_rsp.cli import main, verify_report
from hyper_rsp.elements import all_pauli_strings
from hyper_rsp.states import ProtocolKind, TargetParams, make_target

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


# ---------------------------------------------------------------------------
# verify


def test_verify_pf_passes(capsys):
    code, out = run_cli(
        capsys, "verify", "--protocol", "pf", "--params", "0.6", "0.8", "0.28", "0.96",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["all_pass"] is True
    assert len(report["branches"]) == 4
    for branch in report["branches"]:
        assert branch["fidelity_post"] == 1.0
        assert branch["probability"] == 0.25
        assert branch["correction_consistent"] is True


def test_verify_tb_basis_target(capsys):
    code, out = run_cli(
        capsys, "verify", "--protocol", "tb", "--params", "1", "0", "1", "0",
        "--format", "json",
    )
    assert code == 0
    assert len(json.loads(out)["branches"]) == 8


def test_verify_rejects_unnormalized_params(capsys):
    for params, message in [
        (("0.5", "0.5", "1", "0"), "pol pair (0.5, 0.5) not normalized"),
        (("2", "0", "1", "0"), "pol coefficient 2.0 outside [-1, 1]"),
        (("0.6", "0.8", "0.6", "0.9"), "freq pair (0.6, 0.9) not normalized: α²+β² = 1.17"),
    ]:
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--protocol", "pf", "--params", *params])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""


def test_verify_table_output(capsys):
    code, out = run_cli(
        capsys, "verify", "--protocol", "pf", "--params", "0.6", "0.8", "0.28", "0.96",
    )
    assert code == 0
    assert "verdict: PASS" in out
    assert "sz^p*sz^f" in out


def test_verify_csv_one_branch_per_row(capsys):
    code, out = run_cli(
        capsys, "verify", "--protocol", "tb", "--params", "0.6", "0.8", "0.6", "0.8",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 8
    assert rows[0]["protocol"] == "tb"
    assert rows[0]["fidelity_post"] == "1"


def test_verify_random_params_reproducible(capsys):
    args = ("verify", "--protocol", "pf", "--params", "random", "--seed", "11",
            "--format", "json")
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_json_round_trips_bit_exactly(capsys):
    _, out = run_cli(
        capsys, "verify", "--protocol", "pf", "--params", "random", "--seed", "4",
        "--format", "json",
    )
    parsed = json.loads(out)
    assert json.loads(json.dumps(parsed)) == parsed
    # re-emitting the parsed numbers reproduces the exact text
    assert json.dumps(parsed, indent=2) + "\n" == out


def test_verify_failure_exits_one_and_names_first_row(capsys, monkeypatch):
    protocols.outcome_registry(ProtocolKind.PF)  # the table, built before the patch
    # One unreachable fidelity bar, the one name both the gate and the search read.
    monkeypatch.setattr(protocols, "FIDELITY_TOL", -1e-9)
    assert not hasattr(cli_module, "FIDELITY_TOL")
    argv = ("verify", "--protocol", "pf", "--params", "0.6", "0.8", "0.28", "0.96",
            "--format", "json")
    code, out = run_cli(capsys, *argv)
    assert code == 1
    report = json.loads(out)
    assert report["all_pass"] is False
    assert report["first_failure"] == "H@a1"
    # the search moved: no correction reaches any branch
    assert {entry["correction_consistent"] for entry in report["branches"]} == {False}

    # the gate moved too: with every candidate matching, only the bar fails a branch
    def every_candidate(bob_state, target):
        names = tuple(r.name for r in target.schema.photon_b)
        return protocols.CorrectionSearch(all_pauli_strings(names))

    monkeypatch.setattr(cli_module, "derive_correction", every_candidate)
    code, out = run_cli(capsys, *argv)
    assert code == 1
    report = json.loads(out)
    assert {entry["correction_consistent"] for entry in report["branches"]} == {True}
    assert report["all_pass"] is False
    assert report["first_failure"] == "H@a1"


@pytest.mark.parametrize("kind,first", [("pf", "H@a1"), ("tb", "H@kp1")])
def test_verify_reports_a_branch_no_correction_reaches(capsys, monkeypatch, kind, first):
    protocols.outcome_registry(ProtocolKind.parse(kind))  # the table, built before the patch
    # An unreachable fidelity bar empties every branch's correction search.
    monkeypatch.setattr(protocols, "FIDELITY_TOL", -1e-9)
    argv = ["verify", "--protocol", kind, "--params", "0.6", "0.8", "0.28", "0.96"]
    code, out = run_cli(capsys, *argv, "--format", "json")
    assert code == 1
    report = json.loads(out)
    assert {entry["correction_consistent"] for entry in report["branches"]} == {False}
    assert report["all_pass"] is False
    assert report["first_failure"] == first
    code, out = run_cli(capsys, *argv, "--format", "table")
    assert code == 1
    assert out.endswith(f"verdict: FAIL (first failing row: {first})\n")


@pytest.mark.parametrize("kind", list(ProtocolKind))
def test_verify_report_builds_the_target_once(monkeypatch, kind):
    protocols.outcome_registry(kind)  # the table, built before the count starts
    calls = []

    def counted(*args):
        calls.append(args)
        return make_target(*args)

    for module in (cli_module, protocols, states):
        if hasattr(module, "make_target"):
            monkeypatch.setattr(module, "make_target", counted)
    assert verify_report(kind, TargetParams(0.6, 0.8, 0.28, 0.96, 0.6, 0.8))["all_pass"]
    assert len(calls) == 1


def test_verify_output_file_golden(tmp_path, capsys):
    """Written fresh, then over a longer file whose mode it keeps."""
    path = tmp_path / "report.json"
    for existing in (None, "stale text, longer than the report" * 100):
        if existing:
            path.write_text(existing)
            path.chmod(0o640)
        code, out = run_cli(
            capsys, "verify", "--protocol", "tb", "--params", "0.6", "0.8", "0.28", "0.96",
            "--format", "json", "--output", str(path),
        )
        assert code == 0
        assert out == ""
        assert path.read_bytes() == (GOLDEN / "verify_tb.json").read_bytes()
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
    assert path.stat().st_mode & 0o777 == 0o640


# ---------------------------------------------------------------------------
# sample


def test_sample_perfect_detectors(capsys):
    code, out = run_cli(
        capsys, "sample", "--protocol", "pf", "--params", "1", "0", "1", "0",
        "--eta-d", "1", "--trials", "1000", "--seed", "7", "--format", "json",
    )
    assert code == 0
    stats = json.loads(out)["stats"]
    assert stats["success_rate"] == 1.0
    assert stats["detected"] == 1000


def test_sample_lossy_detectors_near_square(capsys):
    code, out = run_cli(
        capsys, "sample", "--protocol", "tb", "--params", "0.6", "0.8", "0.28", "0.96",
        "--eta-d", "0.8", "--trials", "100000", "--seed", "7", "--format", "json",
    )
    assert code == 0
    stats = json.loads(out)["stats"]
    sigma = (0.64 * 0.36 / 100000) ** 0.5
    assert abs(stats["success_rate"] - 0.64) < 3 * sigma
    assert stats["mean_fidelity_on_detected"] == 1.0


#: Detected counts of ``sample --protocol tb --params random --seed 2 --trials
#: 20000`` at η_d = 0, 0.1, …, 1: the paper's η_d² detection rate under loss.
LOSS_SWEEP_TB = (0, 204, 819, 1824, 3229, 5034, 7237, 9838, 12763, 16169, 20000)


@pytest.mark.parametrize("tenths, detected", enumerate(LOSS_SWEEP_TB))
def test_loss_sweep_detected_counts(capsys, tenths, detected):
    eta_d, trials = tenths / 10, 20000
    code, out = run_cli(
        capsys, "sample", "--protocol", "tb", "--params", "random", "--seed", "2",
        "--trials", str(trials), "--eta-d", str(eta_d), "--format", "json",
    )
    assert code == 0
    stats = json.loads(out)["stats"]
    assert stats["detected"] == detected
    predicted = eta_d * eta_d
    assert abs(detected / trials - predicted) <= 3 * (predicted * (1 - predicted) / trials) ** 0.5
    assert stats["mean_fidelity_on_detected"] == (None if detected == 0 else 1.0)


#: Outcome counts of ``sample --params 0.6 0.8 0.28 0.96 --eta-d 1 --seed 3``,
#: keyed by (protocol, trials): the paper's 1/4 and 1/8 branch laws.  40,000
#: trials are three chunks, the last one short (7,232 trials).
TABLE_COUNTS = {
    ("pf", 10000): {"H@a1": 2475, "H@a2": 2546, "V@a1": 2505, "V@a2": 2474},
    ("tb", 10000): {"H@kp1": 1231, "H@kp2": 1282, "H@kp3": 1261, "H@kp4": 1278,
                    "V@kp1": 1206, "V@kp2": 1191, "V@kp3": 1256, "V@kp4": 1295},
    ("pf", 40000): {"H@a1": 9979, "H@a2": 10075, "V@a1": 10009, "V@a2": 9937},
    ("tb", 40000): {"H@kp1": 4986, "H@kp2": 5058, "H@kp3": 5033, "H@kp4": 5026,
                    "V@kp1": 4937, "V@kp2": 4934, "V@kp3": 4934, "V@kp4": 5092},
}


@pytest.mark.parametrize("protocol, trials", list(TABLE_COUNTS))
def test_perfect_detector_outcome_counts(capsys, protocol, trials):
    code, out = run_cli(
        capsys, "sample", "--protocol", protocol, "--params", "0.6", "0.8", "0.28", "0.96",
        "--eta-d", "1", "--trials", str(trials), "--seed", "3", "--format", "json",
    )
    assert code == 0
    counts = json.loads(out)["outcome_counts"]
    assert list(counts.items()) == list(TABLE_COUNTS[protocol, trials].items())
    p = 1 / len(counts)
    for count in counts.values():
        assert abs(count / trials - p) <= 3 * (p * (1 - p) / trials) ** 0.5


def test_sample_zero_trials_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["sample", "--protocol", "pf", "--params", "1", "0", "1", "0",
              "--trials", "0"])
    assert excinfo.value.code == 2


def test_unwritable_output_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["efficiency", "--output", str(tmp_path / "missing" / "x.json")])
    assert excinfo.value.code == 2
    assert "cannot write --output" in capsys.readouterr().err


def test_unwritable_output_is_refused_before_sampling(tmp_path, capsys, monkeypatch):
    def never(*args):
        pytest.fail("sampled before the --output check")

    monkeypatch.setattr(cli_module, "sample_with_loss", never)
    missing = tmp_path / "missing" / "x.json"
    with pytest.raises(SystemExit) as excinfo:
        main(["sample", "--protocol", "pf", "--params", "1", "0", "1", "0",
              "--trials", "2000000", "--output", str(missing)])
    assert excinfo.value.code == 2
    assert f"cannot write --output {missing}: No such file or directory" in capsys.readouterr().err


def test_an_interrupted_run_leaves_the_existing_report_as_it_was(tmp_path, monkeypatch):
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli_module, "sample_with_loss", interrupted)
    path = tmp_path / "report.json"
    path.write_bytes(b'{"an": "old report"}\n')
    with pytest.raises(KeyboardInterrupt):
        main(["sample", "--protocol", "pf", "--params", "1", "0", "1", "0",
              "--output", str(path)])
    assert path.read_bytes() == b'{"an": "old report"}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_output_through_a_link_replaces_the_linked_file(tmp_path, capsys):
    path, link = tmp_path / "report.json", tmp_path / "link.json"
    path.write_text("old")
    link.symlink_to(path)
    assert main(["efficiency", "--format", "json", "--output", str(link)]) == 0
    assert link.is_symlink()
    assert path.read_bytes() == (GOLDEN / "efficiency.json").read_bytes()


def test_output_to_a_device_is_written_in_place(capsys):
    assert main(["efficiency", "--output", os.devnull]) == 0
    assert capsys.readouterr().out == ""


def test_sample_bad_eta_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["sample", "--protocol", "pf", "--params", "1", "0", "1", "0",
              "--eta-d", "1.5"])
    assert excinfo.value.code == 2


def test_sample_csv(capsys):
    code, out = run_cli(
        capsys, "sample", "--protocol", "pf", "--params", "1", "0", "1", "0",
        "--eta-d", "0.5", "--trials", "2000", "--seed", "9", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert rows[0]["trials"] == "2000"


# ---------------------------------------------------------------------------
# efficiency


def test_efficiency_table_shows_exact_fractions(capsys):
    code, out = run_cli(capsys, "efficiency")
    assert code == 0
    assert "pf 1/3" in out
    assert "tb 2/7" in out


def test_efficiency_json_integer_fields(capsys):
    code, out = run_cli(capsys, "efficiency", "--format", "json")
    assert code == 0
    report = json.loads(out)["protocols"]
    assert report["pf"]["numerator"] == 1
    assert report["pf"]["denominator"] == 3
    assert report["tb"]["numerator"] == 2
    assert report["tb"]["denominator"] == 7
    assert report["pf"]["classical_bits"] == 2
    assert report["tb"]["classical_bits"] == 3
    assert isinstance(report["pf"]["numerator"], int)


# ---------------------------------------------------------------------------
# bad usage and the module entry point


def test_missing_params_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--protocol", "pf"])
    assert excinfo.value.code == 2


def test_bad_params_count_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--protocol", "pf", "--params", "1", "0", "1"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("command", ["verify", "sample"])
def test_params_accept_negative_exponent_notation(capsys, command):
    code, out = run_cli(
        capsys, command, "--protocol", "pf", "--params", "-3.2e-05", "0.999999999488",
        "1", "0", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["params"]["alpha0"] == -3.2e-05


@pytest.mark.parametrize("command", ["verify", "sample"])
@pytest.mark.parametrize("seed", [-1, 2**64])
def test_out_of_range_seed_usage_error(capsys, command, seed):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--protocol", "pf", "--params", "random", "--seed", str(seed)])
    assert excinfo.value.code == 2
    assert "--seed must lie in [0, 2**64)" in capsys.readouterr().err


def test_largest_seed_accepted(capsys):
    code, out = run_cli(
        capsys, "sample", "--protocol", "pf", "--params", "random", "--seed", str(2**64 - 1),
        "--trials", "1000", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["stats"]["seed"] == 2**64 - 1


def test_module_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "hyper_rsp", "efficiency"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert "pf 1/3" in result.stdout


def run_program(*argv):
    """``python -m hyper_rsp`` in a process of its own, as a shell runs it."""
    return subprocess.run(
        [sys.executable, "-m", "hyper_rsp", *argv], capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("command", ["verify", "sample"])
@pytest.mark.parametrize("seed", [-1, 2**64])
def test_program_out_of_range_seed_usage_error(command, seed):
    result = run_program(command, "--protocol", "pf", "--params", "random", "--seed", str(seed))
    assert result.returncode == 2
    assert "--seed must lie in [0, 2**64)" in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize(
    "params, message",
    [
        (("2", "0", "1", "0"), "pol coefficient 2.0 outside [-1, 1]"),
        (("0.6", "0.8", "0.6", "0.9"), "freq pair (0.6, 0.9) not normalized"),
    ],
)
def test_program_bad_params_usage_error(params, message):
    result = run_program("verify", "--protocol", "pf", "--params", *params)
    assert result.returncode == 2
    assert "usage:" in result.stderr
    assert message in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


def test_program_accepts_negative_exponent_params():
    for protocol in ("pf", "tb"):
        result = run_program("verify", "--protocol", protocol, "--params",
                             "-3.2e-05", "0.999999999488", "1", "0")
        assert result.returncode == 0, result.stderr
        assert result.stdout.endswith("verdict: PASS\n")
