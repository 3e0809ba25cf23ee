"""Byte-for-byte golden reports: every CLI command in every output format.

The files under ``golden/`` were written by the CLI before the report
renderers were merged into one; any change to a report's bytes fails here.
The sample reports' outcome counts are also held to the branch law.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from hyper_rsp import runtime
from hyper_rsp.cli import main

GOLDEN = Path(__file__).parent / "golden"

PARAMS = ("--params", "0.6", "0.8", "0.28", "0.96")
SAMPLE = ("--eta-d", "0.8", "--trials", "20000", "--seed", "7")

COMMANDS = {
    "verify_pf": ("verify", "--protocol", "pf", *PARAMS),
    "verify_tb": ("verify", "--protocol", "tb", *PARAMS),
    "verify_tb_random": ("verify", "--protocol", "tb", "--params", "random", "--seed", "11"),
    "sample_pf": ("sample", "--protocol", "pf", *PARAMS, *SAMPLE),
    "sample_tb": ("sample", "--protocol", "tb", *PARAMS, *SAMPLE),
    "efficiency": ("efficiency",),
}


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
@pytest.mark.parametrize("name", COMMANDS)
def test_report_matches_golden_file(name, fmt, capsys):
    assert main([*COMMANDS[name], "--format", fmt]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.{fmt}").read_bytes().decode()


#: Pearson's χ² at the 99.9 % level, by outcome count: 3 and 7 degrees of freedom.
CHI_SQUARE_999 = {4: 16.27, 8: 24.32}


def chi_square(counts: list[int]) -> float:
    """Pearson's χ² of outcome counts against equal branch probabilities."""
    expected = sum(counts) / len(counts)
    return sum((count - expected) ** 2 for count in counts) / expected


def outcome_counts(text: str) -> list[int]:
    report = json.loads(text)
    counts = list(report["outcome_counts"].values())
    assert sum(counts) == report["stats"]["detected"]
    return counts


@pytest.mark.parametrize("name", ["sample_pf", "sample_tb"])
def test_golden_outcome_counts_follow_the_branch_law(name):
    """1/4 (pf) and 1/8 (tb) on every branch, within the 99.9 % χ² bound."""
    counts = outcome_counts((GOLDEN / f"{name}.json").read_text())
    assert chi_square(counts) < CHI_SQUARE_999[len(counts)]


@pytest.mark.parametrize("name", ["sample_pf", "sample_tb"])
def test_a_moved_branch_weight_fails_the_law_and_the_golden_file(name, capsys, monkeypatch):
    """A seeded defect: the first branch's probability moved by 0.05 and the
    table renormalised.  The detected count does not see it, but the outcome
    counts fail the χ² bound and the json and table golden files."""
    run_protocol = runtime.run_protocol

    def skewed(kind, params):
        branches = run_protocol(kind, params)
        weights = [branch.probability for branch in branches]
        weights[0] += 0.05
        return tuple(dataclasses.replace(branch, probability=weight / sum(weights))
                     for branch, weight in zip(branches, weights))

    monkeypatch.setattr(runtime, "run_protocol", skewed)
    reports = {}
    for fmt in ("json", "table"):
        assert main([*COMMANDS[name], "--format", fmt]) == 0
        reports[fmt] = capsys.readouterr().out
        assert reports[fmt] != (GOLDEN / f"{name}.{fmt}").read_text(), fmt
    counts = outcome_counts(reports["json"])
    assert chi_square(counts) > CHI_SQUARE_999[len(counts)]
