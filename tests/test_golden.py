"""Byte-for-byte golden reports: every CLI command in every output format.

The files under ``golden/`` were written by the CLI before the report
renderers were merged into one; any change to a report's bytes fails here.
"""

from pathlib import Path

import pytest

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
