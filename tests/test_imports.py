"""Import rules: no ``hyper_rsp`` module imports numpy, json, csv or fractions
at module level, and importing the package derives no protocol table.

``verify`` and ``efficiency`` never compute with numpy, so a fresh process
that runs them must not load it, nor start a thread; ``sample`` loads numpy on
first use, and a run that tallies chunks on helper threads still lets its
process exit.  Each check runs in its own interpreter, because this test
process has numpy loaded and its protocol tables built.
"""

import os
import subprocess
import sys
from pathlib import Path

from hyper_rsp import cli, runtime

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

PARAMS = "'--params', '0.6', '0.8', '0.28', '0.96'"


def run_fresh(code: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


def test_verify_and_efficiency_never_load_numpy():
    done = run_fresh(f"""
import sys, threading
import hyper_rsp, hyper_rsp.cli, hyper_rsp.dense, hyper_rsp.runtime
for protocol in ("pf", "tb"):
    assert hyper_rsp.cli.main(["verify", "--protocol", protocol, {PARAMS}, "--format", "json"]) == 0
assert hyper_rsp.cli.main(["efficiency"]) == 0
assert "numpy" not in sys.modules, "numpy loaded"
assert "concurrent.futures" not in sys.modules, "concurrent.futures loaded"
assert threading.active_count() == 1, threading.enumerate()
""")
    assert done.returncode == 0, done.stderr


def test_table_reports_load_neither_json_nor_csv():
    """json and csv are imported by the format that writes them, and fractions
    (with decimal) by the efficiency report, each on first use."""
    done = run_fresh(f"""
import sys
from hyper_rsp import cli
for protocol in ("pf", "tb"):
    assert cli.main(["verify", "--protocol", protocol, {PARAMS}, "--format", "table"]) == 0
loaded = [name for name in ("json", "csv", "fractions", "decimal") if name in sys.modules]
assert not loaded, f"verify loaded {{loaded}}"
assert cli.main(["efficiency", "--format", "table"]) == 0
loaded = [name for name in ("json", "csv") if name in sys.modules]
assert not loaded, f"efficiency loaded {{loaded}}"
assert "fractions" in sys.modules, "fractions not loaded"
""")
    assert done.returncode == 0, done.stderr


def test_sample_loads_numpy_on_first_use():
    done = run_fresh(f"""
import sys
from hyper_rsp import cli
assert "numpy" not in sys.modules, "numpy loaded by the import"
status = cli.main(["sample", "--protocol", "pf", {PARAMS}, "--eta-d", "0.8",
                   "--trials", "20000", "--seed", "7", "--format", "json"])
assert status == 0
assert "numpy" in sys.modules, "numpy not loaded"
""")
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN / "sample_pf.json").read_text()


def test_a_sample_with_helper_threads_exits(capsys, monkeypatch):
    """A 3-chunk run on two workers tallies its last two chunks on a helper
    thread; the process still exits on its own and prints the serial run's
    report."""
    argv = ["sample", "--protocol", "tb", "--params", "0.6", "0.8", "0.28", "0.96",
            "--eta-d", "0.8", "--trials", str(3 * runtime.CHUNK_TRIALS), "--seed", "7",
            "--format", "json"]
    done = run_fresh(f"""
import threading
from hyper_rsp import cli, runtime
runtime._WORKERS = 2
assert cli.main({argv!r}) == 0
assert threading.active_count() == 2, threading.enumerate()
""")
    assert done.returncode == 0, done.stderr
    monkeypatch.setattr(runtime, "_WORKERS", 1)
    assert cli.main(argv) == 0
    assert done.stdout == capsys.readouterr().out


def test_import_builds_no_protocol_table():
    done = run_fresh("""
import hyper_rsp, hyper_rsp.cli, hyper_rsp.runtime, hyper_rsp.efficiency, hyper_rsp.dense
from hyper_rsp import protocols
size = protocols._corrections.cache_info().currsize
assert size == 0, f"{size} protocol tables built at import"
""")
    assert done.returncode == 0, done.stderr
