"""Import rules: no ``hyper_rsp`` module imports numpy, json, csv or fractions
at module level, and importing the package derives no protocol table.

``verify`` and ``efficiency`` never compute with numpy, so a fresh process
that runs them must not load it, nor start a thread; ``sample`` loads numpy on
first use and starts no thread either.  Each check runs in its own interpreter,
because this test process has numpy loaded and its protocol tables built.
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


#: a 3-chunk tb sample run
SAMPLE_ARGV = ["sample", "--protocol", "tb", "--params", "0.6", "0.8", "0.28", "0.96",
               "--eta-d", "0.8", "--trials", str(3 * runtime.CHUNK_TRIALS), "--seed", "7",
               "--format", "json"]


def test_a_sample_starts_no_thread(capsys):
    """A 3-chunk run draws every chunk on the calling thread: the process
    loads no ``concurrent.futures``, has one thread when the run returns, and
    prints the report this process prints."""
    done = run_fresh(f"""
import sys, threading
from hyper_rsp import cli
assert cli.main({SAMPLE_ARGV!r}) == 0
assert threading.active_count() == 1, threading.enumerate()
assert "concurrent.futures" not in sys.modules, "concurrent.futures loaded"
""")
    assert done.returncode == 0, done.stderr
    assert cli.main(SAMPLE_ARGV) == 0
    assert done.stdout == capsys.readouterr().out


def test_a_sample_with_helper_threads_exits(capsys):
    """Two runs at once, each on a helper thread of a fresh process: both
    threads end with their runs, the process exits on its own, and each
    prints the report of a run on the main thread."""
    done = run_fresh(f"""
import threading
from hyper_rsp import cli
statuses = []
helpers = [threading.Thread(target=lambda: statuses.append(cli.main({SAMPLE_ARGV!r})))
           for _ in range(2)]
for helper in helpers:
    helper.start()
for helper in helpers:
    helper.join(60)
assert statuses == [0, 0], statuses
assert threading.active_count() == 1, threading.enumerate()
""")
    assert done.returncode == 0, done.stderr
    assert cli.main(SAMPLE_ARGV) == 0
    assert done.stdout == 2 * capsys.readouterr().out


def test_import_builds_no_protocol_table():
    done = run_fresh("""
import hyper_rsp, hyper_rsp.cli, hyper_rsp.runtime, hyper_rsp.efficiency, hyper_rsp.dense
from hyper_rsp import protocols
size = protocols._corrections.cache_info().currsize
assert size == 0, f"{size} protocol tables built at import"
""")
    assert done.returncode == 0, done.stderr
