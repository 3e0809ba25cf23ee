"""Import rules: no ``hyper_rsp`` module imports numpy at module level, and
importing the package derives no protocol table.

``verify`` and ``efficiency`` never compute with numpy, so a fresh process
that runs them must not load it; ``sample`` loads it on first use.  Each check
runs in its own interpreter, because this test process has numpy loaded and
its protocol tables built.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

PARAMS = "'--params', '0.6', '0.8', '0.28', '0.96'"


def run_fresh(code: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


def test_verify_and_efficiency_never_load_numpy():
    done = run_fresh(f"""
import sys
import hyper_rsp, hyper_rsp.cli, hyper_rsp.dense, hyper_rsp.runtime
for protocol in ("pf", "tb"):
    assert hyper_rsp.cli.main(["verify", "--protocol", protocol, {PARAMS}, "--format", "json"]) == 0
assert hyper_rsp.cli.main(["efficiency"]) == 0
assert "numpy" not in sys.modules, "numpy loaded"
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


def test_import_builds_no_protocol_table():
    done = run_fresh("""
import hyper_rsp, hyper_rsp.cli, hyper_rsp.runtime, hyper_rsp.efficiency, hyper_rsp.dense
from hyper_rsp import protocols
size = protocols._corrections.cache_info().currsize
assert size == 0, f"{size} protocol tables built at import"
""")
    assert done.returncode == 0, done.stderr
