"""numpy is the package's only runtime dependency, and no engine call
imports a module lazily, inside the work it times; a sweep or a Monte
Carlo run with more than one worker imports its process pool when it starts
one, so a single-thread process never loads it. The package itself
re-exports nothing: importing it loads none of the engines."""

import json
import os
import subprocess
import sys
from pathlib import Path

import uavcov

# A cold interpreter: import the CLI, make a first analytic call, then run
# the analytic and simulate commands with one thread; print what each step
# imported.
COLD = """
import io, json, sys
from contextlib import redirect_stdout
from uavcov import cli
from uavcov.analytic import coverage_probability
from uavcov.model import default_params

before = set(sys.modules)
coverage_probability(default_params(lambda_b=3e-4))
added = sorted(set(sys.modules) - before)
with redirect_stdout(io.StringIO()):
    cli.main(["analytic"])
    cli.main(["simulate", "--trials", "200"])
print(json.dumps({"added": added,
                  "scipy": sorted(m for m in sys.modules if m.startswith("scipy")),
                  "pool": sorted(m for m in sys.modules if m.startswith(
                      ("concurrent.futures.process", "multiprocessing")))}))
"""


def test_cold_process_imports_numpy_only():
    src = str(Path(uavcov.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-c", COLD], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    assert got["added"] == []
    assert got["scipy"] == []
    assert got["pool"] == []


def test_package_import_loads_no_engine(run_fresh):
    loaded = json.loads(run_fresh(
        "import json, sys, uavcov; "
        "print(json.dumps([m for m in sys.modules if m.startswith('uavcov')]))"))
    assert "uavcov" in loaded
    assert not {"uavcov.analytic", "uavcov.montecarlo", "uavcov.cli"} & set(loaded)
