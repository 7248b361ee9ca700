import os
import subprocess
import sys
from pathlib import Path

import pytest

import uavcov
from uavcov.model import default_params


@pytest.fixture
def params():
    """Baseline scenario parameters."""
    return default_params()


@pytest.fixture
def run_fresh():
    """Runs Python code, with arguments, in a fresh interpreter that imports
    uavcov from where the tests do; returns its stdout."""
    src = str(Path(uavcov.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}

    def run(code: str, *args: str) -> str:
        done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout

    return run
