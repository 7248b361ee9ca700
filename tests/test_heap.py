"""The package's heap policy: on glibc, importing uavcov keeps freed numpy
buffers in the heap, so repeated station- and grid-sized temporaries reuse
memory instead of page-faulting fresh mappings in again."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

import uavcov


def _on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


# Minor faults of a fresh process, read by getrusage: a second analytic
# point after a warm one, then dense omni blocks (1000/km^2) of the size
# summary_estimates runs there, 504 episodes, after two warm-up blocks.
FAULTS = """
import resource
import numpy as np
from uavcov import analytic, montecarlo
from uavcov.model import BOUNDARY_DEFAULTS, OmniAntenna, default_params

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

analytic.coverage_probability(default_params())
before = faults()
analytic.coverage_probability(default_params(lambda_b=2e-4))
point = faults() - before

dense = default_params(lambda_b=1e-3, antenna=OmniAntenna(BOUNDARY_DEFAULTS["r_max"]))
near = montecarlo._near_radius(dense.lambda_b, montecarlo.field_radius(dense))
size = montecarlo._block_episodes(dense.lambda_b * np.pi * near * near)
assert size == 504, size
for k in range(6):
    if k == 2:
        before = faults()
    montecarlo._tally_block(dense, size, near, montecarlo.episode_rng(9, k))
print(point, (faults() - before) / 4)
"""


@pytest.mark.skipif(not _on_glibc(), reason="the heap policy is glibc's")
class TestFreedBuffersStayInHeap:
    def test_thresholds_accepted(self):
        assert uavcov._keep_freed_buffers()

    def test_warm_work_does_not_fault(self):
        # under glibc's defaults the point takes about 3200 faults and each
        # dense block about 1200 to 1550; under the policy both take about 0
        src = str(Path(uavcov.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        run = subprocess.run([sys.executable, "-c", FAULTS], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        point, per_block = map(float, run.stdout.split())
        assert point < 50
        assert per_block < 100


@pytest.mark.parametrize("error", [ValueError, OSError])
def test_no_glibc_leaves_ctypes_alone(monkeypatch, error):
    def confstr(name):
        raise error(name)

    loaded = []
    monkeypatch.setattr(os, "confstr", confstr)
    monkeypatch.setattr(ctypes, "CDLL", lambda *args: loaded.append(args))
    assert uavcov._keep_freed_buffers() is False
    assert loaded == []
