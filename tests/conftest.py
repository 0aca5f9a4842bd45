import math
import os
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

import vclabels

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# Tests that start `python -m vclabels` need the package under test on the
# child's path too, also when it is imported from a checkout's src/.
_package_root = str(Path(vclabels.__file__).parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_package_root, os.environ.get("PYTHONPATH")])
)


@pytest.fixture
def fastest():
    """Time a call as the least wall time, in seconds, of three attempts.

    A guard that answers at once does so on some attempt, whatever else
    the machine runs; the unbounded walk it stops is slow on every one.
    """

    def time_call(call):
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            call()
            best = min(best, time.perf_counter() - start)
        return best

    return time_call
