import math
import os
import sys
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


def forget_memo():
    """Empty the classify and avoid_family memos, if setsystem is loaded.

    No module is loaded to do so, so the start-up tests see what their
    calls load and nothing more.
    """
    families = sys.modules.get("vclabels.setsystem")
    if families is not None:
        families._classify_ints.cache_clear()
        families._avoid_rows.cache_clear()


@pytest.fixture(autouse=True)
def _empty_memo():
    """Each test starts with empty memos, so its calls reach the engine
    and the kernel as they would in a fresh process."""
    forget_memo()


@pytest.fixture
def fastest():
    """Time a call as the least wall time, in seconds, of three attempts.

    A guard that answers at once does so on some attempt, whatever else
    the machine runs; the unbounded walk it stops is slow on every one.
    The memos are emptied before each attempt, so no attempt is a memo hit.
    """

    def time_call(call):
        best = math.inf
        for _ in range(3):
            forget_memo()
            start = time.perf_counter()
            call()
            best = min(best, time.perf_counter() - start)
        return best

    return time_call
