import os
from pathlib import Path

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
