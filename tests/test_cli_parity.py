"""The golden CLI sweep: tools/cli_parity.py in-process against tools/cli_parity.txt.

A change that means to alter an output rewrites the file with
``python tools/cli_parity.py --in-process src > tools/cli_parity.txt`` and
names each changed case id in its change notes.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).parent.parent
_spec = importlib.util.spec_from_file_location("cli_parity", ROOT / "tools" / "cli_parity.py")
cli_parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_parity)


def test_the_cli_sweep_matches_the_golden_file(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    expected = (ROOT / "tools" / "cli_parity.txt").read_text(encoding="utf-8").splitlines()
    got = list(cli_parity.sweep(cli_parity.run_in_process))
    # The ids of the cases whose lines differ, or that one sweep lacks.
    changed = sorted({line.split(" ", 1)[0] for line in set(got) ^ set(expected)})
    assert not changed, f"{len(changed)} changed cases: {' '.join(changed)}"
    assert got == expected  # and in the same order

