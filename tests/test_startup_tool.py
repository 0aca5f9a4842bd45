"""tools/startup.py, the source of the README's start-up table."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).parent.parent
_spec = importlib.util.spec_from_file_location("startup", ROOT / "tools" / "startup.py")
startup = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(startup)


def test_help_loads_the_cli_alone_and_reports_its_peak(capsys):
    assert startup.main(["startup.py", "--runs", "1", "help"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split() == ["call", "peak_mb", "modules"]
    name, peaks, *modules = row.split()
    assert name == "help" and modules == ["vclabels", "cli"]
    low, high = map(float, peaks.split("-"))
    assert 0 < low == high < 1000
