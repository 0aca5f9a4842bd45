"""tools/code_lines.py, the counter behind the code-line ledger."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).parent.parent
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

TEXT = '''"""Module docstring.

With a blank line inside.
"""

import os  # a trailing comment leaves the line code

# a comment


class Point:
    """Class docstring."""

    x = 1
    "a string statement that is not a docstring"

    def norm(self):
        """Function docstring."""
        return abs(self.x)
'''


def test_count_sorts_each_line_by_kind():
    # Docstrings: lines 1-4, 12 and 18; blank: 5, 7, 9, 10, 13 and 16;
    # comment: 8; code: 6, 11, 14, 15, 17 and 19.
    assert code_lines.count(TEXT) == {
        "lines": 19,
        "code": 6,
        "docstring": 6,
        "comment": 1,
        "blank": 6,
    }


def test_total_row_sums_the_module_rows(capsys):
    package = ROOT / "src" / "vclabels"
    assert code_lines.main(["code_lines.py", str(package)]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["module", *code_lines.KINDS]
    table = {name: list(map(int, values)) for name, *values in map(str.split, rows)}
    total = table.pop("total")
    assert sorted(table) == sorted(path.name for path in package.glob("*.py"))
    assert total == [sum(column) for column in zip(*table.values())]
    for name, values in table.items():
        counts = code_lines.count((package / name).read_text())
        assert values == [counts[kind] for kind in code_lines.KINDS]
