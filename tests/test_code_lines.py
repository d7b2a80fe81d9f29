"""tools/code_lines.py on a fixture module whose counts are known by hand."""
from __future__ import annotations

import importlib.util
import os

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "code_lines.py")
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# 26 lines; the 11 marked "code" are the code lines
FIXTURE = '''"""Module docstring,
over two lines."""
import math  # code, with a trailing comment

# a comment line


def area(r):  # code
    """Function docstring."""
    return math.pi * r**2  # code


class Shape:  # code
    """Class docstring,

    with a blank line inside."""

    sides = 0  # code
    text = """a string that is not a docstring
spans these two lines"""  # code, both lines
    "a bare string after the first statement"  # code


TOTAL = [  # code
    1,  # code
]  # code
'''


def test_fixture_counts_by_hand():
    assert code_lines.count(FIXTURE) == (26, 11)


def test_table_lists_modules_by_code_lines_then_the_total(tmp_path, capsys):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "shapes.py").write_text(FIXTURE, encoding="utf-8")
    (package / "__init__.py").write_text('"""Package."""\nfrom .shapes import area\n', encoding="utf-8")
    assert code_lines.main([str(package)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "module     lines    code",
        "shapes        26      11",
        "__init__       2       1",
        "total         28      12",
    ]
