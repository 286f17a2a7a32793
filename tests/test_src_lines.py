"""``tools/src_lines.py`` splits each module of ``src/spai_ir`` into code,
docstring, comment and blank lines, and the four counts of each module add
up to its line count."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)


def test_the_four_counts_of_each_module_add_up_to_its_lines():
    modules = sorted(src_lines.PACKAGE.glob("*.py"))
    assert modules
    for path in modules:
        text = path.read_text()
        counts = src_lines.count_lines(text)
        assert sum(counts.values()) == len(text.splitlines()) == text.count("\n"), path.name


def test_each_kind_of_line_is_told_apart():
    source = '''"""Module
docstring."""

import os  # a comment on code is code
# a comment

X = """a string
that is code"""


def f():
    """A docstring."""

    return "x"
'''
    assert src_lines.count_lines(source) == {"code": 5, "docstring": 3, "comment": 1, "blank": 5}
