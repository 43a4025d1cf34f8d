"""tools/code_lines.py, whose counts CHANGES.md cites as the size gate."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"

# docstrings of every kind, comment-only and blank lines, and a
# multi-line string that is not a docstring, whose every line counts
FIXTURE = '''\
"""Module docstring,
on two lines."""

# a comment-only line
import os  # a comment after code counts

    # an indented comment-only line

class Thing:
    """Class docstring."""

    size = 1


def func(x):
    """Function docstring,

    with a blank line in it.
    """
    text = """a multi-line string
that is not a docstring

spans four lines"""
    return os.sep + text + x
'''
CODE_LINES = 9  # import, class, size, def, the string's 4 lines, return


def load_code_lines():
    spec = importlib.util.spec_from_file_location(
        "code_lines", TOOLS / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_of_a_module(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE, encoding="utf-8")
    assert load_code_lines().code_lines(path) == CODE_LINES


def test_prints_modules_and_total(tmp_path, capsys):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "fixture.py").write_text(FIXTURE, encoding="utf-8")
    (package / "two.py").write_text("a = 1\nb = 2\n", encoding="utf-8")
    assert load_code_lines().main([str(package)]) == 0
    assert capsys.readouterr().out == (
        f"{CODE_LINES:6d}  fixture\n     2  two\n"
        f"{CODE_LINES + 2:6d}  total ({package})\n")
