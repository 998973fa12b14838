"""`tools/code_size.py`: what counts as code."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_size.py"
_spec = importlib.util.spec_from_file_location("code_size", _PATH)
code_size = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_size)


def test_comments_docstrings_and_blank_lines_are_not_code():
    source = '''"""Module docstring,
over two lines."""

# a comment
def f(x):  # trailing comment
    """Docstring."""
    s = """a string that is
not a docstring"""
    return (x +
            1)


class C:
    "Class docstring."
'''
    # lines: def, s = """..., its second line, return (x +, 1), class C
    # tokens: def f ( x ) : | s = STRING | return ( x + 1 ) | class C :
    assert code_size.measure(source) == (6, 18)


def test_the_working_tree_lists_every_module():
    names = set(code_size.sources(None))
    assert {"__init__.py", "constants.py", "cli.py"} <= names
    assert all(name.endswith(".py") for name in names)
