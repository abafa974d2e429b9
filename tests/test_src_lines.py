"""`tools/src_lines`: the four kinds add up to each file's raw line count,
and a small module splits as its layout says."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SAMPLE = '''"""Module docstring,

over three lines."""

import os  # code with a trailing comment

# a comment line


def f(x):
    """One line."""
    s = """a string,
not a docstring"""
    return x


class C:
    """Class

    docstring."""
'''


def _module():
    spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kinds_add_up_to_raw_line_counts():
    module = _module()
    files = module.count_tree(ROOT)
    assert "gkzfactors/degrees.py" in files
    for name, counts in files.items():
        raw = (ROOT / "src" / name).read_text(encoding="utf-8").splitlines()
        assert set(counts) == set(module.KINDS) and sum(counts.values()) == len(raw), name


def test_sample_module_split():
    # docstring lines 1, 3, 11, 18 and 20; blank lines 2, 4, 6, 8, 9, 15,
    # 16 and 19 (2 and 19 inside docstrings); the comment line 7; the rest
    # is code, the string assigned on lines 12-13 included
    assert _module().split_lines(SAMPLE) == {"code": 6, "docstring": 5, "comment": 1,
                                             "blank": 8}
