"""Line counts of the package source, split by kind.

Every line of each ``src/**/*.py`` file is one of four kinds:

* ``blank``     — a line holding only whitespace, inside a docstring too;
* ``docstring`` — any other line of a module, class or function docstring;
* ``comment``   — a line whose only token is a comment;
* ``code``      — every other line, including a line of code that ends in a
  comment and the lines of strings that are not docstrings.

So the four kinds add up to the raw line count of each file.  Standard
library only (``ast`` finds the docstrings, ``tokenize`` the comments).

    python3 tools/src_lines.py [ROOT]

ROOT is a checkout holding ``src/``, by default the one this script is in.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
_SKIP = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENDMARKER, tokenize.ENCODING}


def split_lines(text: str) -> dict:
    """The count of each kind in `KINDS` over the lines of one module."""
    lines = text.splitlines()
    docstring: set = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstring.update(range(first.lineno, first.end_lineno + 1))
    comment, other = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _SKIP:
            other.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(lines, 1):
        if not line.strip():
            kind = "blank"
        elif number in docstring:
            kind = "docstring"
        elif number in comment and number not in other:
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
    return counts


def count_tree(root: Path) -> dict:
    """Relative path -> counts, for every ``.py`` file under ``root/src``."""
    src = root / "src"
    return {str(path.relative_to(src)): split_lines(path.read_text(encoding="utf-8"))
            for path in sorted(src.rglob("*.py"))}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("root", nargs="?", type=Path, default=Path(__file__).resolve().parents[1])
    files = count_tree(p.parse_args(argv).root)
    total = {kind: sum(c[kind] for c in files.values()) for kind in KINDS}
    width = max(map(len, [*files, "total"]))
    print(f"{'file':<{width}} {'lines':>6} " + " ".join(f"{k:>9}" for k in KINDS))
    for name, c in [*files.items(), ("total", total)]:
        print(f"{name:<{width}} {sum(c.values()):>6} " + " ".join(f"{c[k]:>9}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
