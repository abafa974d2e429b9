"""Differential test of the gkzfactors command line between two source trees.

Runs every document command on seeded random integer matrices (1-3 rows and
1-5 columns; ``--rows`` and ``--cols`` change the maxima) against two source
roots, each invocation in its own subprocess under a time cap, and compares
stdout, stderr and exit code byte for byte.  Each command runs twice per
draw: once with ``--json``, and once as text with ``--strict`` (its "text"
row), so the text renderer and exit code 4 are compared too.  It then does
the same once for ``verify --fixtures --json`` and once, under its own cap of
SUITE_CAP seconds, for ``verify --suite --instances 12 --json``, the one
command that enumerates module components.  Prints the per-command counts of
identical results, mismatches and timeouts, then lists every mismatch and
timeout.  Standard library only.

    python3 tools/cli_differential.py OLD_ROOT NEW_ROOT --draws 120 --cap 5
    python3 tools/cli_differential.py OLD_ROOT NEW_ROOT --commands gap-factors
    python3 tools/cli_differential.py OLD_ROOT NEW_ROOT --commands faces,normality \
        --rows 5 --cols 9

A root is a directory holding ``src/gkzfactors``, such as a ``git archive``
of another commit.  Exit status: 0 when no result differs, 1 otherwise
(timeouts alone do not count as differences).
"""

from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

RUNNER = ("import sys; sys.path.insert(0, sys.argv.pop(1)); "
          "from gkzfactors.cli import main; sys.exit(main(sys.argv[1:]))")
ENTRY = 3  # largest |matrix entry|
SUITE_CAP = 60.0  # seconds for the one seeded property-suite run


def command_lines(rows: int) -> dict:
    """Command name -> argument list placed before the input path."""
    box = ",".join(["-2:2"] * rows)
    return {
        "faces": ["faces"],
        "normality": ["normality"],
        "resonance": ["resonance"],
        "sets": ["sets", "sres", f"--box={box}"],
        "sets-dres": ["sets", "dres", f"--box={box}"],
        "dmod": ["factors", "dmod"],
        "perverse": ["factors", "perverse"],
        "compare": ["factors", "compare"],
        "gap-factors": ["gap-factors"],
    }


def draw(rng: random.Random, max_rows: int, max_cols: int) -> dict:
    """A document: a matrix of at most max_rows rows and max_cols columns, and
    a γ in the rational span of its columns."""
    rows, cols = rng.randint(1, max_rows), rng.randint(1, max_cols)
    matrix = [[rng.randint(-ENTRY, ENTRY) for _ in range(cols)] for _ in range(rows)]
    coeffs = [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in range(cols)]
    gamma = [str(sum(c * row[j] for j, c in enumerate(coeffs))) for row in matrix]
    return {"matrix": matrix, "gamma": gamma, "character": gamma}


def run(root: Path, argv: list, cap: float):
    """(exit code, stdout, stderr), or None on timeout."""
    try:
        done = subprocess.run([sys.executable, "-c", RUNNER, str(root / "src"), *argv],
                              capture_output=True, timeout=cap)
    except subprocess.TimeoutExpired:
        return None
    return done.returncode, done.stdout, done.stderr


def describe(result) -> str:
    return "timeout" if result is None else f"exit {result[0]}"


def differing(old, new) -> str:
    """Which of exit code, stdout and stderr differ between two results."""
    return ", ".join(part for part, a, b in zip(("exit", "stdout", "stderr"), old, new)
                     if a != b)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old", type=Path, help="source root of the reference tree")
    p.add_argument("new", type=Path, help="source root of the tree under test")
    p.add_argument("--draws", type=int, default=120)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--cap", type=float, default=5.0, help="seconds per invocation")
    p.add_argument("--rows", type=int, default=3, help="most rows of a drawn matrix")
    p.add_argument("--cols", type=int, default=5, help="most columns of a drawn matrix")
    p.add_argument("--commands", default=None,
                   help="comma-separated subset of: " + ", ".join(command_lines(1)))
    args = p.parse_args(argv)
    wanted = args.commands.split(",") if args.commands else list(command_lines(1))
    unknown = set(wanted) - set(command_lines(1))
    if unknown:
        p.error(f"unknown commands: {sorted(unknown)}")

    rng = random.Random(args.seed)
    rows = [f"{name}{text}" for name in wanted for text in ("", " text")]
    counts = {row: {"identical": 0, "differ": 0, "timeout": 0}
              for row in rows + ["verify", "verify-suite"]}
    findings = []

    def compare(name: str, argv_: list, what: str, cap: float = args.cap) -> None:
        old, new = run(args.old, argv_, cap), run(args.new, argv_, cap)
        if old is None or new is None:
            kind = "timeout"
        elif old == new:
            kind = "identical"
        else:
            kind = "differ"
        counts[name][kind] += 1
        if kind != "identical":
            detail = f" ({differing(old, new)} differ)" if kind == "differ" else ""
            findings.append(f"{kind}: {what} old {describe(old)}, new {describe(new)}{detail}")

    with tempfile.TemporaryDirectory() as tmp:
        doc_path = Path(tmp) / "doc.json"
        for i in range(args.draws):
            doc = draw(rng, args.rows, args.cols)
            doc_path.write_text(json.dumps(doc))
            lines = command_lines(len(doc["matrix"]))
            for name in wanted:
                compare(name, lines[name] + [str(doc_path), "--json"],
                        f"draw {i} {name} {doc['matrix']}")
                compare(f"{name} text", lines[name] + [str(doc_path), "--strict"],
                        f"draw {i} {name} --strict {doc['matrix']}")
    # the bundled fixtures, each replayed on one configuration per tree
    compare("verify", ["verify", "--fixtures", "--json"], "verify --fixtures")
    compare("verify-suite", ["verify", "--suite", "--instances", "12", "--json"],
            "verify --suite --instances 12", SUITE_CAP)

    print(f"{'command':<17} {'identical':>9} {'differ':>7} {'timeout':>8}")
    for name, c in counts.items():
        print(f"{name:<17} {c['identical']:>9} {c['differ']:>7} {c['timeout']:>8}")
    for line in findings:
        print(line)
    return 1 if any(c["differ"] for c in counts.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
