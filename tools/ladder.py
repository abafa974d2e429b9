"""A seeded size ladder of configurations, each stage run in its own process.

The inputs are the 24 homogeneous draws
``perfbench/inputs.homogeneous_draws(1, r, c, 4)`` for r×c in 3×5, 3×6,
3×7, 4×6, 4×7 and 4×8 (all-ones first row, entries in [−2, 2]), then the
known walls: four matrices whose conductor k* is 32–49, seed 664718630's
matrix, whose conductor search passes the membership budget, and a 3×4
matrix with k* = 66.  Each input runs five stages, each as one subprocess
under a cap of ``CAP_S`` (30) seconds:

* ``normality`` — ``gkzfactors normality --json``;
* ``conductor`` — ``degrees.conductor_multiplier`` on the configuration;
* ``gap-factors`` — ``gkzfactors gap-factors --json``;
* ``sets sres`` and ``sets dres`` — ``gkzfactors sets NAME --json`` on the
  integer box [−2, 2] on each axis for input of up to three rows, [−1, 1]
  for more.

Last comes the one-stage wall ``resonance --gamma 1000000`` on ``[[2, 3]]``.

Each run writes one JSON line with the input's name, matrix and stage, and
one of three outcomes: ``answer`` with its seconds (and the normality
verdict, the conductor, the gap-label count, the number of "true" grid
points or the verdict of each set, plus a digest of stdout);
``limit`` for exit 3, with the stage (``limit_stage``), ``used`` and
limit that the error names; or ``cap`` when the process ran past the cap.
Any other exit is ``error`` with its code.  It reads
``perfbench/inputs.py`` of this checkout and writes nothing under
``perfbench/``.  Standard library only.

    python3 tools/ladder.py [--root ROOT] > ladder.jsonl

ROOT is a directory holding ``src/gkzfactors``, such as a ``git archive`` of
another commit; by default the checkout this script is in.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SEED = 1
CAP_S = 30.0  # seconds per stage
STAGES = ("normality", "conductor", "gap-factors", "sets sres", "sets dres")
SIZES = ((3, 5), (3, 6), (3, 7), (4, 6), (4, 7), (4, 8))
WALLS = {
    "wall-k49": [[-1, -1, 3, -2], [3, -1, 2, 2], [-1, -3, 1, -2]],
    "wall-k32": [[0, -1, -2, -2], [1, 2, 0, 3], [-2, 3, 3, 3]],
    "wall-k33a": [[0, -2, 1, -3], [-1, 2, 1, 2], [2, 3, 2, 1]],
    "wall-k33b": [[0, -1, 3, 1], [1, 2, 2, 2], [-3, 0, 2, -2]],
    "wall-664718630": [[1, 0, -1, -3], [1, -2, -2, 2], [-2, 0, -1, -2]],
    "wall-k66": [[1, 3, -1, -2], [-3, 2, -2, 3], [1, 1, 0, 1]],
}
GAMMA_WALL = ("wall-2-3-gamma", [[2, 3]], ("resonance --gamma 1000000",))  # (name, matrix, stages)
CLI = ("import sys; sys.path.insert(0, sys.argv.pop(1)); "
       "from gkzfactors.cli import main; sys.exit(main(sys.argv[1:]))")
CONDUCTOR = ("import json, pathlib, sys; sys.path.insert(0, sys.argv[1]); "
             "from gkzfactors.cones import Configuration; "
             "from gkzfactors.degrees import conductor_multiplier; "
             "from gkzfactors.errors import ComputationLimitError\n"
             "doc = json.loads(pathlib.Path(sys.argv[2]).read_text())\n"
             "try:\n"
             "    print(json.dumps({'conductor': conductor_multiplier(Configuration(doc['matrix']))}))\n"
             "except ComputationLimitError as exc:\n"
             "    print(f'computation limit exceeded: {exc}', file=sys.stderr)\n"
             "    sys.exit(3)\n")
LIMIT = re.compile(r"\(stage (\S+), used (\d+), limit (\d+)\)")


def ladder_inputs(seed: int) -> list:
    """(name, matrix) for every rung, draws first."""
    spec = importlib.util.spec_from_file_location("ladder_inputs", HERE / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    flag, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no cache in perfbench/
    try:
        spec.loader.exec_module(inputs)
    finally:
        sys.dont_write_bytecode = flag
    out = []
    for r, c in SIZES:
        for i, m in enumerate(inputs.homogeneous_draws(seed, r, c, 4)):
            out.append((f"draw{r}x{c}-{i}", [list(row) for row in m]))
    return out + list(WALLS.items())


def stage_command(stage: str, src: Path, path: Path) -> list:
    """The subprocess of a stage: the command's words, the input, then its
    options (the ``sets`` box from the input's row count)."""
    if stage == "conductor":
        return [sys.executable, "-c", CONDUCTOR, str(src), str(path)]
    words = stage.split()
    cut = next((i for i, w in enumerate(words) if w.startswith("--")), len(words))
    command, options = words[:cut], words[cut:]
    if command[0] == "sets":
        rows = len(json.loads(path.read_text())["matrix"])
        options.append("--box=" + ",".join(["-2:2" if rows <= 3 else "-1:1"] * rows))
    return [sys.executable, "-c", CLI, str(src), *command, str(path), *options, "--json"]


def run_stage(stage: str, src: Path, path: Path, cap: float) -> dict:
    """The outcome of one stage on the document at `path`."""
    start = time.perf_counter()
    try:
        done = subprocess.run(stage_command(stage, src, path), capture_output=True, text=True,
                              timeout=cap)
    except subprocess.TimeoutExpired:
        return {"outcome": "cap", "cap_s": cap}
    seconds = round(time.perf_counter() - start, 3)
    if done.returncode == 3:
        found = LIMIT.search(done.stderr)
        stage_name, used, limit = found.groups() if found else (None, None, None)
        return {"outcome": "limit", "seconds": seconds, "limit_stage": stage_name,
                "used": int(used) if used else None, "limit": int(limit) if limit else None}
    if done.returncode != 0:
        return {"outcome": "error", "seconds": seconds, "exit": done.returncode,
                "stderr": done.stderr.strip()[-300:]}
    payload = json.loads(done.stdout)
    out = {"outcome": "answer", "seconds": seconds,
           "digest": hashlib.sha256(done.stdout.encode()).hexdigest()[:16]}
    if stage == "normality":
        out.update(normal=payload["normal"], hole=payload["hole"])
    elif stage == "conductor":
        out.update(conductor=payload["conductor"])
    elif stage == "gap-factors":
        out.update(labels=len(payload["labels"]))
    elif stage.startswith("sets"):
        out.update(true=[p["verdict"] for p in payload["grid"]].count("true"))
    else:
        out.update(sets={name: v if isinstance(v, bool) else v["verdict"]
                         for name, v in payload["sets"].items()})
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", type=Path, default=HERE,
                   help="source tree to run (holds src/gkzfactors)")
    args = p.parse_args(argv)
    src = args.root.resolve() / "src"
    runs = [(name, matrix, STAGES) for name, matrix in ladder_inputs(SEED)] + [GAMMA_WALL]
    with tempfile.TemporaryDirectory() as tmp:
        for name, matrix, stages in runs:
            path = Path(tmp) / "input.json"
            path.write_text(json.dumps({"matrix": matrix}))
            for stage in stages:
                line = {"input": name, "matrix": matrix, "stage": stage,
                        **run_stage(stage, src, path, CAP_S)}
                print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
