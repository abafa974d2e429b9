"""Time the known slow inputs that the benchmark's workloads leave out.

Each input runs in its own interpreter under a wall-clock cap, so an input
that does not finish is reported as "stopped at the cap" rather than hanging
the script.  Run from the root of a checkout:

    python3 perfbench/known_slow.py > perfbench/known_slow.json
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import inputs  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
CAP_S = 120

# (what the input is, the matrix, the stage timed, the library call)
STAGES = {
    "conductor": "degrees.conductor_multiplier(Configuration(m))",
    "gap-factors": "factors.gap_factor_candidates(Configuration(m))",
    "hilbert-basis": "Configuration(m).saturation_hilbert_basis()",
}

CASES = [
    ("property-suite instance named in ROADMAP item 2",
     [[-1, -1, 3, -2], [3, -1, 2, 2], [-1, -3, 1, -2]], "conductor"),
    ("monomial curve t^0,t^1,t^6", [[1, 1, 1], [0, 1, 6]], "gap-factors"),
    ("monomial curve t^0,t^1,t^7", [[1, 1, 1], [0, 1, 7]], "gap-factors"),
    ("monomial curve t^0,t^2,t^7", [[1, 1, 1], [0, 2, 7]], "gap-factors"),
    ("first homogeneous 4x5 draw of seed 1",
     inputs.homogeneous_draws(1, rows=4, cols=5, count=1)[0], "hilbert-basis"),
    ("first homogeneous 4x6 draw of seed 1",
     inputs.homogeneous_draws(1, rows=4, cols=6, count=1)[0], "hilbert-basis"),
]


def time_case(matrix, stage):
    code = ("import sys, time; sys.path.insert(0, 'src');"
            "from gkzfactors import degrees, factors;"
            "from gkzfactors.cones import Configuration;"
            f"m = {matrix!r}; t = time.perf_counter(); {STAGES[stage]};"
            "print(time.perf_counter() - t)")
    start = time.perf_counter()
    try:
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                             capture_output=True, text=True, timeout=CAP_S,
                             check=True)
    except subprocess.TimeoutExpired:
        return {"seconds": None, "note": f"stopped at the {CAP_S} s cap",
                "wall_s": round(time.perf_counter() - start, 1)}
    return {"seconds": round(float(out.stdout.strip()), 2)}


def main():
    rows = []
    for what, matrix, stage in CASES:
        row = {"input": what, "matrix": matrix, "stage": stage}
        row.update(time_case(matrix, stage))
        rows.append(row)
        print(json.dumps(row), file=sys.stderr, flush=True)
    print(json.dumps({"cap_s": CAP_S, "cases": rows}, indent=1))


if __name__ == "__main__":
    main()
