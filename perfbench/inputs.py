"""Seeded inputs for the benchmark workloads.

Everything here is the benchmark's own arithmetic: no input is generated,
filtered or ordered by calling the library, so a change to the library cannot
change what it is measured on.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd

# -- small exact helpers ---------------------------------------------------------


def rank(matrix) -> int:
    rows = [[Fraction(x) for x in row] for row in matrix]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col] / rows[r][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def det3(a, b, c) -> int:
    return (a[0] * (b[1] * c[2] - b[2] * c[1]) - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


def columns(matrix):
    return [tuple(c) for c in zip(*matrix)]


def triple_volume(matrix) -> int:
    """Sum of |det| over all column triples of a 3-row matrix.

    This counts, up to the lattice index, the parallelepiped points the Hilbert
    basis enumeration visits, so it is the cost proxy of the `cones` workload.
    """
    return sum(abs(det3(*t)) for t in itertools.combinations(columns(matrix), 3))


def degree_one_holes(matrix) -> int:
    """Lattice points of the column polygon missing from the columns.

    For a 3-row matrix whose first row is all ones the columns are points
    (x, y) of a polygon.  Its points in the affine lattice the columns
    generate are the degree-one part of the saturation; those that are not
    columns are holes of the semigroup (0 holes means a normal semigroup,
    because lattice polygons are normal).  More holes mean a larger conductor.
    """
    pts = sorted(set((c[1], c[2]) for c in columns(matrix)))
    x0, y0 = pts[0]
    diffs = [(x - x0, y - y0) for x, y in pts[1:]]
    index = 0
    for u, v in itertools.combinations(diffs, 2):
        index = gcd(index, u[0] * v[1] - u[1] * v[0])
    # Hermite basis (a, b), (0, c) of the difference lattice
    a, w = 0, (0, 0)
    for v in diffs:
        if v[0]:
            g, s, t = _xgcd(a, abs(v[0]))
            sign = 1 if v[0] > 0 else -1
            w = (g, s * w[1] + t * sign * v[1])
            a = g
    c = index // a
    hull = _hull(pts)
    xs, ys = [p[0] for p in pts], [p[1] for p in pts]
    holes = 0
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            dx, dy = x - x0, y - y0
            if ((x, y) not in pts and _inside(hull, (x, y)) and dx % a == 0
                    and (dy - (dx // a) * w[1]) % c == 0):
                holes += 1
    return holes


def _xgcd(a, b):
    """(g, s, t) with g = gcd(a, b) = s*a + t*b, for a, b >= 0."""
    if b == 0:
        return a, 1, 0
    g, s, t = _xgcd(b, a % b)
    return g, t, s - (a // b) * t


def _hull(pts):
    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _inside(hull, p) -> bool:
    n = len(hull)
    return all((hull[(i + 1) % n][0] - hull[i][0]) * (p[1] - hull[i][1])
               - (hull[(i + 1) % n][1] - hull[i][1]) * (p[0] - hull[i][0]) >= 0
               for i in range(n))


# -- workload inputs ------------------------------------------------------------------
#
# The scan and cones workloads draw their configurations once, from POOL_SEED.
# The run's seed then picks, for every configuration, one of the eight
# symmetries of the square [-ENTRY, ENTRY]^2 (applied to the rows below the
# all-ones row) and a column order, and it orders the ops.  A seed thus gives
# other matrices with the same cone and semigroup up to isomorphism, so runs
# of different seeds do equal work: when each seed drew its own configurations
# a run's throughput varied by 39% (scan) and 9% (cones) between seeds.

ENTRY = 2  # matrix entries below the all-ones row lie in [-ENTRY, ENTRY]
POOL_SEED = 0
# the nonnormal-wedge fixture's matrix, scanned alongside the random draws
WEDGE = [[1, 0, 1], [0, 2, 1]]
SCAN_HOLES = (0, 1, 2)       # degree-one holes per scan stratum
SCAN_PER_STRATUM = 2
CONES_COUNT = 60
CONES_VOLUME = (72, 104)     # accepted triple volumes of the cones draws
GAP_CURVE_MAX = 5            # curves [[1,1,1,1],[0,a,b,c]] with 0<a<b<c<=5
SQUARE_SYMMETRIES = [((1, 0), (0, 1)), ((0, -1), (1, 0)), ((-1, 0), (0, -1)),
                     ((0, 1), (-1, 0)), ((1, 0), (0, -1)), ((-1, 0), (0, 1)),
                     ((0, 1), (1, 0)), ((0, -1), (-1, 0))]


def _rng(tag: str, seed: int) -> random.Random:
    return random.Random(f"{tag}:{seed}")


def _draw(rng, rows, cols):
    return [[1] * cols] + [[rng.randint(-ENTRY, ENTRY) for _ in range(cols)]
                           for _ in range(rows - 1)]


def homogeneous_draws(seed: int, rows: int, cols: int, count: int,
                      accept=lambda m: True) -> list:
    """Full-rank matrices with an all-ones first row and distinct columns."""
    rng = _rng(f"draw{rows}x{cols}", seed)
    out = []
    while len(out) < count:
        m = _draw(rng, rows, cols)
        if (len(set(columns(m))) == cols and rank(m) == rows and accept(m)):
            out.append(m)
    return out


def orient(matrix, rng) -> list:
    """A seeded symmetry of the square on rows 1-2, then a seeded column order."""
    (a, b), (c, d) = rng.choice(SQUARE_SYMMETRIES)
    ones, x, y = matrix
    cols = list(zip(ones, [a * p + b * q for p, q in zip(x, y)],
                    [c * p + d * q for p, q in zip(x, y)]))
    rng.shuffle(cols)
    return [list(r) for r in zip(*cols)]


def half_grid(lo: int, hi: int, dim: int) -> list:
    axis = [Fraction(k, 2) for k in range(2 * lo, 2 * hi + 1)]
    return list(itertools.product(*[axis] * dim))


def scan_inputs(seed: int):
    """(configurations, ops): 3x4 draws stratified by holes, plus the wedge.

    Each op is (configuration index, gamma); the ops of all configurations
    are shuffled together.
    """
    rng = _rng("scan", seed)
    configs = []
    for holes in SCAN_HOLES:
        # one stream of draws per stratum
        pool = homogeneous_draws(POOL_SEED * 10 + holes, 3, 4, SCAN_PER_STRATUM,
                                 accept=lambda m, h=holes: degree_one_holes(m) == h)
        configs += [orient(m, rng) for m in pool]
    grids = [half_grid(-1, 1, 3)] * len(configs) + [half_grid(-3, 3, 2)]
    wedge_cols = columns(WEDGE)
    rng.shuffle(wedge_cols)
    configs.append([list(r) for r in zip(*wedge_cols)])
    ops = [(i, g) for i, grid in enumerate(grids) for g in grid]
    rng.shuffle(ops)
    return configs, ops


def scan_normal(matrix) -> bool:
    """Normality known without the library: no degree-one holes."""
    return len(matrix) == 3 and degree_one_holes(matrix) == 0


def cones_inputs(seed: int) -> list:
    lo, hi = CONES_VOLUME
    pool = homogeneous_draws(POOL_SEED, 3, 6, CONES_COUNT,
                             accept=lambda m: lo <= triple_volume(m) <= hi)
    rng = _rng("cones", seed)
    configs = [orient(m, rng) for m in pool]
    rng.shuffle(configs)
    return configs


def gap_curves(seed: int) -> list:
    """Every curve [[1,1,1,1],[0,a,b,c]], c <= GAP_CURVE_MAX, in seeded order.

    The seed also permutes each curve's columns.
    """
    rng = _rng("gaps", seed)
    curves = []
    for exps in itertools.combinations(range(1, GAP_CURVE_MAX + 1), 3):
        cols = [(1, e) for e in (0,) + exps]
        rng.shuffle(cols)
        curves.append([[c[0] for c in cols], [c[1] for c in cols]])
    rng.shuffle(curves)
    return curves


def curve_normal(matrix) -> bool:
    """The curve's semigroup is normal iff its exponents / gcd are 0,1,2,3."""
    exps = sorted(matrix[1])
    g = 0
    for e in exps:
        g = gcd(g, e)
    return [e // g for e in exps] == [0, 1, 2, 3]


def fixture_order(seed: int, names) -> list:
    names = sorted(names)
    _rng("fixtures", seed).shuffle(names)
    return names
