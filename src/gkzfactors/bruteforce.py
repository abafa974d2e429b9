"""Independent brute-force oracles for the exact machinery.

Everything here re-derives its answers by bounded exhaustive enumeration and
never calls the production membership, component, or pullback code, so that
agreement between the two paths is meaningful evidence.  Oracles are slow by
design and only intended for desk-scale instances.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from . import intlin as il
from .cones import Configuration
from .errors import ComputationLimitError, DomainError


@dataclass(frozen=True)
class OracleConfig:
    box_radius: int = 8          # coefficient / witness bound R
    coeff_bound: int = 3         # largest matrix entry when generating instances
    seed: int = 20240601
    max_n: int = 3
    max_cols: int = 5
    shift_bound: int = 12        # largest m tried for the shifted-degree locus
    power_bound: int = 5         # largest ideal power k tried
    ray_depth: int = 4           # coefficient-sum depth for "b + NF inside" checks

    def __post_init__(self):
        for name in ("box_radius", "coeff_bound", "max_n", "max_cols",
                     "shift_bound", "power_bound", "ray_depth"):
            if getattr(self, name) <= 0:
                raise DomainError(f"oracle bound {name} must be positive")


# ---------------------------------------------------------------------------
# membership oracle (meet-in-the-middle over bounded coefficients)
# ---------------------------------------------------------------------------

def bf_member(query, target, R: int) -> bool:
    """Exhaustive test of target ∈ ℕ·generators + ℤ·lattice_part.

    `query` is anything with `generators` and `lattice_part` (a
    `semigroup.MembershipQuery` or a namespace); nothing else of it is read.
    All generator coefficients range over [0, R] and all lattice coefficients
    over [-R, R]; independent of the production search.
    """
    want = tuple(target)
    gens = [tuple(g) for g in query.generators]
    lats = [tuple(v) for v in query.lattice_part]

    terms = [(g, range(0, R + 1)) for g in gens]
    terms += [(v, range(-R, R + 1)) for v in lats]
    half = len(terms) // 2

    def sums(part):
        acc = {tuple(0 for _ in want)}
        for vec, rng in part:
            acc = {tuple(s + c * x for s, x in zip(base, vec))
                   for base in acc for c in rng}
        return acc

    left = sums(terms[:half])
    right = sums(terms[half:])
    complements = {tuple(w - l for w, l in zip(want, lv)) for lv in left}
    return any(r in complements for r in right)


# ---------------------------------------------------------------------------
# first-principles cone combinatorics
# ---------------------------------------------------------------------------

def _bf_lattice_basis(cols, n):
    H, _ = il.hermite_normal_form(il.from_columns(cols, dim=n))
    return [c for c in il.columns(H) if not il.is_zero_vec(c)]


def _bf_in_lattice(basis, v) -> bool:
    if not basis:
        return il.is_zero_vec(tuple(v))
    x = il.rational_solve(il.from_columns(basis, dim=len(v)), tuple(v))
    return x is not None and all(Fraction(c).denominator == 1 for c in x)


def bf_facets(matrix, h_range: int = 9):
    """Primitive facet functionals found by searching small integer forms.

    Returns (facet column-index tuple, h vector) pairs; h is scaled so its
    values generate the full value group on the column lattice.
    """
    cols = [tuple(c) for c in zip(*matrix)]
    n = len(matrix)
    basis = _bf_lattice_basis(cols, n)
    rank = len(basis)
    seen = {}
    for h in itertools.product(range(-h_range, h_range + 1), repeat=n):
        vals = [sum(a * b for a, b in zip(h, c)) for c in cols]
        if any(v < 0 for v in vals) or all(v == 0 for v in vals):
            continue
        zero = tuple(j for j, v in enumerate(vals) if v == 0)
        zcols = [cols[j] for j in zero]
        if not zcols:
            zrank = 0
        else:
            zrank = il.rational_rank(il.from_columns(zcols, dim=n))
        if zrank != rank - 1:
            continue
        g = 0
        for b in basis:
            g = gcd(g, sum(a * x for a, x in zip(h, b)))
        hv = tuple(Fraction(x, g) for x in h)
        seen.setdefault(zero, hv)
    return sorted(seen.items())


def bf_hilbert_basis(matrix):
    """Hilbert basis of R>=0 A ∩ ZA for a pointed configuration, by box search.

    Every Hilbert basis element is a column or lies in the fundamental
    parallelepiped of some columns, so inside the box |x_i| <= sum_j |a_ij|.
    Takes the nonzero ZA points of that box on which every ``bf_facets``
    value is >= 0, and keeps those p with no other such q for which p - q is
    in the cone (p - q is in ZA already).  Returns them sorted.
    """
    cols = [tuple(c) for c in zip(*matrix)]
    basis = _bf_lattice_basis(cols, len(matrix))
    hs = [il.clear_denominators(h) for _zero, h in bf_facets(matrix)]
    box = [range(-s, s + 1) for s in (sum(abs(a) for a in row) for row in matrix)]
    points = {}
    for x in itertools.product(*box):
        vals = tuple(sum(a * b for a, b in zip(h, x)) for h in hs)
        if all(v >= 0 for v in vals) and any(x) and _bf_in_lattice(basis, x):
            points[x] = vals
    return sorted(p for p, v in points.items()
                  if not any(q != p and all(a <= b for a, b in zip(u, v))
                             for q, u in points.items()))


def _bf_semigroup_points(cols, n, radius: int, keep=None):
    """All points of ℕ·cols with coefficients at most radius.

    With ``keep``, only the points it accepts; it must accept every partial
    sum of a point it accepts, since the rest are dropped after each column.
    """
    pts = {tuple(0 for _ in range(n))}
    for c in cols:
        pts = {tuple(p + k * x for p, x in zip(base, c))
               for base in pts for k in range(radius + 1)}
        if keep is not None:
            pts = set(filter(keep, pts))
    return pts


def bf_gap_holes(matrix, radius: int) -> set:
    """The holes (ℝ≥0A ∩ ℤA) ∖ ℕA whose facet values sum to at most radius.

    Pointed configurations only.  A point is in the saturation when it is in
    ZA and every ``bf_facets`` value is >= 0.  Their sum s is >= 1 on every
    nonzero column, so a point of ℕA with s <= radius uses at most radius
    columns, and each partial sum also has s <= radius.  A cone point
    x = Σλⱼaⱼ has Σλⱼs(aⱼ) = s(x), so |x_i| <= radius · max_j |a_ij|/s(aⱼ).
    """
    cols = [tuple(c) for c in zip(*matrix)]
    n = len(matrix)
    hs = [h for _zero, h in bf_facets(matrix)]
    D = lcm(*(x.denominator for h in hs for x in h))  # s(x) = S.x / D
    S = tuple(int(sum(h[i] for h in hs) * D) for i in range(n))
    nonzero = [c for c in cols if any(c)]
    if any(il.dot(S, c) < D for c in nonzero):
        raise DomainError("the gap-hole oracle needs a pointed configuration")
    reach = [max((radius * D * abs(c[i]) // il.dot(S, c) for c in nonzero), default=0)
             for i in range(n)]
    scaled = [il.clear_denominators(h) for h in hs]  # positive multiples
    basis = _bf_lattice_basis(cols, n)
    sat = {x for x in itertools.product(*(range(-r, r + 1) for r in reach))
           if il.dot(S, x) <= radius * D and all(il.dot(h, x) >= 0 for h in scaled)
           and _bf_in_lattice(basis, x)}
    return sat - _bf_semigroup_points(cols, n, radius,
                                      keep=lambda p: il.dot(S, p) <= radius * D)


def _bf_faces(matrix, h_range: int = 9):
    """All faces as index tuples: zero sets of nonnegative forms, plus the full set."""
    cols = [tuple(c) for c in zip(*matrix)]
    n = len(matrix)
    out = {tuple(range(len(cols)))}
    for h in itertools.product(range(-h_range, h_range + 1), repeat=n):
        vals = [sum(a * b for a, b in zip(h, c)) for c in cols]
        if any(v < 0 for v in vals):
            continue
        out.add(tuple(j for j, v in enumerate(vals) if v == 0))
    return sorted(out)


def _bf_in_span(cols, v) -> bool:
    if not cols:
        return all(Fraction(x) == 0 for x in v)
    return il.rational_solve(il.from_columns(cols, dim=len(v)), tuple(v)) is not None


def _bf_ray_inside(base, face_cols, degset, depth: int) -> bool:
    """Bounded check that base + ℕ·face_cols stays inside degset."""
    if not face_cols:
        return base in degset
    combos = [tuple(0 for _ in base)]
    for _ in range(depth):
        combos = combos + [tuple(c + x for c, x in zip(cc, fc))
                           for cc in combos for fc in face_cols]
    return all(tuple(b + c for b, c in zip(base, cc)) in degset
               for cc in set(combos))


def _bf_qdeg_test(degset, faces, cols, n: int, depth: int):
    """The test gamma ∈ ∪ {b + ℚ·F : b ∈ degset, b + ℕF ⊆ degset (bounded)}.

    The bases b with b + ℕF inside degset do not depend on gamma, so they are
    found once.  gamma − b ∈ ℚF iff the annihilator rows of F agree on gamma
    and on b, so each face keeps the set of its bases' annihilator values.
    """
    keys = []
    for face in faces:
        fcols = [cols[j] for j in face]
        ann = (il.rational_kernel(il.transpose(il.from_columns(fcols, dim=n)))
               if fcols else il.identity(n))
        keys.append((ann, {tuple(il.dot(a, b) for a in ann) for b in degset
                           if _bf_ray_inside(b, fcols, degset, depth)}))

    def test(gamma) -> bool:
        gamma = tuple(Fraction(x) for x in gamma)
        return any(tuple(il.dot(a, gamma) for a in ann) in bases for ann, bases in keys)
    return test


# ---------------------------------------------------------------------------
# first-principles resonance loci
# ---------------------------------------------------------------------------

def _bf_degree_sets(matrix, radius: int):
    cols = [tuple(c) for c in zip(*matrix)]
    n = len(matrix)
    NA = _bf_semigroup_points(cols, n, radius)
    a_A = tuple(sum(c[i] for c in cols) for i in range(n))
    shifted = {tuple(a + b for a, b in zip(a_A, p)) for p in NA}
    return cols, n, NA, a_A, NA - shifted


def _bf_sres_test(matrix, cfg: OracleConfig):
    cols, n, _NA, a_A, D = _bf_degree_sets(matrix, cfg.box_radius)
    inside = _bf_qdeg_test(D, _bf_faces(matrix), cols, n, cfg.ray_depth)

    def test(gamma) -> bool:
        return any(inside(tuple(Fraction(g) + m * c for g, c in zip(gamma, a_A)))
                   for m in range(1, cfg.shift_bound + 1))
    return test


def _bf_ideal_degrees(matrix, level: int, radius: int):
    cols, n, NA, a_A, _ = _bf_degree_sets(matrix, radius)
    basis = _bf_lattice_basis(cols, n)
    rank = len(basis)
    bad = set()
    for face in _bf_faces(matrix):
        fcols = [cols[j] for j in face]
        frank = (il.rational_rank(il.from_columns(fcols, dim=n)) if fcols else 0)
        if rank - frank > level:
            bad |= _bf_semigroup_points(fcols, n, radius) & NA
    return cols, n, NA - bad


def _bf_dres_test(matrix, cfg: OracleConfig):
    n = len(matrix)
    cols = [tuple(c) for c in zip(*matrix)]
    basis = _bf_lattice_basis(cols, n)
    faces = _bf_faces(matrix)
    NA = _bf_semigroup_points(cols, n, cfg.box_radius)
    tests = []
    for level in range(len(basis)):
        cols, n, I = _bf_ideal_degrees(matrix, level, cfg.box_radius)
        for k in range(2, cfg.power_bound + 1):
            Ik = set(I)
            for _ in range(k - 1):
                Ik = {tuple(a + b for a, b in zip(p, q)) for p in Ik for q in I}
            Ik = {tuple(a + b for a, b in zip(p, q)) for p in Ik for q in NA}
            tests.append(_bf_qdeg_test(I - Ik, faces, cols, n, cfg.ray_depth))
    return lambda gamma: any(test(gamma) for test in tests)


def _bf_set_test(matrix, set_name: str, cfg: OracleConfig):
    """The test gamma -> verdict for one set, with the matrix-only work done once."""
    if set_name in ("res", "SRes", "DRes"):
        hs = [h for _, h in bf_facets(matrix)]
        keep = {"res": lambda v: True, "SRes": lambda v: v < 0, "DRes": lambda v: v > 0}[set_name]

        def test(gamma) -> bool:
            values = [sum(Fraction(a) * Fraction(x) for a, x in zip(h, gamma)) for h in hs]
            return any(v.denominator == 1 and keep(v) for v in values)
        return test
    if set_name == "sres":
        return _bf_sres_test(matrix, cfg)
    if set_name == "dres":
        return _bf_dres_test(matrix, cfg)
    if set_name == "wres":
        sres, dres = _bf_sres_test(matrix, cfg), _bf_dres_test(matrix, cfg)
        return lambda gamma: sres(gamma) or dres(gamma)
    raise DomainError(f"unknown set name: {set_name}")


def bf_region(matrix, set_name: str, box, cfg: OracleConfig = OracleConfig()):
    """Integer-grid verdicts for a resonance locus, from first principles."""
    test = _bf_set_test(matrix, set_name, cfg)
    cols = [tuple(c) for c in zip(*matrix)]
    axes = [range(int(lo), int(hi) + 1) for lo, hi in box]
    out = []
    for point in itertools.product(*axes):
        gamma = tuple(Fraction(p) for p in point)
        if not _bf_in_span(cols, gamma):
            out.append({"gamma": point, "verdict": "outside"})
            continue
        out.append({"gamma": point, "verdict": "true" if test(gamma) else "false"})
    return out


# ---------------------------------------------------------------------------
# pullback-count oracle
# ---------------------------------------------------------------------------

def bf_pullback_count(matrix, face_indices, ambient_rep, order_bound: int) -> int:
    """Count face-torus characters of order ≤ bound pulling back to the class.

    Enumerates candidates as rational combinations of a face-lattice basis
    with denominators up to the bound and tests the congruence directly.
    """
    cols = [tuple(c) for c in zip(*matrix)]
    n = len(matrix)
    ambient_basis = _bf_lattice_basis(cols, n)
    fcols = [cols[j] for j in face_indices]
    fbasis = _bf_lattice_basis(fcols, n) if fcols else []
    rep = tuple(Fraction(x) for x in ambient_rep)

    # the ambient class itself must have order within the bound
    coords = (il.rational_solve(il.from_columns(ambient_basis, dim=n), rep)
              if ambient_basis else None)
    if ambient_basis and coords is not None:
        order = 1
        for c in coords:
            d = Fraction(c).denominator
            order = order * d // gcd(order, d)
        if order > order_bound:
            raise DomainError("ambient class order exceeds the oracle bound")

    found = []
    for d in range(1, order_bound + 1):
        if not fbasis:
            cands = [tuple(Fraction(0) for _ in range(n))] if d == 1 else []
        else:
            cands = []
            for num in itertools.product(range(d), repeat=len(fbasis)):
                v = tuple(sum(Fraction(p, d) * Fraction(b[i]) for p, b in
                              zip(num, fbasis)) for i in range(n))
                cands.append(v)
        for v in cands:
            diff = tuple(a - b for a, b in zip(v, rep))
            if not _bf_in_lattice(ambient_basis, diff):
                continue
            if any(_bf_in_lattice(fbasis, tuple(a - b for a, b in zip(v, w)))
                   for w in found):
                continue
            found.append(v)
    return len(found)


# ---------------------------------------------------------------------------
# randomized property suite
# ---------------------------------------------------------------------------

@dataclass
class PropertyReport:
    instances: int = 0
    checks: int = 0
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, prop: str, seed: int, detail: str):
        self.failures.append({"property": prop, "seed": seed, "detail": detail})


def _random_matrix(rng: random.Random, cfg: OracleConfig):
    n = rng.randint(1, cfg.max_n)
    N = rng.randint(1, cfg.max_cols)
    return [[rng.randint(-cfg.coeff_bound, cfg.coeff_bound) for _ in range(N)]
            for _ in range(n)]


def _grid_gammas(config: Configuration, rng: random.Random, count: int):
    out = []
    for _ in range(count):
        coeffs = [Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
                  for _ in config.lattice_basis]
        g = tuple(sum(c * Fraction(b[i]) for c, b in
                      zip(coeffs, config.lattice_basis))
                  for i in range(config.n))
        out.append(g)
    return out


def property_suite(cfg: OracleConfig = OracleConfig(), instances: int = 25) -> PropertyReport:
    """Randomized invariant checks, four γ per instance; failures carry the
    reproduction seed."""
    from . import degrees, resonance

    if instances < 0:
        raise DomainError("the property suite needs a nonnegative instance count")
    report = PropertyReport()
    master = random.Random(cfg.seed)
    for _ in range(instances):
        seed = master.randrange(1 << 30)
        rng = random.Random(seed)
        matrix = _random_matrix(rng, cfg)
        if all(all(x == 0 for x in row) for row in matrix):
            report.notes.append(f"seed {seed}: degenerate instance skipped")
            continue
        try:
            config = Configuration(matrix)
        except DomainError as exc:  # rank 0 etc.
            report.notes.append(f"seed {seed}: degenerate ({exc})")
            continue
        report.instances += 1

        # facet-functional axioms
        for f in config.facets():
            vals = [f.value(c) for c in config.cols]
            zero = {j for j, v in enumerate(vals) if v == 0}
            g = 0
            for b in config.lattice_basis:
                v = f.value(b)
                g = gcd(g, v.numerator) if v.denominator == 1 else -1
            report.checks += 1
            if any(v < 0 or v.denominator != 1 for v in vals):
                report.fail("facet-values-in-N", seed, str(matrix))
            if zero != set(f.face.indices):
                report.fail("facet-zero-set", seed, str(matrix))
            if g != 1:
                report.fail("facet-primitive", seed, str(matrix))

        normal, _ = config.is_normal()
        try:
            gaps = degrees.qdeg_components(degrees.gap_family(), config)
        except ComputationLimitError as exc:
            report.notes.append(f"seed {seed}: gap component budget ({exc})")
        else:
            report.checks += 1
            if (not gaps) != normal:
                report.fail("gap-empty-iff-normal", seed, str(matrix))
        for gamma in _grid_gammas(config, rng, 4):
            prof = resonance.classify(config, gamma)
            try:
                sres = resonance.in_sres(config, gamma)
                dres = resonance.in_dres(config, gamma)
                wres = resonance.in_wres(config, gamma)
            except ComputationLimitError as exc:
                report.notes.append(f"seed {seed}: resonance budget ({exc})")
                continue
            res = resonance.in_res(config, gamma)
            report.checks += 1
            # one-sided implications, all configurations
            if not sres and not prof.is_semi:
                report.fail("not-sres-implies-semi", seed, f"{matrix} {gamma}")
            if dres.is_true and not resonance.in_DRes(config, gamma):
                report.fail("dres-implies-positive-facet", seed,
                            f"{matrix} {gamma}")
            # chain sres ⊆ wres ⊆ res
            if sres and wres.verdict != "true":
                report.fail("sres-subset-wres", seed, f"{matrix} {gamma}")
            if wres.verdict == "true" and not res:
                report.fail("wres-subset-res", seed, f"{matrix} {gamma}")
            # equivalences under normality
            if normal:
                if sres != (not prof.is_semi):
                    report.fail("normal-sres-equivalence", seed,
                                f"{matrix} {gamma}")
                if dres.is_true != resonance.in_DRes(config, gamma):
                    report.fail("normal-dres-equivalence", seed,
                                f"{matrix} {gamma}")
                if (wres.verdict == "true") != (not prof.is_weak):
                    report.fail("normal-wres-equivalence", seed,
                                f"{matrix} {gamma}")

        # witness property of shifted-degree components on normal instances
        if normal and config.is_pointed():
            a_A = config.column_sum()
            try:
                comps = degrees.qdeg_components(degrees.module_family(), config)
            except ComputationLimitError as exc:
                report.notes.append(f"seed {seed}: component budget ({exc})")
                comps = []
            for comp in comps:
                report.checks += 1
                over = comp.face.facets_over
                diff = il.vsub(tuple(comp.base), tuple(a_A))
                if not any(f.value(diff) < 0 for f in over):
                    report.fail("component-negative-facet-witness", seed,
                                f"{matrix} {comp}")
    return report
