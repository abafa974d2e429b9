"""Degree-set calculus: witnessed classes of graded pieces along faces.

The degree sets handled here are attached to a configuration A:

* ``module``   — deg of the quotient by the shifted module, ℕA ∖ (a_A + ℕA),
                 where a_A is the sum of all columns;
* ``ideal``    — deg of the radical-stratum ideal at a level i,
                 ℕA ∖ ⋃ {ℕG : G a face of codimension > i};
* ``gap``      — the saturation gaps, (ℝ≥0A ∩ ℤA) ∖ ℕA.

A class γ (mod ℚF) is *good* for a degree set D and a face F when some lattice
point b ≡ γ (mod ℚF) satisfies b + ℕF ⊆ D.  This is decided exactly by
absorption identities that reduce everything to semigroup membership with a
lattice part (ℕA − ℕF = ℕA + ℤF and friends); the saturation side is a
sign test on facet values.  There are two engines, one per job.  The per-γ
test (`first_passing` over `class_candidates`, which `resonance` calls)
asks `semigroup.member`.  `qdeg_components`, for the module and gap
families, checks the size of the conductor's facet-value box against the
budget (exit 3 before any work), walks the lattice points of the box along
a Hermite normal form (`box_walk`), skips the gap classes the conductor
already puts in ℕA + ℤF, and decides membership in ℕA + ℤF by a lookup in
one closure per face; only the witness of each reported class runs a
search.  A face is its `cones.FaceData` record throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from operator import add, ge, lt, sub

from . import intlin as il
from .cones import Configuration, FaceData
from .errors import ComputationLimitError, DomainError
from .semigroup import member

QDEG_BUDGET = 200_000
SEARCH_CAP = 10_000

_KINDS = ("module", "ideal", "gap")


@dataclass(frozen=True)
class DegreeFamily:
    kind: str
    level: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown degree family kind {self.kind!r}")
        if self.kind == "ideal" and (self.level is None or self.level < 0):
            raise DomainError("ideal families need a level i >= 0")


def module_family() -> DegreeFamily:
    return DegreeFamily("module")


def ideal_family(level: int) -> DegreeFamily:
    return DegreeFamily("ideal", level=level)


def gap_family() -> DegreeFamily:
    return DegreeFamily("gap")


@dataclass(frozen=True)
class QDegComponent:
    base: tuple  # lattice point b with b + ℕF inside the degree set
    face: FaceData


# ---------------------------------------------------------------------------
# per-face plumbing
# ---------------------------------------------------------------------------

def class_candidates(config: Configuration, face: FaceData, gamma) -> list:
    """One lattice representative per ℤF-class inside γ + ℚF, or []."""
    base = face.representative(gamma)
    if base is None:
        return []
    return [il.vadd(base, d) for d in face.deltas]


# ---------------------------------------------------------------------------
# good classes
# ---------------------------------------------------------------------------

def _passes_exact(family: DegreeFamily, config: Configuration, face: FaceData, x) -> bool:
    """Is the ℤF-class of the lattice point x good?  Each y ∈ ℕ·gens + ℤF
    (+ the minimal face) is asked of `semigroup.member`.  For y ∈ ℤA,
    y ∈ sat + ℤF iff l_G(y) >= 0 for every facet G ⊇ F (FacetFunctional.witness
    is a positive multiple of l_G): (⇐) l_G(a_F) > 0 for G ⊉ F, so
    y + m·a_F ∈ sat for large m; (⇒) l_G >= 0 on sat and l_G = 0 on ℤF.
    """
    def inside(gens, y):
        return member(face.query(gens), y)

    def nonneg(y):
        return all(il.dot(f.witness, y) >= 0 for f in face.facets_over)
    if family.kind == "gap":
        return nonneg(x) and not inside(config.cols, x)
    if not inside(config.cols, x):
        return False
    if family.kind == "module":
        y = il.vsub(x, config.column_sum())
        return not (nonneg(y) and inside(config.cols, y))
    return not any(inside(g.cols, x) for g in config.all_faces()
                   if g.codim > family.level and set(face.indices) <= set(g.indices))


def first_passing(family: DegreeFamily, config: Configuration, face: FaceData, candidates):
    """The first ℤF-class representative among `candidates` that passes: some
    b ≡ γ (mod ℚF) has b + ℕF ⊆ D iff one of γ's `class_candidates` does."""
    return next((x for x in candidates if _passes_exact(family, config, face, x)), None)


# ---------------------------------------------------------------------------
# conductor bounds
# ---------------------------------------------------------------------------

def conductor_multiplier(config: Configuration) -> int:
    """A recorded k* with k*·a_A + sat ⊆ ℕA, where sat = ℝ≥0A ∩ ℤA.

    Built from the Hilbert basis of sat: each generator h enters ℕA at a
    least multiple m_h, and k_h is the least k with k·a_A + r·h ∈ ℕA for
    every 0 <= r < m_h.  The sum k* = Σ k_h is a conductor: every s ∈ sat is
    Σ n_h·h with n_h ∈ ℕ (the unit part of a non-pointed cone is listed with
    both signs), and with n_h = q_h·m_h + r_h,
    k*·a_A + s = Σ (k_h·a_A + r_h·h) + Σ q_h·(m_h·h) ∈ ℕA.  For normal A
    every h lies in ℕA, so m_h = 1, k_h = 0 and k* = 0 with no search.  A
    search that fails is cached like a result: every later call raises the
    same ComputationLimitError (stage, used, limit) at once.
    """
    if "conductor" not in config._cache:
        try:
            config._cache["conductor"] = 0 if config.is_normal()[0] else _conductor_search(config)
        except ComputationLimitError as exc:
            config._cache["conductor"] = exc
            raise
    k_star = config._cache["conductor"]
    if isinstance(k_star, ComputationLimitError):
        raise k_star.with_traceback(None)
    return k_star


def _conductor_search(config: Configuration) -> int:
    """Σ k_h of `conductor_multiplier`, by membership search."""
    a_A = config.column_sum()
    base = config.face_data(()).query(config.cols)
    k_star = 0
    for h in config.saturation_hilbert_basis():
        m_h = None
        for m in range(1, SEARCH_CAP):
            if member(base, il.vscale(m, h)):
                m_h = m
                break
        if m_h is None:
            raise ComputationLimitError("no multiple of a saturation generator found in the semigroup",
                                        stage="degrees.conductor_multiplier",
                                        used=SEARCH_CAP - 1, limit=SEARCH_CAP - 1)
        k_h = None
        for k in range(0, SEARCH_CAP):
            shift = il.vscale(k, a_A)
            if all(member(base, il.vadd(shift, il.vscale(r, h)))
                   for r in range(m_h)):
                k_h = k
                break
        if k_h is None:
            raise ComputationLimitError("conductor search exceeded its cap",
                                        stage="degrees.conductor_multiplier",
                                        used=SEARCH_CAP, limit=SEARCH_CAP)
        k_star += k_h
    return k_star


def facet_bounds(config: Configuration) -> dict:
    """Per-facet enumeration bound: the facet value of a_A plus conductor."""
    k_star = conductor_multiplier(config)
    a_A = config.column_sum()
    return {f.face.indices: int((k_star + 1) * f.value(a_A)) for f in config.facets()}


# ---------------------------------------------------------------------------
# component extraction
# ---------------------------------------------------------------------------

def _witness_base(family: DegreeFamily, config: Configuration, face: FaceData, x):
    """A concrete b ≡ x (mod ℤF) with b + ℕF inside the degree set."""
    q = face.query(
        config.saturation_hilbert_basis() if family.kind == "gap" else config.cols)
    ok, info = member(q, x, witness=True)
    if not ok:
        raise DomainError("witness requested for a class that is not good")
    b = tuple(x)
    for coeff, g in zip(info["lattice"], q.lattice_part, strict=True):
        b = il.vsub(b, il.vscale(coeff, g))
    return b


def _closure(config: Configuration, face: FaceData, bounds: dict):
    """(mod_zf, closure) for y ∈ ℤA with 0 <= l_G(y) < bounds[G], G ⊇ F:
    y ∈ ℕA + ℤF iff its key lies in closure.

    The key of y is its facet values over F and its torsion part in
    mod_zf, ℤⁿ modulo ℤF; it fixes y modulo ℤF, since equal facet
    values put the difference in ℚF, where the free part vanishes.  The
    closure is the set of keys of (ℕA + ℤF)/ℤF whose facet values lie in
    the box, built by forward closure from 0.  It holds every member y of
    the box: removing one column at a time from y = Σnⱼaⱼ + f never raises a
    facet value over F and keeps it >= 0, so every prefix lies in the box.
    It is finite: a column outside F raises some l_G (G ⊇ F) by at least 1.
    """
    over, top = face.facets_over, [bounds[f.face.indices] for f in face.facets_over]
    mod_zf = il.quotient(config.n, face.lattice_part)
    torsion = mod_zf.torsion
    steps = [([int(f.value(g)) for f in over], mod_zf.project(g)[1]) for g in config.cols]
    start = ((0,) * len(over), (0,) * len(torsion))
    seen, todo = {start}, [start]
    while todo:
        vals, tor = todo.pop()
        for dv, t in steps:
            nv = tuple(map(add, vals, dv))
            if all(map(lt, nv, top)):
                key = (nv, tuple((a + b) % d for a, b, d in zip(tor, t, torsion)))
                if key not in seen:
                    seen.add(key)
                    todo.append(key)
    return mod_zf, seen


def box_walk(M, bounds, carry):
    """The points v = M.c (c integral) with 0 <= v_i < bounds[i], in the
    order of itertools.product over the ranges, each yielded as v followed
    by carry.c.

    M has full column rank.  Its column HNF H = M.U (U unimodular) has pivot
    rows p_0 < p_1 < ... with positive pivots, and v = H.c' for c' = U⁻¹c.
    Rows above p_0 vanish.  With c'_0..c'_{j-1} fixed, rows p_j up to the
    next pivot row are affine in c'_j (H is zero right of column j there):
    the box cuts each to an interval of c'_j, an empty intersection prunes
    the branch, and v_{p_j} rises with c'_j while the rows above it stay, so
    walking each c'_j upwards gives v in lexicographic order.  Everything is
    carried as running sums of the columns of [H; carry.U], with no solve.
    """
    H, U = il.hermite_normal_form(il.freeze(M))
    rows = list(H) + list(il.matmul(il.freeze(carry), U))
    piv = [p for p, _c in il.hnf_pivots(H)] + [len(M)]
    cols = il.columns(rows)

    def walk(j, acc):
        if j == len(cols):
            yield acc
            return
        col, lo, hi = cols[j], None, None
        for i in range(piv[j], piv[j + 1]):  # 0 <= acc_i + a·x <= top
            a, s, top = col[i], acc[i], bounds[i] - 1
            if a == 0:
                if not 0 <= s <= top:
                    return
                continue
            x0, x1 = (-(s // a), (top - s) // a) if a > 0 else (-((top - s) // -a), s // -a)
            lo, hi = (x0, x1) if lo is None else (max(lo, x0), min(hi, x1))
        acc = tuple(x + lo * y for x, y in zip(acc, col))
        for _ in range(hi - lo + 1):
            yield from walk(j + 1, acc)
            acc = tuple(map(add, acc, col))
    if all(b > 0 for b in bounds[:piv[0]]):
        yield from walk(0, (0,) * len(rows))


def qdeg_components(family: DegreeFamily, config: Configuration) -> list[QDegComponent]:
    """All witnessed classes (b, F) of the module or gap family, reported per face.

    The classes at a face F are the points f of the free group ℤA/(ℚF ∩ ℤA)
    (`FaceData.class_quotient`); b is their section into ℤA, the point
    `FaceData.representative` gives.  The facet values over F are an injective
    integer map M of f, so `box_walk` visits each class whose facet values
    lie in the conductor's box once, in the order of those values, carrying
    b, the annihilator values that test b against the components of larger
    faces (classes inside one are dropped, other overlaps are kept) and b's
    closure key.  The points walked are at most the tuples of the box, whose
    count is checked against QDEG_BUDGET first.  Each representative
    x = b + δ (δ ∈ ℚF ∩ ℤA) has b's facet values over F, so it lies in the
    box and `_closure` decides x ∈ ℕA + ℤF by its key.

    Gap family: x lies in sat + ℤF, its facet values being >= 0 (see
    `_passes_exact`), so only x ∉ ℕA + ℤF is asked.  A class with
    l_G(b) >= k*·l_G(a_A) for every G ⊇ F is skipped: then y = b − k*·a_A
    has l_G(y) >= 0 for G ⊇ F, so y ∈ sat + ℤF and
    b ∈ k*·a_A + sat + ℤF ⊆ ℕA + ℤF (`conductor_multiplier`); no
    representative b + δ passes.

    Module family: x passes iff x ∈ ℕA + ℤF and not (x − a_A ∈ sat + ℤF and
    x − a_A ∈ ℕA + ℤF).  The first part of the bracket is l_G(x − a_A) >= 0
    for every G ⊇ F; then those values lie below l_G(x) < bounds[G], so
    x − a_A is in the box and its key (facet values minus l_G(a_A), torsion
    part minus a_A's) is looked up exactly.

    The ideal families are decided per γ only (`first_passing`).
    """
    if family.kind == "ideal":
        raise DomainError("components are enumerated for the module and gap families only")
    gap = family.kind == "gap"
    if gap and config.is_normal()[0]:
        return []  # sat = ℕA, so no class passes
    bounds = facet_bounds(config)
    faces = config.all_faces()  # sorted by codimension: larger faces first
    work = sum(prod(bounds[f.face.indices] for f in face.facets_over) for face in faces)
    if work > QDEG_BUDGET:
        raise ComputationLimitError("component enumeration exceeded budget",
                                    stage="degrees.qdeg_components", used=work,
                                    limit=QDEG_BUDGET)
    B = il.from_columns(config.lattice_basis, dim=config.n)
    k_star, a_A, n = conductor_multiplier(config), config.column_sum(), config.n
    comps: list[QDegComponent] = []
    for face in faces:
        over, quot = face.facets_over, face.class_quotient
        mod_zf, closure = _closure(config, face, bounds)
        torsion = mod_zf.torsion
        # box_walk yields v, the k facet values, then rows linear in b: b
        # itself; the annihilator of each larger face with components (b is
        # in a component's class iff the values match its base's); b's
        # torsion part modulo ℤF before reduction
        covers: dict = {}  # annihilator -> its values on component bases
        for comp in comps:
            if set(face.indices) < set(comp.face.indices):
                ann = comp.face.annihilator
                covers.setdefault(ann, set()).add(tuple(il.dot(w, comp.base) for w in ann))
        linear, k, spans = list(il.identity(n)), len(over), []
        for ann, vals in covers.items():
            spans.append((k + len(linear), k + len(linear) + len(ann), vals))
            linear += ann
        tor = k + len(linear)
        linear += il.transpose([mod_zf.project(e)[1] for e in il.identity(n)])
        offsets = [mod_zf.project(d)[1] for d in face.deltas]
        a_vals, a_tor = [int(f.value(a_A)) for f in over], mod_zf.project(a_A)[1]
        skip = [k_star * a for a in a_vals]

        def key(vals, t):
            return vals, tuple(x % m for x, m in zip(t, torsion))

        def passes(v, t):  # the class with facet values v and torsion part t
            if gap:
                return key(v, t) not in closure
            return key(v, t) in closure and not (
                all(map(ge, v, a_vals))
                and key(tuple(map(sub, v, a_vals)), map(sub, t, a_tor)) in closure)
        # b over a basis of the classes, and the facet values of that basis
        G = il.matmul(B, il.from_columns([quot.section(e, ()) for e in il.identity(quot.free_rank)],
                                         dim=config.rank))
        M = [[int(f.value(g)) for g in il.columns(G)] for f in over]
        for p in box_walk(M, [bounds[f.face.indices] for f in over], il.matmul(linear, G)):
            if any(p[s:e] in vals for s, e, vals in spans):
                continue
            v, base = p[:k], p[k:k + n]
            if gap and all(map(ge, v, skip)):
                continue
            hit = next((il.vadd(base, d) for d, t in zip(face.deltas, offsets)
                        if passes(v, tuple(map(add, p[tor:], t)))), None)
            if hit is not None:
                comps.append(QDegComponent(base=_witness_base(family, config, face, hit),
                                           face=face))
    return comps
