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
decides y ∈ ℕA + ℤF by three proven integer steps on the facet values of y
over F (`_passes_exact`): a sign step (some value < 0: no), a conductor
step (every value at least the conductor's: yes) and, for the ideal
families, a face-span step for the deeper faces; it asks
`semigroup.member` only what they leave open.  `qdeg_components`, for the
module and gap families, checks the size of the conductor's facet-value box
against the budget (exit 3 before any work), walks the lattice points of the
box along a Hermite normal form (`box_walk`), skips the gap classes the
conductor already puts in ℕA + ℤF, and decides membership in ℕA + ℤF by a
lookup in one closure per face, a set of single-integer keys
(`_ClosureTable`): a class test is an add and a set lookup, and only the
witness of each reported class runs a search.  A face is its
`cones.FaceData` record and a facet its `cones.FacetFunctional`, l_F(a_A)
included, throughout; this module keeps only the conductor in
`Configuration._cache`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from operator import add, ge

from . import intlin as il
from .cones import Configuration, FaceData
from .errors import ComputationLimitError, DomainError, check_budget
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
    """Is the ℤF-class of the lattice point x ∈ ℤA good?

    Each target y ∈ ℤA is asked "y ∈ ℕA + ℤF?" (ℤF holds the minimal face)
    on its values v_G = witness_G·y over the facets G ⊇ F
    (`FaceData.facets_over`), where FacetFunctional.witness is a positive
    multiple of l_G.

    Lemma: y ∈ sat + ℤF iff l_G(y) >= 0 for every facet G ⊇ F.  (⇐) l_G(a_F)
    > 0 for G ⊉ F, so y + m·a_F ∈ sat for large m; (⇒) l_G >= 0 on sat and
    l_G = 0 on ℤF.

    1. Sign step: some v_G < 0 means no, since ℕA + ℤF ⊆ sat + ℤF.
    2. Conductor step: v_G >= k*·(witness_G·a_A) for every G ⊇ F means yes,
       where witness_G·a_A = scale_G·l_G(a_A) (`FacetFunctional.sum_value`):
       then l_G(y − k*·a_A) >= 0, so y − k*·a_A ∈ sat + ℤF by the lemma, and
       y ∈ k*·a_A + sat + ℤF ⊆ ℕA + ℤF (`conductor_multiplier`).  The module
       and gap families read k* once per call; the ideal families take this
       step only on normal input, where k* = 0, and never start the
       conductor search.
    3. Search: whatever is left is asked of `semigroup.member`.

    Ideal families, the deeper faces: x ∈ ℕG + ℤF for a face G ⊇ F iff
    x ∈ ℕA + ℤF and x ∈ ℚG (`FaceData.in_span`), so no query over G's
    columns is built.  (⇒) F ⊆ G.  (⇐) write x = Σ n_j·a_j + f with n_j >= 0
    and f ∈ ℤF.  Every facet H ⊇ G has l_H(x) = 0 and l_H(f) = 0, so
    Σ n_j·l_H(a_j) = 0 and each a_j with n_j > 0 has l_H(a_j) = 0 for all
    such H: it lies on every facet containing G, hence in G
    (`FaceData.uppers`).
    """
    over, floors = face.facets_over, None
    if family.kind != "ideal" or config.is_normal()[0]:
        k_star = conductor_multiplier(config)  # 0, with no search, on normal input
        floors = [k_star * f.scale * f.sum_value for f in over]

    def inside(y):
        values = [il.dot(f.witness, y) for f in over]
        if any(v < 0 for v in values):
            return False
        if floors is not None and all(map(ge, values, floors)):
            return True
        return member(face.query(config.cols), y)
    if family.kind == "gap":
        return all(il.dot(f.witness, x) >= 0 for f in over) and not inside(x)
    if not inside(x):
        return False
    if family.kind == "module":
        return not inside(il.vsub(x, config.column_sum()))
    return not any(g.in_span(x) for g in face.uppers if g.codim > family.level)


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
    """Σ k_h of `conductor_multiplier`, by membership search.

    a_A ∈ ℕA, so k·a_A + r·h ∈ ℕA implies (k + 1)·a_A + r·h ∈ ℕA: the least
    k that serves r is found by scanning upwards from the least k that
    serves every r' < r, and k_h is where the scan ends after r = m_h − 1.
    Each k is tried once per r, and k_h must stay below SEARCH_CAP.  A
    column h lies in ℕA, so m_h = 1 and k_h = 0: it is not searched.
    """
    a_A = config.column_sum()
    base = config.face_data(()).query(config.cols)
    k_star, cols = 0, set(config.cols)
    for h in [h for h in config.saturation_hilbert_basis() if h not in cols]:
        m_h = None
        for m in range(1, SEARCH_CAP):
            if member(base, il.vscale(m, h)):
                m_h = m
                break
        if m_h is None:
            raise ComputationLimitError("no multiple of a saturation generator found in the semigroup",
                                        stage="degrees.conductor_multiplier",
                                        used=SEARCH_CAP - 1, limit=SEARCH_CAP - 1)
        k_h = 0
        for r in range(m_h):
            while not member(base, il.vadd(il.vscale(k_h, a_A), il.vscale(r, h))):
                k_h += 1
                if k_h == SEARCH_CAP:
                    raise ComputationLimitError("conductor search exceeded its cap",
                                                stage="degrees.conductor_multiplier",
                                                used=SEARCH_CAP, limit=SEARCH_CAP)
        k_star += k_h
    return k_star


def facet_bounds(config: Configuration) -> dict:
    """Facet indices -> the enumeration bound (k* + 1)·l_F(a_A)
    (`FacetFunctional.sum_value`)."""
    top = conductor_multiplier(config) + 1
    return {f.face.indices: top * f.sum_value for f in config.facets()}


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


class _ClosureTable:
    """The points y ∈ ℕA + ℤF with 0 <= l_G(y) < top_G = bounds[G] for every
    facet G ⊇ F, as the set `keys` of their integer keys, built by forward
    closure from 0 over the columns: y ∈ ℕA + ℤF iff its key is in `keys`.

    The closure holds every member y of the box: removing one column at a
    time from y = Σnⱼaⱼ + f never raises a facet value over F and keeps it
    >= 0, so every prefix lies in the box.  It is finite: a column outside F
    raises some l_G (G ⊇ F) by at least 1.

    The key of y fixes y modulo ℤF: its facet values over F and its torsion
    part in ℤⁿ/ℤF (`FaceData.lattice_quotient`, `quot`); equal facet values
    put a difference in ℚF, where the free part vanishes.  It is one
    integer.  The torsion part, as its index t < quot.torsion_order()
    (`intlin.LatticeQuotient.index`, which the membership search keys by
    too), sits in the low `tbits` bits.  Above it each facet value v_G has a
    field of w_G + 1 bits at `shift[G]`, holding v_G + 2^w_G − top_G: that
    is < 2^w_G inside the box, and its top bit, the field's guard bit, is
    set once v_G >= top_G.
    The width has 2^w_G >= top_G and 2^w_G >= l_G(a) for every column a.
    Each column has l_G(a) >= 0, so a step from a point of the box raises
    each field by at most 2^w_G, to below 2^(w_G + 1): no field carries into
    the next, every exit from the box is upwards, and one test
    `key & guard` tells whether a point left it.  `keys` is a sparse set,
    so its memory follows the classes it holds, not the size of the box.
    """

    def __init__(self, config: Configuration, face: FaceData, bounds: dict):
        over, quot = face.facets_over, face.lattice_quotient
        top = [bounds[f.face.indices] for f in over]
        self.quot = quot
        self.tbits = (quot.torsion_order() - 1).bit_length()
        values = [[il.dot(f.witness, g) // f.scale for f in over] for g in config.cols]
        self.shift, self.top = [], top
        self.bias = self.guard = 0
        off = self.tbits
        for i, t in enumerate(top):
            w = (max([t] + [v[i] for v in values]) - 1).bit_length()
            self.shift.append(off)
            self.bias += ((1 << w) - t) << off
            self.guard |= 1 << (off + w)
            off += w + 1
        # per column: its packed facet values and its torsion part (a
        # column of F steps by nothing)
        zero = (0, (0,) * len(quot.torsion))
        self.steps = sorted({(self.pack(v), quot.project(g)[1])
                             for v, g in zip(values, config.cols)} - {zero})
        self.keys = self._walk()

    def pack(self, values) -> int:
        """Σ values[G] << shift[G], without the bias."""
        return sum(v << s for v, s in zip(values, self.shift))

    def key(self, values, tor) -> int:
        """The key of the point with these facet values and torsion part."""
        return self.pack(values) + self.bias + self.quot.index(tor)

    def at_least(self, low) -> int:
        """c with (k + c) & guard == guard iff v_G >= low[G] for every G, for
        the key k of a point of the box with facet values v, when
        0 <= low[G] <= top[G]: field G of k + c holds v_G − low_G + 2^w_G,
        in [0, 2^(w_G + 1)), and c has no torsion bits."""
        return self.pack(t - x for t, x in zip(self.top, low))

    def _walk(self) -> set:
        guard, mask, quot = self.guard, (1 << self.tbits) - 1, self.quot
        table: dict = {}  # torsion index -> key increments of the columns
        seen, todo = {self.bias}, [self.bias]
        while todo:
            s = todo.pop()
            t = s & mask
            moves = table.get(t)
            if moves is None:
                moves = table[t] = [d + quot.add(t, u) - t for d, u in self.steps]
            for d in moves:
                ns = s + d
                if not ns & guard and ns not in seen:
                    seen.add(ns)
                    todo.append(ns)
        return seen


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
    carried as running sums of the columns of [H; carry.U] = [M; carry].U.
    """
    H, carried = il.hermite_normal_form(il.freeze(M), il.freeze(carry))
    rows = H + carried
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
    b's packed facet values (one linear row: Σ l_G(b) << shift[G]), b, the
    annihilator values that test b against the components of larger faces
    (classes inside one are dropped, other overlaps are kept) and b's
    torsion part.  The points walked are at most the tuples of the box,
    whose count is checked against QDEG_BUDGET first.  Each representative
    x = b + δ (δ ∈ ℚF ∩ ℤA) has b's facet values over F, so it lies in the
    box, and its key is b's packed values plus the table's bias plus the
    torsion index of b + δ: `_ClosureTable` decides x ∈ ℕA + ℤF by one
    lookup.  On a face without torsion that index is 0 and δ = 0 only.

    Gap family: x lies in sat + ℤF, its facet values being >= 0 (see
    `_passes_exact`), so only x ∉ ℕA + ℤF is asked.  A class with
    l_G(b) >= k*·l_G(a_A) for every G ⊇ F is skipped: then y = b − k*·a_A
    has l_G(y) >= 0 for G ⊇ F, so y ∈ sat + ℤF and
    b ∈ k*·a_A + sat + ℤF ⊆ ℕA + ℤF (`conductor_multiplier`); no
    representative b + δ passes.  The test is one add and a guard mask
    (`_ClosureTable.at_least`).

    Module family: x passes iff x ∈ ℕA + ℤF and not (x − a_A ∈ sat + ℤF and
    x − a_A ∈ ℕA + ℤF).  The first part of the bracket is l_G(x − a_A) >= 0
    for every G ⊇ F; then those values lie below l_G(x) < bounds[G], so
    x − a_A is in the box and its key (x's key less the packed l_G(a_A),
    torsion part minus a_A's) is looked up exactly.

    The full face is skipped: there ℕA + ℤF = sat + ℤF = ℤF = ℤA, so no x
    passes either test.  Its box, one empty tuple, still counts towards
    QDEG_BUDGET.

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
    check_budget("component enumeration", "degrees.qdeg_components", work, QDEG_BUDGET)
    B = il.from_columns(config.lattice_basis, dim=config.n)
    k_star, a_A, n = conductor_multiplier(config), config.column_sum(), config.n
    comps: list[QDegComponent] = []
    for face in faces[1:]:  # the full face comes first, and no class passes there
        over, quot = face.facets_over, face.class_quotient
        table = _ClosureTable(config, face, bounds)
        keys, guard, mod_zf = table.keys, table.guard, face.lattice_quotient
        # box_walk yields v, the k facet values, then rows linear in b: b's
        # packed facet values (`_ClosureTable.pack`); b itself; the
        # annihilator of each larger face with components (b is in a
        # component's class iff the values match its base's); b's torsion
        # part modulo ℤF before reduction
        covers: dict = {}  # annihilator -> its values on component bases
        for comp in comps:
            if set(face.indices) < set(comp.face.indices):
                ann = comp.face.annihilator
                covers.setdefault(ann, set()).add(tuple(il.dot(w, comp.base) for w in ann))
        linear, k, spans = list(il.identity(n)), len(over), []
        for ann, vals in covers.items():
            spans.append((k + 1 + len(linear), k + 1 + len(linear) + len(ann), vals))
            linear += ann
        tor = k + 1 + len(linear)
        linear += il.transpose([mod_zf.project(e)[1] for e in il.identity(n)])
        a_vals = [f.sum_value for f in over]
        a_key, a_tor = table.pack(a_vals), [-x for x in mod_zf.project(a_A)[1]]
        a_ge, skip_ge = table.at_least(a_vals), table.at_least([k_star * a for a in a_vals])
        offsets = [mod_zf.project(d)[1] for d in face.deltas]
        twisted, reps = mod_zf.torsion_order() > 1, {}

        def representatives(tb):
            """(δ, key of b + δ less b's, key of b + δ − a_A less b's) for
            each δ, given b's torsion index tb."""
            if tb not in reps:
                ts = [mod_zf.add(tb, u) for u in offsets]
                reps[tb] = [(d, t, mod_zf.add(t, a_tor) - a_key)
                            for d, t in zip(face.deltas, ts)]
            return reps[tb]
        # b over a basis of the classes, and the facet values of that basis
        G = il.matmul(B, il.from_columns(quot.section_basis, dim=config.rank))
        values = [[il.dot(f.witness, g) // f.scale for f in over] for g in il.columns(G)]
        M = [[v[i] for v in values] for i in range(k)]
        carry = [[table.pack(v) for v in values], *il.matmul(linear, G)]
        for p in box_walk(M, table.top, carry):
            if spans and any(p[s:e] in vals for s, e, vals in spans):
                continue
            at = p[k] + table.bias  # b's key, torsion part aside
            if gap and (at + skip_ge) & guard == guard:
                continue
            for d, t, t_less_a in representatives(mod_zf.index(p[tor:]) if twisted else 0):
                x = at + t
                if gap:
                    ok = x not in keys
                else:
                    ok = x in keys and not ((at + a_ge) & guard == guard and at + t_less_a in keys)
                if ok:
                    base = p[k + 1:k + 1 + n]
                    comps.append(QDegComponent(
                        base=_witness_base(family, config, face, il.vadd(base, d)), face=face))
                    break
    return comps
