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
lattice part (ℕA − ℕF = ℕA + ℤF and friends); the gap family's saturation side
is a sign test on facet values.  `qdeg_components` checks the size of the
conductor's facet-value box against the budget (exit 3 before any work) and
decides membership in it from one closure per face and generator set.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from operator import lt

from . import intlin as il
from .cones import Configuration, Face
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
    base: tuple          # lattice point b with b + ℕF inside the degree set
    face: Face
    class_coords: tuple  # coordinates of b in ℤA/(ℚF ∩ ℤA)


# ---------------------------------------------------------------------------
# per-face plumbing
# ---------------------------------------------------------------------------

def class_representative(config: Configuration, indices: tuple, gamma):
    """An integer point of ℤA congruent to γ modulo ℚF, or None; F is the
    cone of the columns at `indices`."""
    coords = config.lattice_coords(gamma)
    if coords is None:
        return None
    quot = config.face_data(indices).class_quotient
    free = quot.free_values(coords)
    if any(v.denominator != 1 for v in free):
        return None
    z = quot.section(tuple(int(v) for v in free), tuple(0 for _ in quot.torsion))
    return il.matvec(il.from_columns(config.lattice_basis, dim=config.n), z)


def class_candidates(config: Configuration, face: Face, gamma) -> list:
    """One lattice representative per ℤF-class inside γ + ℚF, or []."""
    base = class_representative(config, face.indices, gamma)
    if base is None:
        return []
    return [il.vadd(base, d) for d in config.face_data(face.indices).deltas]


# ---------------------------------------------------------------------------
# good classes
# ---------------------------------------------------------------------------

def _passes_exact(family: DegreeFamily, config: Configuration, face: Face, x, inside) -> bool:
    """Is the ℤF-class of the lattice point x good?  `inside(gens, y)` decides
    y ∈ ℕ·gens + ℤF (+ the minimal face).  For y ∈ ℤA, y ∈ sat + ℤF iff
    l_G(y) >= 0 for every facet G ⊇ F (Face.witness is a positive multiple of
    l_G): (⇐) l_G(a_F) > 0 for G ⊉ F, so y + m·a_F ∈ sat for large m;
    (⇒) l_G >= 0 on sat and l_G = 0 on ℤF.
    """
    over = config.face_data(face.indices).facets_over

    def nonneg(y):
        return all(il.dot(f.face.witness, y) >= 0 for f in over)
    if family.kind == "gap":
        return nonneg(x) and not inside(config.cols, x)
    if not inside(config.cols, x):
        return False
    if family.kind == "module":
        y = il.vsub(x, config.column_sum())
        return not (nonneg(y) and inside(config.cols, y))
    return not any(inside(config.face_data(g.indices).cols, x) for g in config.all_faces()
                   if g.codim > family.level and set(face.indices) <= set(g.indices))


def _member_test(config: Configuration, face: Face):
    """`inside` for `_passes_exact`, by membership search."""
    data = config.face_data(face.indices)
    return lambda gens, y: member(data.query(gens), y)


def _first_passing(family: DegreeFamily, config: Configuration, face: Face, candidates, inside):
    """The first ℤF-class representative among `candidates` that passes."""
    return next((x for x in candidates if _passes_exact(family, config, face, x, inside)), None)


def good_class_exists(family: DegreeFamily, config: Configuration, face: Face,
                      gamma) -> bool:
    """Does some b ≡ γ (mod ℚF) satisfy b + ℕF ⊆ D?"""
    return _first_passing(family, config, face, class_candidates(config, face, gamma),
                          _member_test(config, face)) is not None


# ---------------------------------------------------------------------------
# conductor bounds
# ---------------------------------------------------------------------------

def conductor_multiplier(config: Configuration) -> int:
    """Smallest recorded k with k·a_A + saturation ⊆ ℕA on a gap cover.

    Built from the Hilbert basis: each generator h enters ℕA at some
    multiple m_h, the residual multiples r·h (r < m_h) are pushed into ℕA
    by k_h copies of a_A, and the per-generator pushes add up.
    """
    if "conductor" in config._cache:
        return config._cache["conductor"]
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
    config._cache["conductor"] = k_star
    return k_star


def facet_bounds(config: Configuration) -> dict:
    """Per-facet enumeration bound: the facet value of a_A plus conductor."""
    k_star = conductor_multiplier(config)
    a_A = config.column_sum()
    return {f.face.indices: int((k_star + 1) * f.value(a_A)) for f in config.facets()}


# ---------------------------------------------------------------------------
# component extraction
# ---------------------------------------------------------------------------

def _witness_base(family: DegreeFamily, config: Configuration, face: Face, x):
    """A concrete b ≡ x (mod ℤF) with b + ℕF inside the degree set."""
    data = config.face_data(face.indices)
    q = data.query(config.saturation_hilbert_basis() if family.kind == "gap" else config.cols)
    ok, info = member(q, x, witness=True)
    if not ok:
        raise DomainError("witness requested for a class that is not good")
    b = tuple(x)
    for coeff, g in zip(info["lattice"], q.lattice_part, strict=True):
        b = il.vsub(b, il.vscale(coeff, g))
    if family.kind != "ideal":
        return b
    # push along the face so b + ℕF clears the strata not containing F
    a_F = data.a_F
    m_needed = 0
    for g in config.all_faces():
        if g.codim <= family.level or set(face.indices) <= set(g.indices):
            continue
        for f in config.facets_containing(g):
            if f.value(a_F) > 0:
                v_b, v_step = f.value(b), f.value(a_F)
                if v_b <= 0:
                    m_needed = max(m_needed, int(-v_b // v_step) + 1)
                break
        else:
            raise DomainError("stratum without a separating facet")
    return il.vadd(b, il.vscale(m_needed, a_F))


def _covered(config: Configuration, face: Face, x, comps) -> bool:
    """Is x ≡ comp.base (mod ℚG) for some component comp on a face G ⊋ face?"""
    return any(set(face.indices) < set(comp.face.indices)
               and config.face_data(comp.face.indices).in_span(il.vsub(x, comp.base))
               for comp in comps)


def _closure_test(config: Configuration, face: Face, bounds: dict):
    """`inside` for `_passes_exact` on y with 0 <= l_G(y) < bounds[G], G ⊇ F.

    Each generator set gets, on first use, the states of (ℕ·gens + ℤF)/ℤF
    whose primitive facet values over F lie in that box, by forward closure
    from 0.  It holds every member y of the box: removing one column at a
    time from y = Σnⱼaⱼ + f never raises a facet value over F and keeps it
    >= 0, so every prefix lies in the box.  It is finite: a column outside F
    raises some l_G (G ⊇ F) by at least 1.  A state fixes its facet values.
    """
    data = config.face_data(face.indices)
    over, top = data.facets_over, [bounds[f.face.indices] for f in data.facets_over]
    closures = {}  # id of a generator list kept by config -> (projection, states)

    def inside(gens, y):
        if id(gens) not in closures:
            red = data.query(gens).reduced
            steps = [(fr, t, [int(f.value(g)) for f in over])
                     for (fr, t), g in zip(red.images, gens, strict=True)]
            start, torsion = red.quotient.project((0,) * config.n), red.quotient.torsion
            seen, todo = {start}, [(start, [0] * len(over))]
            while todo:
                (free, tor), vals = todo.pop()
                for fr, t, dv in steps:
                    nv = [a + b for a, b in zip(vals, dv)]
                    key = (il.vadd(free, fr), tuple((a + b) % d for a, b, d in zip(tor, t, torsion)))
                    if key not in seen and all(map(lt, nv, top)):
                        seen.add(key)
                        todo.append((key, nv))
            closures[id(gens)] = red.quotient.project, seen
        project, seen = closures[id(gens)]
        return project(y) in seen
    return inside


def qdeg_components(family: DegreeFamily, config: Configuration) -> list[QDegComponent]:
    """All witnessed classes (b, F), reported per face.

    Classes at a face are enumerated through their facet-value tuples, which
    determine the class exactly; classes lying inside an already-reported
    component of a larger face are dropped, other overlaps are kept.
    """
    if family.kind == "gap" and config.is_normal()[0]:
        return []  # sat = ℕA, so no class passes
    bounds = facet_bounds(config)
    faces = config.all_faces()  # sorted by codimension: larger faces first
    work = sum(prod(bounds[f.face.indices] for f in config.facets_containing(face))
               for face in faces)
    if work > QDEG_BUDGET:
        raise ComputationLimitError("component enumeration exceeded budget",
                                    stage="degrees.qdeg_components", used=work,
                                    limit=QDEG_BUDGET)
    B = il.from_columns(config.lattice_basis, dim=config.n)
    comps: list[QDegComponent] = []
    for face in faces:
        data = config.face_data(face.indices)
        over, quot = data.facets_over, data.class_quotient
        lrows = il.freeze([tuple(int(f.value(b)) for b in config.lattice_basis) for f in over])
        solve = il.integral_solver(lrows) if over else lambda v: (0,) * config.rank
        inside = _closure_test(config, face, bounds)
        for v in product(*(range(bounds[f.face.indices]) for f in over)):
            z = solve(v)
            if z is None or _covered(config, face, il.matvec(B, z), comps):
                continue
            # the class of B.z modulo ℚF, as class_representative gives it
            base = il.matvec(B, quot.section(quot.project(z)[0], ()))
            hit = _first_passing(family, config, face,
                                 (il.vadd(base, d) for d in data.deltas), inside)
            if hit is None:
                continue
            b = _witness_base(family, config, face, hit)
            cls = quot.free_values(tuple(int(c) for c in config.lattice_coords(b)))
            comps.append(QDegComponent(base=b, face=face, class_coords=tuple(int(c) for c in cls)))
    return comps
