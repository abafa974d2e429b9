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
lattice part (ℕA − ℕF = ℕA + ℤF and friends).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

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

def class_representative(config: Configuration, face: Face, gamma):
    """An integer point of ℤA congruent to γ modulo ℚF, or None."""
    coords = config.lattice_coords(gamma)
    if coords is None:
        return None
    quot = config.face_data(face.indices).class_quotient
    free = quot.free_values(coords)
    if any(v.denominator != 1 for v in free):
        return None
    z = quot.section(tuple(int(v) for v in free), tuple(0 for _ in quot.torsion))
    return il.matvec(il.from_columns(config.lattice_basis, dim=config.n), z)


def class_candidates(config: Configuration, face: Face, gamma) -> list:
    """One lattice representative per ℤF-class inside γ + ℚF, or []."""
    base = class_representative(config, face, gamma)
    if base is None:
        return []
    return [il.vadd(base, d) for d in config.face_data(face.indices).deltas]


def _member_kwargs(budget):
    return {"budget": budget} if budget else {}


# ---------------------------------------------------------------------------
# good classes
# ---------------------------------------------------------------------------

def _passes_exact(family: DegreeFamily, config: Configuration, face: Face,
                  x, budget=None) -> bool:
    data = config.face_data(face.indices)
    kw = _member_kwargs(budget)
    if family.kind == "module":
        if not member(data.query(config.cols), x, **kw):
            return False
        return not member(data.query(config.cols, shift=config.column_sum()), x, **kw)
    if family.kind == "ideal":
        if not member(data.query(config.cols), x, **kw):
            return False
        for g in config.all_faces():
            if g.codim > family.level and set(face.indices) <= set(g.indices):
                if member(data.query(config.face_data(g.indices).cols), x, **kw):
                    return False
        return True
    sat_gens = config.saturation_hilbert_basis()  # the gap family
    if not member(data.query(sat_gens), x, **kw):
        return False
    return not member(data.query(config.cols), x, **kw)


def _first_passing(family: DegreeFamily, config: Configuration, face: Face,
                   gamma, budget=None):
    """The first ℤF-class representative that passes the exact reduction."""
    for x in class_candidates(config, face, gamma):
        if _passes_exact(family, config, face, x, budget):
            return x
    return None


def good_class_exists(family: DegreeFamily, config: Configuration, face: Face,
                      gamma, budget=None) -> bool:
    """Does some b ≡ γ (mod ℚF) satisfy b + ℕF ⊆ D?"""
    return _first_passing(family, config, face, gamma, budget) is not None


# ---------------------------------------------------------------------------
# conductor bounds
# ---------------------------------------------------------------------------

def conductor_multiplier(config: Configuration, budget=None) -> int:
    """Smallest recorded k with k·a_A + saturation ⊆ ℕA on a gap cover.

    Built from the Hilbert basis: each generator h enters ℕA at some
    multiple m_h, the residual multiples r·h (r < m_h) are pushed into ℕA
    by k_h copies of a_A, and the per-generator pushes add up.
    """
    if "conductor" in config._cache:
        return config._cache["conductor"]
    a_A = config.column_sum()
    kw = _member_kwargs(budget)
    base = config.face_data(()).query(config.cols)
    k_star = 0
    for h in config.saturation_hilbert_basis():
        m_h = None
        for m in range(1, SEARCH_CAP):
            if member(base, il.vscale(m, h), **kw):
                m_h = m
                break
        if m_h is None:
            raise ComputationLimitError("no multiple of a saturation generator found in the semigroup",
                                        stage="degrees.conductor_multiplier",
                                        used=SEARCH_CAP - 1, limit=SEARCH_CAP - 1)
        k_h = None
        for k in range(0, SEARCH_CAP):
            shift = il.vscale(k, a_A)
            if all(member(base, il.vadd(shift, il.vscale(r, h)), **kw)
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


def facet_bounds(config: Configuration, budget=None) -> dict:
    """Per-facet enumeration bound: the facet value of a_A plus conductor."""
    k_star = conductor_multiplier(config, budget=budget)
    a_A = config.column_sum()
    return {f.face.indices: int((k_star + 1) * f.value(a_A)) for f in config.facets()}


# ---------------------------------------------------------------------------
# component extraction
# ---------------------------------------------------------------------------

def _witness_base(family: DegreeFamily, config: Configuration, face: Face,
                  x, budget=None):
    """A concrete b ≡ x (mod ℤF) with b + ℕF inside the degree set."""
    data = config.face_data(face.indices)
    kw = _member_kwargs(budget)
    if family.kind == "gap":
        gens = config.saturation_hilbert_basis()
    else:
        gens = config.cols
    q = data.query(gens)
    ok, info = member(q, x, witness=True, **kw)
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


def qdeg_components(family: DegreeFamily, config: Configuration,
                    budget=None) -> list[QDegComponent]:
    """All witnessed classes (b, F), reported per face.

    Classes at a face are enumerated through their facet-value tuples, which
    determine the class exactly; classes lying inside an already-reported
    component of a larger face are dropped, other overlaps are kept.
    """
    bounds = facet_bounds(config, budget=budget)
    comps: list[QDegComponent] = []
    work = 0
    cap = budget or QDEG_BUDGET
    for face in config.all_faces():  # sorted by codimension: larger faces first
        data = config.face_data(face.indices)
        facets_over = data.facets_over
        lrows = il.freeze([tuple(int(f.value(b)) for b in config.lattice_basis)
                           for f in facets_over])
        solve = il.integral_solver(lrows) if facets_over else None
        B = il.from_columns(config.lattice_basis, dim=config.n)
        ranges = [range(bounds[f.face.indices]) for f in facets_over]
        for v in product(*ranges):
            work += 1
            if work > cap:
                raise ComputationLimitError("component enumeration exceeded budget",
                                            stage="degrees.qdeg_components",
                                            used=work, limit=cap)
            if facets_over:
                z = solve(v)
                if z is None:
                    continue
                x = il.matvec(B, z)
            else:
                x = tuple(0 for _ in range(config.n))
            if _covered(config, face, x, comps):
                continue
            hit = _first_passing(family, config, face, x, budget=budget)
            if hit is None:
                continue
            b = _witness_base(family, config, face, hit, budget=budget)
            coords = config.lattice_coords(b)
            cls = data.class_quotient.free_values(tuple(int(c) for c in coords))
            comps.append(QDegComponent(base=b, face=face,
                                       class_coords=tuple(int(c) for c in cls)))
    return comps
