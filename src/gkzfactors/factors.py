"""Composition-factor tables for the two filtrations attached to a configuration.

The D-module side lists, per codimension i, one factor for each face F of
codimension i whose span contains the parameter; the factor is labelled by the
rank-one character class of the parameter modulo the face lattice ZF.  The
topological side lists, per codimension, every character class on the face
torus whose pullback along the torus surjection equals the ambient character.
Both tables come with the hypothesis flags that certify whether the canonical
surjection onto the listed factors is an isomorphism, and whether the layers
are semisimple.

`gap_factor_candidates` is advisory: it labels the witnessed classes of the
saturation gap, which flag potential extra factors of the bottom layer for a
non-normal configuration, but it is not a certified classification.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from . import intlin as il
from .cones import Configuration, FaceData
from .degrees import gap_family, qdeg_components
from .errors import DomainError, GKZError
from . import resonance

INFINITE = "infinite"

CERT_EPI = "epimorphism-only"
CERT_ISO = "isomorphism"
CERT_SEMISIMPLE = "semisimple-certified"


# ---------------------------------------------------------------------------
# character classes on face tori
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalSystemClass:
    """A rank-one character class on the torus of a face, taken modulo ZF;
    two classes are equal when their faces and canonical vectors are."""

    face_indices: tuple
    representative: tuple = field(compare=False)  # rational ambient vector
    canonical: tuple       # representative reduced into the ZF fundamental domain
    order: object = field(compare=False)  # least k >= 1 with k*rep in ZF, or "infinite"

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    def __repr__(self):
        tag = "trivial" if self.is_trivial else f"order {self.order}"
        return f"LocalSystemClass(F={list(self.face_indices)}, rep={[str(c) for c in self.canonical]}, {tag})"


def _make_class(config: Configuration, indices, rep, require_span=True) -> LocalSystemClass:
    indices = tuple(indices)
    rep = tuple(Fraction(x) for x in rep)
    if len(rep) != config.n:
        raise DomainError("representative dimension does not match the configuration")
    canonical, order = config.face_data(indices).reduce(rep)
    if order is None:
        if require_span:
            raise DomainError("representative lies outside the span of the face")
        order = INFINITE
    return LocalSystemClass(face_indices=indices, representative=rep,
                            canonical=canonical, order=order)


def class_of(config: Configuration, face, gamma) -> LocalSystemClass:
    """Character class of a parameter on the torus of a face (parameter in QF)."""
    indices = face.indices if isinstance(face, FaceData) else tuple(face)
    return _make_class(config, indices, gamma, require_span=True)


def trivial_class(config: Configuration) -> LocalSystemClass:
    """The trivial character class on the full column set."""
    return _make_class(config, range(config.N), (0,) * config.n)


# ---------------------------------------------------------------------------
# pullback solutions on a face torus
# ---------------------------------------------------------------------------

def pullback_solutions(ambient: Configuration, face, cls: LocalSystemClass) -> list:
    """All character classes on the face torus pulling back to the given class.

    The class must live on the full column set of `ambient`.  `face` may be a
    face of the configuration or, more generally, a tuple of column indices
    whose columns span a subcone of full intersection with the lattice span
    (the count is then the torsion order of ZA modulo the sublattice).
    """
    if tuple(cls.face_indices) != tuple(range(ambient.N)):
        raise DomainError("the pulled-back class must live on the full column set")
    if not isinstance(face, FaceData):
        if not set(face) <= set(range(ambient.N)):
            raise DomainError("face indices out of range")
        face = ambient.face_data(tuple(face))

    # for rep ∈ QF, as for the trivial class (rep = 0), the base is rep
    # itself: there `FaceData.representative` gives z = 0, since the free
    # rows of class_quotient vanish on Q.inner and section is linear
    base = cls.representative
    reps = face.deltas  # base + δ; for base = 0, δ itself
    if any(base):
        coords = ambient.lattice_coords(base)
        if coords is None:
            raise DomainError("class representative lies outside the column span")
        if any(il.dot(w, coords) for w in face.ann):
            # one z in ZA with rep + z in QF: a representative of -rep modulo QF
            z = face.representative(il.vneg(base))
            if z is None:
                return []
            base = il.vadd(base, z)
        reps = [il.vadd(base, d) for d in face.deltas]
    out = [_make_class(ambient, face.indices, rep) for rep in reps]
    out.sort(key=lambda c: c.canonical)
    return out


# ---------------------------------------------------------------------------
# filtration reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FactorLabel:
    codim: int
    face_indices: tuple
    cls: LocalSystemClass
    multiplicity: int = 1

    def key(self):
        return (self.codim, self.face_indices, self.cls.canonical)


@dataclass(frozen=True)
class FiltrationReport:
    kind: str                 # "dmod" or "perverse"
    matrix: tuple
    parameter: object         # rational vector (dmod) or LocalSystemClass (perverse)
    factors: tuple            # factors[i] = tuple of FactorLabel at codimension i
    flags: dict
    certification: str
    notes: tuple = ()


def _check_minimal_resonant_intersection(config, gamma, facet_faces) -> None:
    """Every face whose span contains gamma must contain the common
    intersection of the resonant facets; a violation would contradict the
    isomorphism hypothesis bookkeeping, so it is a hard error."""
    if not facet_faces:
        return
    common = set(range(config.N))
    for f in facet_faces:
        common &= set(f.indices)
    for f in config.all_faces():
        if f.in_span(gamma) and not common <= set(f.indices):
            raise GKZError("a face carrying the parameter misses the minimal "
                           "resonant intersection")


def dmod_report(config: Configuration, gamma) -> FiltrationReport:
    """Factor table of the filtration by boundary supports, with hypothesis flags."""
    gamma = tuple(Fraction(x) for x in gamma)
    resonance._require_in_span(config, gamma)
    levels = [[] for _ in range(config.rank + 1)]
    for f in config.all_faces():  # sorted by (codim, indices)
        if f.in_span(gamma):
            levels[f.codim].append(FactorLabel(f.codim, f.indices, class_of(config, f, gamma)))
    factors = tuple(map(tuple, levels))

    prof = resonance.classify(config, gamma)
    facet_faces = [config.face(idx) for idx in prof.resonant_facets]
    simplicial = config.is_simplicial_family(facet_faces)
    if simplicial:
        _check_minimal_resonant_intersection(config, gamma, facet_faces)
    normal, _ = config.is_normal()
    weak = prof.is_weak
    res = not prof.is_nonresonant
    sres = resonance.in_sres(config, gamma)
    dres = resonance.in_dres(config, gamma)
    wres = resonance.wres_from(sres, dres)

    flags = {
        "simplicial_resonant_facets": simplicial,   # isomorphism hypothesis
        "normal_and_weak_nonresonant": normal and weak,  # semisimplicity hypothesis
        "normal": normal,
        "weak_nonresonant": weak,
        "resonance": {"res": res, "sres": sres,
                      "dres": dres.verdict, "wres": wres.verdict},
        "bounds": dict(dres.bounds),
    }
    notes = []
    if not res:
        notes.append("parameter is nonresonant: every filtration step equals "
                     "the minimal extension and the module is irreducible")
    cert = CERT_EPI
    if simplicial:
        cert = CERT_SEMISIMPLE if flags["normal_and_weak_nonresonant"] else CERT_ISO
    return FiltrationReport(kind="dmod", matrix=config.matrix, parameter=gamma,
                            factors=factors, flags=flags,
                            certification=cert, notes=tuple(notes))


def perverse_report(config: Configuration, cls: LocalSystemClass) -> FiltrationReport:
    """Factor table of the topological filtration of the pushed-forward character."""
    if tuple(cls.face_indices) != tuple(range(config.N)):
        raise DomainError("the class must live on the full column set")
    normal, _ = config.is_normal()
    levels = [[] for _ in range(config.rank + 1)]
    solution_facets = []
    for f in config.all_faces():  # sorted by (codim, indices)
        sols = pullback_solutions(config, f, cls)
        if normal and len(sols) > 1:
            raise GKZError("a normal configuration produced a torsion "
                           "face quotient")
        if f.codim == 1 and sols:
            solution_facets.append(f)
        levels[f.codim].extend(FactorLabel(f.codim, f.indices, c) for c in sols)
    factors = tuple(map(tuple, levels))

    simplicial = config.is_simplicial_family(solution_facets)
    notes = []
    if not simplicial:
        for i, level in enumerate(factors):
            bound = comb(config.rank, i)
            if len(level) > bound:
                notes.append(
                    f"codimension {i}: {len(level)} factors exceed the "
                    f"exterior-power count {bound} at the fixed point, "
                    f"flagging the canonical surjection as a non-isomorphism")
    flags = {
        "simplicial_solution_facets": simplicial,  # isomorphism hypothesis
        "normal": normal,
    }
    cert = CERT_ISO if simplicial else CERT_EPI
    return FiltrationReport(kind="perverse", matrix=config.matrix, parameter=cls,
                            factors=factors, flags=flags,
                            certification=cert, notes=tuple(notes))


# ---------------------------------------------------------------------------
# comparison of the two sides
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonReport:
    dmod: FiltrationReport
    perverse: FiltrationReport
    levels: tuple      # per-codimension dicts with counts and discrepancies
    matched: bool
    asserted: bool     # True when the match was certified and enforced
    notes: tuple = ()


def rh_compare(config: Configuration, gamma) -> ComparisonReport:
    """Compare factor labels of the two filtrations codimension by codimension.

    When the configuration is normal and the parameter is weak-nonresonant the
    label multisets must agree and a mismatch raises; otherwise the per-level
    discrepancies are reported without asserting.
    """
    gamma = tuple(Fraction(x) for x in gamma)
    d = dmod_report(config, gamma)
    full = tuple(range(config.N))
    p = perverse_report(config, class_of(config, full, gamma))

    levels = []
    matched = True
    for i in range(config.rank + 1):
        dkeys = sorted(lbl.key() for lbl in d.factors[i])
        pkeys = sorted(lbl.key() for lbl in p.factors[i])
        dc, pc = Counter(dkeys), Counter(pkeys)
        d_only = sorted((dc - pc).elements())
        p_only = sorted((pc - dc).elements())
        ok = not d_only and not p_only
        matched = matched and ok
        levels.append({"codim": i, "dmod_count": len(dkeys),
                       "perverse_count": len(pkeys), "match": ok,
                       "dmod_only": tuple(d_only), "perverse_only": tuple(p_only)})

    certified = d.flags["normal_and_weak_nonresonant"]
    if certified and not matched:
        raise GKZError("label multisets disagree on a normal configuration "
                       "with a weak-nonresonant parameter")
    notes = []
    if not matched and not d.flags["normal"]:
        notes.append("the topological side follows the saturated filtration, "
                     "which can carry extra rank-one factors from the "
                     "normalization that the unsaturated side omits")
    return ComparisonReport(dmod=d, perverse=p, levels=tuple(levels),
                            matched=matched, asserted=certified,
                            notes=tuple(notes))


# ---------------------------------------------------------------------------
# saturation-gap labels (advisory)
# ---------------------------------------------------------------------------

def gap_factor_candidates(config: Configuration) -> list:
    """Labels of the witnessed classes of the saturation gap, one per component.

    Advisory output: for a non-normal configuration these flag character
    classes that may appear as extra factors of the bottom filtration layer;
    the list is empty exactly when the configuration is normal.
    """
    labels = []
    for comp in qdeg_components(gap_family(), config):
        cls = _make_class(config, comp.face.indices, comp.base, require_span=False)
        labels.append(FactorLabel(comp.face.codim, comp.face.indices, cls))
    labels.sort(key=lambda l: (l.codim, l.face_indices, l.cls.canonical))
    return labels
