"""Resonance classification of a rational parameter against a configuration.

Facet values l_F(γ) drive everything: the nonresonance trio, the integer
translation lattice tests, and the four derived parameter sets

* res   = ℤA + ⋃ ℂF over facets (⟺ some facet value is an integer),
* sres  = negative multiples of a_A plus the witnessed degree classes of the
          quotient by the shifted module (decided exactly),
* dres  = degree classes killed in powers of the stratum ideals (positive
          side decided exactly through the stratum reduction; resonant
          negatives on non-normal configurations are reported as
          ``false_up_to_bounds`` with ``"certified": false``),
* wres  = sres ∪ dres,

plus the facet-sign approximations SRes/DRes.  Each public call scales γ
once, to u = e·γ with e the lcm of its denominators, and reads every facet
value as the integer witness·u over scale·e (`_numerators`); only
`classify`'s output is built as `Fraction`s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import prod

from . import degrees as dg
from . import intlin as il
from .cones import Configuration
from .errors import DomainError, GKZError, check_budget

GRID_BUDGET = 100_000


@dataclass(frozen=True)
class TriState:
    """Verdict with metadata on how it was reached; ``false_up_to_bounds``
    marks a negative that is not proven (``"certified": false``)."""

    verdict: str  # "true" | "false" | "false_up_to_bounds"
    bounds: dict = field(default_factory=dict)

    @property
    def is_true(self) -> bool:
        return self.verdict == "true"


@dataclass(frozen=True)
class ResonanceProfile:
    facet_values: tuple  # ((facet indices, Fraction value), ...)
    is_nonresonant: bool
    is_weak: bool
    is_semi: bool
    resonant_facets: tuple  # indices of facets with integer value


def _require_in_span(config: Configuration, gamma) -> tuple[list, int]:
    """(u, e) of γ: e the lcm of its denominators and u = e·γ, an integer
    vector in QA iff γ is; raises DomainError unless γ lies in QA."""
    if len(gamma) != config.n:
        raise DomainError("parameter dimension does not match the configuration")
    u, e = il.scaled(gamma)
    if not config.in_span(u):
        raise DomainError("parameter lies outside the column span")
    return u, e


def _numerators(config: Configuration, gamma) -> list:
    """(facet, t, d) per facet, with l_F(γ) = t / d and d > 0, from one
    scaling of γ: l_F = witness / scale, so t = witness·u and d = scale·e.

    Every verdict reads these integers: l_F(γ) is an integer iff
    t % d == 0, and then it has the sign of t.
    """
    u, e = _require_in_span(config, gamma)
    return [(f, il.dot(f.witness, u), f.scale * e) for f in config.facets()]


def _integral_signs(nums) -> set:
    """The signs (−1, 0, 1) of the facet values that are integers."""
    return {(t > 0) - (t < 0) for _f, t, d in nums if t % d == 0}


def classify(config: Configuration, gamma) -> ResonanceProfile:
    nums = _numerators(config, gamma)
    integral = [(f.face.indices, t) for f, t, d in nums if t % d == 0]
    return ResonanceProfile(
        facet_values=tuple((f.face.indices, Fraction(t, d)) for f, t, d in nums),
        is_nonresonant=not integral,
        is_weak=all(t == 0 for _, t in integral),
        is_semi=all(t >= 0 for _, t in integral),
        resonant_facets=tuple(idx for idx, _ in integral),
    )


def in_res(config: Configuration, gamma) -> bool:
    return bool(_integral_signs(_numerators(config, gamma)))


def in_SRes(config: Configuration, gamma) -> bool:
    return -1 in _integral_signs(_numerators(config, gamma))


def in_DRes(config: Configuration, gamma) -> bool:
    return 1 in _integral_signs(_numerators(config, gamma))


def in_sres(config: Configuration, gamma) -> bool:
    """γ ∈ −m·a_A + (witnessed module degree classes) for some m ≥ 1; exact.

    Any witnessed class keeps some invariant facet value below the conductor
    bound b_F = (k* + 1)·l_F(a_A) (`degrees.facet_bounds`), and a_A has
    positive value on every facet, so only finitely many shifts can work per
    face.  With l_F(γ) = t / d (`_numerators`) and the integer
    s = l_F(a_A) >= 1 (`FacetFunctional.sum_value`), l_F(γ + m·a_A) < b_F
    iff m·s·d < b_F·d − t, so the largest such m is (b_F·d − t − 1) // (s·d).

    Per face F, the candidates at shift m are z(γ + m·a_A) + δ over the
    `FaceData.deltas` δ, where z is `FaceData.representative`:
    z(v) = B·section(free(coords(v)), 0), B the ℤA basis.  Each of coords,
    free and section(·, 0) is linear, so z is linear where it is defined.
    Since a_A ∈ ℤA, free(coords(a_A)) is integral, so free(coords(γ + m·a_A))
    is integral iff free(coords(γ)) is: z(γ + m·a_A) is None iff z(γ) is,
    and otherwise z(γ + m·a_A) = z(γ) + m·z(a_A).  So the face's
    `class_candidates` of γ, each shifted by m·z(a_A), are the same vectors
    in the same order at every shift.
    """
    nums = _numerators(config, gamma)
    top = dg.conductor_multiplier(config) + 1
    shifts = {f.face.indices: (top * f.sum_value * d - t - 1) // (f.sum_value * d)
              for f, t, d in nums}
    family = dg.module_family()
    for face in config.all_faces():
        if face.codim == 0:
            continue
        m_max = max([shifts[f.face.indices] for f in face.facets_over], default=0)
        if m_max <= 0:
            continue
        candidates = dg.class_candidates(config, face, gamma)
        if not candidates:
            continue
        z_a = face.column_sum_representative
        for m in range(1, m_max + 1):
            shift = il.vscale(m, z_a)
            if dg.first_passing(family, config, face,
                                (il.vadd(c, shift) for c in candidates)) is not None:
                return True
    return False


def _dres_certificate(config: Configuration, gamma):
    """(level, face, k) for a witnessed power-quotient class, or None; exact.

    A class is witnessed at level i only along faces of codimension above i,
    and there it survives into the k-th power precisely for k above the
    invariant facet-value sum.  The search is exhaustive over the finitely
    many (level, face) pairs, but that a good class decides dres is proven
    only on normal input (ROADMAP item 5), so `in_dres` certifies a miss
    only there or off the resonant set.  The candidates of a face do not
    depend on the level, so each face's are built once, on first use.  A
    hit lies in ℤA, where every l_F = witness / scale is an integer.
    """
    candidates: dict = {}
    for level in range(config.rank):
        fam = dg.ideal_family(level)
        for face in config.all_faces():
            if face.codim <= level:
                continue
            if face.indices not in candidates:
                candidates[face.indices] = dg.class_candidates(config, face, gamma)
            hit = dg.first_passing(fam, config, face, candidates[face.indices])
            if hit is not None:
                total = sum(il.dot(f.witness, hit) // f.scale for f in face.facets_over)
                return level, face, max(2, total + 1)
    return None


def in_dres(config: Configuration, gamma) -> TriState:
    signs = _integral_signs(_numerators(config, gamma))
    cert = _dres_certificate(config, gamma)
    normal, _ = config.is_normal()
    if normal:
        # on normal input the facet-sign test (DRes) must agree with the reduction
        if (1 in signs) != (cert is not None):
            raise GKZError("facet test disagrees with the stratum reduction "
                           "on a normal configuration")
    if cert is not None:
        level, face, k_wit = cert
        return TriState("true", {"level": level, "face": list(face.indices),
                                 "power": k_wit})
    if normal:
        return TriState("false", {"certified": True, "method": "stratum reduction"})
    if not signs:
        return TriState("false", {"certified": True, "method": "nonresonant"})
    # no proof yet that the stratum search is complete on non-normal input
    return TriState("false_up_to_bounds",
                    {"certified": False, "method": "stratum reduction"})


def wres_from(sres: bool, dres: TriState | None) -> TriState:
    """wres = sres ∪ dres from the two verdicts; `dres` is read only when
    `sres` is false."""
    if sres:
        return TriState("true", {"member_of": "sres"})
    if dres.is_true:
        return TriState("true", dict(dres.bounds, member_of="dres"))
    return dres


def in_wres(config: Configuration, gamma) -> TriState:
    sres = in_sres(config, gamma)
    return wres_from(sres, None if sres else in_dres(config, gamma))


def _word(verdict: bool) -> str:
    return "true" if verdict else "false"


# set name -> the verdict string of γ; each entry looks its test up by name
# when called, so a wrapper put on the module's function is seen here too
SET_VERDICTS = {
    "res": lambda config, gamma: _word(in_res(config, gamma)),
    "sres": lambda config, gamma: _word(in_sres(config, gamma)),
    "dres": lambda config, gamma: in_dres(config, gamma).verdict,
    "wres": lambda config, gamma: in_wres(config, gamma).verdict,
    "SRes": lambda config, gamma: _word(in_SRes(config, gamma)),
    "DRes": lambda config, gamma: _word(in_DRes(config, gamma)),
}
SET_NAMES = tuple(SET_VERDICTS)


def region_scan(config: Configuration, set_name: str, box, step) -> list[dict]:
    """Verdicts of a named parameter set over a rational grid.

    ``box`` is one (lo, hi) pair per ambient coordinate, and the axis of
    (lo, hi) holds lo + k·step for 0 <= k <= (hi − lo)/step; points outside
    the column span get the verdict "outside".  The grid's points are
    counted before any is built, and may not exceed GRID_BUDGET.
    """
    if set_name not in SET_NAMES:
        raise DomainError(f"unknown set {set_name!r}; choose from {SET_NAMES}")
    if len(box) != config.n:
        raise DomainError("scan box dimension does not match the configuration")
    step = Fraction(step)
    if step <= 0:
        raise DomainError("scan step must be positive")
    box = [(Fraction(lo), Fraction(hi)) for lo, hi in box]
    sizes = [max(0, (hi - lo) // step + 1) for lo, hi in box]
    check_budget("region scan grid", "resonance.region_scan", prod(sizes), GRID_BUDGET)
    axes = [[lo + k * step for k in range(size)] for (lo, _hi), size in zip(box, sizes)]
    out = []
    for gamma in product(*axes):
        if not config.in_span(gamma):
            out.append({"gamma": gamma, "verdict": "outside"})
            continue
        verdict = SET_VERDICTS[set_name](config, gamma)
        out.append({"gamma": gamma, "verdict": verdict})
    return out
