"""Resonance classification of a rational parameter against a configuration.

Facet values l_F(γ) drive everything: the nonresonance trio, the integer
translation lattice tests, and the four derived parameter sets

* res   = ℤA + ⋃ ℂF over facets (⟺ some facet value is an integer),
* sres  = negative multiples of a_A plus the witnessed degree classes of the
          quotient by the shifted module (decided exactly, by one question
          c ∈ ℕA + ℤF per face F and class c of γ + ℚF),
* dres  = degree classes killed in powers of the stratum ideals (positive
          side decided exactly through the stratum reduction, one question
          per face and class; resonant negatives on non-normal
          configurations are reported as ``false_up_to_bounds`` with
          ``"certified": false``),
* wres  = sres ∪ dres,

plus the facet-sign approximations SRes/DRes.  Each public call scales γ
once, to u = e·γ with e the lcm of its denominators, and reads every facet
value as the integer witness·u over scale·e (`_numerators`); only
`classify`'s output is built as `Fraction`s.  The questions are
`degrees.member_mod_face`'s.
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

    Fix a face F of codim > 0 and write S_c(k) for c + k·a_A ∈ ℕA + ℤF
    (`degrees.member_mod_face`), c a lattice point ≡ γ (mod ℚF); S_c depends
    on c modulo ℤF only.  Adding m·a_A maps the ℤF-classes of γ + ℚF onto
    those of γ + m·a_A + ℚF, so γ + m·a_A has a good module class at F iff
    S_c(m) holds and S_c(m − 1) fails for some c.  S_c is monotone, as
    a_A ∈ ℕA, and holds once every l_G(c + k·a_A), G ⊇ F, is at least
    k*·l_G(a_A) (the conductor step).  So some m ≥ 1 works iff S_c(0) fails
    for some c: one question per class, asked of x − a_A for the
    `class_candidates` x of γ + a_A.  A face where every l_G(γ) = t / d
    (`_numerators`) has t >= k*·l_G(a_A)·d passes the conductor step for
    every c, and is skipped.
    """
    nums = _numerators(config, gamma)
    k_star = dg.conductor_multiplier(config)
    low = {f.face.indices for f, t, d in nums if t < k_star * f.sum_value * d}
    a_A = config.column_sum()
    shifted = il.vadd(gamma, a_A)
    for face in config.all_faces()[1:]:  # the full face comes first
        if not any(f.face.indices in low for f in face.facets_over):
            continue
        for x in dg.class_candidates(config, face, shifted):
            if not dg.member_mod_face(config, face, il.vsub(x, a_A), k_star):
                return True
    return False


def _dres_certificate(config: Configuration, gamma):
    """(level, face, k) for a witnessed power-quotient class, or None; exact.

    A class candidate x of γ at F (`degrees.class_candidates`) is good at
    level i < codim F iff x ∈ ℕA + ℤF and x ∉ ℕG + ℤF for every face G ⊇ F
    of codim > i.  Once x ∈ ℕA + ℤF, x ∈ ℕG + ℤF iff x ∈ ℚG.  (⇒) F ⊆ G.
    (⇐) write x = Σ n_j·a_j + f with n_j >= 0 and f ∈ ℤF.  Every facet
    H ⊇ G has l_H(x) = l_H(f) = 0, so each a_j with n_j > 0 has l_H(a_j) = 0:
    it lies on every facet containing G, hence in G.  So x is good at level
    i iff x ∈ ℕA + ℤF and L(x) <= i < codim F, L(x) the largest codim of a
    face G ⊇ F (`FaceData.uppers`) with x ∈ ℚG, and the search over levels,
    then faces, then candidates first hits the least (L(x), face,
    candidate) with x ∈ ℕA + ℤF.  Each candidate is ranked once, after the
    sign step, and asked at most once: at once if L(x) = 0, else after
    every face.  The conductor step is taken only on normal input, where
    k* = 0, so no conductor search starts.

    That a good class decides dres is proven only on normal input (ROADMAP
    item 5), so `in_dres` certifies a miss only there or off the resonant
    set.  A hit lies in ℤA, where every l_F = witness / scale is an integer.
    """
    k_star = 0 if config.is_normal()[0] else None

    def ranked():
        later = []
        for face in config.all_faces()[1:]:
            for x in dg.class_candidates(config, face, gamma):
                if any(il.dot(f.witness, x) < 0 for f in face.facets_over):
                    continue  # the sign step: x ∉ ℕA + ℤF
                # L(x): `uppers` run by increasing codim, and x ∈ ℤA ⊆ ℚA
                level = next(g.codim for g in reversed(face.uppers) if g.in_span(x))
                if level == 0:
                    yield 0, face, x
                elif level < face.codim:
                    later.append((level, face, x))
        yield from sorted(later, key=lambda r: r[0])  # stable: face, candidate order
    for level, face, x in ranked():
        if dg.member_mod_face(config, face, x, k_star):
            total = sum(il.dot(f.witness, x) // f.scale for f in face.facets_over)
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
