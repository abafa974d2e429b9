from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gkzfactors import bruteforce as bf
from gkzfactors.cones import Configuration
from gkzfactors import factors as fa
from gkzfactors.errors import DomainError

A23 = Configuration([[2, 3]])
A46 = Configuration([[1, 0, 1], [0, 2, 1]])
A54 = Configuration([[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, -1]])
AHAT2 = Configuration([[0, 0], [2, 1]])  # doubled ray plus its primitive


def test_class_of_order_two():
    f2 = A46.face((1,))
    c = fa.class_of(A46, f2, (0, 1))
    assert c.order == 2 and not c.is_trivial
    assert c.canonical == (Fraction(0), Fraction(1))


def test_class_of_trivial():
    f2 = A46.face((1,))
    assert fa.class_of(A46, f2, (0, 2)).is_trivial
    assert fa.class_of(A46, f2, (0, 0)).is_trivial
    # equality is modulo the face lattice
    assert fa.class_of(A46, f2, (0, 1)) == fa.class_of(A46, f2, (0, 3))
    assert fa.class_of(A46, f2, (0, 1)) != fa.class_of(A46, f2, (0, 2))


def test_class_of_domain_error():
    with pytest.raises(DomainError):
        fa.class_of(A46, A46.face((1,)), (1, 0))


small_configs = st.integers(1, 3).flatmap(
    lambda n: st.integers(1, 4).flatmap(
        lambda N: st.lists(
            st.lists(st.integers(-3, 3), min_size=N, max_size=N),
            min_size=n, max_size=n)))


@settings(max_examples=60, deadline=None)
@given(small_configs, st.data())
def test_class_order_and_canonical_random(rows, data):
    # rep = Σ c_j a_j over a face F with denominators <= 4, so 12·rep ∈ ZF
    assume(any(any(r) for r in rows))
    config = Configuration(rows)
    face = data.draw(st.sampled_from(config.all_faces()))
    cols = [config.cols[j] for j in face.indices]
    coeffs = data.draw(st.lists(st.fractions(-2, 2, max_denominator=4),
                                min_size=len(cols), max_size=len(cols)))
    shift = data.draw(st.lists(st.integers(-3, 3), min_size=len(cols), max_size=len(cols)))

    def combo(cs):
        return tuple(sum((c * a[i] for c, a in zip(cs, cols)), Fraction(0))
                     for i in range(config.n))
    rep = combo(coeffs)
    basis = bf._bf_lattice_basis(cols, config.n) if cols else []
    cls = fa.class_of(config, face, rep)
    assert cls.order == next(k for k in range(1, 13)
                             if bf._bf_in_lattice(basis, tuple(k * x for x in rep)))
    moved = combo([c + m for c, m in zip(coeffs, shift)])  # rep + a vector of ZF
    assert fa.class_of(config, face, moved).canonical == cls.canonical
    assert bf._bf_in_lattice(basis, tuple(a - b for a, b in zip(cls.canonical, rep)))


def test_pullback_solutions_torsion_pair():
    sols = fa.pullback_solutions(AHAT2, (0,), fa.trivial_class(AHAT2))
    assert sorted(s.order for s in sols) == [1, 2]


def test_pullback_solutions_torsion_free():
    sols = fa.pullback_solutions(A46, A46.face((0,)), fa.trivial_class(A46))
    assert len(sols) == 1 and sols[0].is_trivial


def test_pullback_solutions_empty():
    half = fa.class_of(A46, tuple(range(3)), (Fraction(1, 2), 0))
    assert fa.pullback_solutions(A46, A46.face((1,)), half) == []


def test_pullback_requires_full_support_class():
    small = fa.class_of(A46, (0,), (1, 0))
    with pytest.raises(DomainError):
        fa.pullback_solutions(A46, A46.face((0,)), small)


def test_dmod_report_nonnormal_wedge():
    r = fa.dmod_report(A46, (0, 0))
    assert [l.face_indices for l in r.factors[1]] == [(0,), (1,)]
    assert all(l.cls.is_trivial for l in r.factors[1])
    assert r.certification == "isomorphism"
    assert r.flags["simplicial_resonant_facets"] is True
    assert r.flags["normal_and_weak_nonresonant"] is False


def test_dmod_report_nonresonant():
    r = fa.dmod_report(A23, (Fraction(1, 2),))
    assert len(r.factors[0]) == 1 and r.factors[0][0].cls.order == 2
    assert r.factors[1] == ()
    assert any("irreducible" in n for n in r.notes)
    assert r.certification == "semisimple-certified" or not r.flags["normal"]


def test_dmod_report_folded_cube():
    r = fa.dmod_report(A54, (0, 0, 0))
    assert r.flags["simplicial_resonant_facets"] is False
    assert r.certification == "epimorphism-only"
    assert len(r.factors[2]) == 4
    assert all(l.cls.is_trivial for l in r.factors[2])


def test_dmod_level_zero_is_full_face():
    for config, gamma in ((A23, (0,)), (A46, (0, 0)), (A54, (0, 0, 0))):
        r = fa.dmod_report(config, gamma)
        assert len(r.factors[0]) == 1
        assert r.factors[0][0].face_indices == tuple(range(config.N))


def test_perverse_report_nonnormal_wedge():
    p = fa.perverse_report(A46, fa.trivial_class(A46))
    got = sorted((l.face_indices, l.cls.order) for l in p.factors[1])
    assert got == [((0,), 1), ((1,), 1), ((1,), 2)]


def test_perverse_report_folded_cube_numerology():
    p = fa.perverse_report(A54, fa.trivial_class(A54))
    assert len(p.factors[2]) == 4
    assert p.flags["simplicial_solution_facets"] is False
    assert any("codimension 2: 4" in n and "3" in n for n in p.notes)


def test_perverse_report_affine_line():
    config = Configuration([[1]])
    p = fa.perverse_report(config, fa.trivial_class(config))
    assert len(p.factors[1]) == 1 and p.factors[1][0].face_indices == ()


def test_perverse_multiplicities_bounded_under_normality():
    p = fa.perverse_report(A54, fa.trivial_class(A54))
    for level in p.factors:
        faces = [l.face_indices for l in level]
        assert len(faces) == len(set(faces))  # torsion-free quotients


def test_rh_compare_discrepancy():
    cmp = fa.rh_compare(A46, (0, 0))
    assert cmp.matched is False and cmp.asserted is False
    assert cmp.levels[1]["dmod_count"] == 2
    assert cmp.levels[1]["perverse_count"] == 3
    assert cmp.notes  # saturated-filtration annotation


def test_rh_compare_match_normal():
    cmp = fa.rh_compare(A54, (0, 0, 0))
    assert cmp.matched and cmp.asserted
    assert [l["dmod_count"] for l in cmp.levels] == [1, 4, 4, 1]


def test_rh_compare_match_nonresonant():
    cmp = fa.rh_compare(A23, (Fraction(1, 2),))
    assert cmp.matched
    assert cmp.levels[0]["dmod_count"] == 1
    assert cmp.levels[1]["dmod_count"] == 0


def test_gap_factor_candidates():
    g = fa.gap_factor_candidates(A46)
    assert len(g) == 1
    assert g[0].face_indices == (1,) and g[0].cls.order == 2
    g = fa.gap_factor_candidates(A23)
    assert len(g) == 1
    assert g[0].face_indices == () and g[0].cls.order == "infinite"
    assert g[0].cls.canonical == (Fraction(1),)
    assert fa.gap_factor_candidates(A54) == []


def test_pullback_count_matches_torsion_order():
    # whenever nonempty, the solution count is the torsion order of ZA/ZF
    from gkzfactors import intlin as il
    for config in (A46, A54, AHAT2):
        for face in config.all_faces():
            sols = fa.pullback_solutions(config, face, fa.trivial_class(config))
            coords = [tuple(int(c) for c in config.lattice_coords(config.cols[j]))
                      for j in face.indices]
            q = il.quotient(config.rank, coords)
            assert len(sols) == q.torsion_order()
