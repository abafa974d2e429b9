import io
import json
import random
from fractions import Fraction
from itertools import combinations, product
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gkzfactors.cones import Configuration
from gkzfactors import cli, cones
from gkzfactors import resonance as rs
from gkzfactors import degrees as dg
from gkzfactors import intlin as il
from gkzfactors import semigroup as sg
from gkzfactors.errors import ComputationLimitError, DomainError, check_budget
from reference_closure import reference_closure
from reference_passes import reference_passes_exact

A23 = Configuration([[2, 3]])
A46 = Configuration([[1, 0, 1], [0, 2, 1]])
AW = Configuration([[1, 1, 0], [0, 1, 2]])
A54 = Configuration([[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, -1]])


def good_class_exists(family, config, face, gamma):
    """Does some b ≡ γ (mod ℚF) satisfy b + ℕF ⊆ D?"""
    candidates = dg.class_candidates(config, face, gamma)
    return dg.first_passing(family, config, face, candidates) is not None


def comps(family, config):
    return sorted((c.base, c.face.indices)
                  for c in dg.qdeg_components(family, config))


def test_module_components_coprime_pair():
    # degrees of NA not reachable after adding the column sum (= 5)
    assert comps(dg.module_family(), A23) == \
        [((0,), ()), ((2,), ()), ((3,), ()), ((4,), ()), ((6,), ())]


def test_gap_components():
    assert comps(dg.gap_family(), A23) == [((1,), ())]
    assert comps(dg.gap_family(), A46) == [((0, 1), (1,))]
    assert comps(dg.gap_family(), AW) == [((0, 1), (2,))]
    assert comps(dg.gap_family(), A54) == []


def test_module_components_wedge():
    # three horizontal lines (y = 0,1,2) and three vertical lines (x = 0,1,2)
    assert comps(dg.module_family(), AW) == [
        ((0, 0), (0,)), ((0, 0), (2,)), ((0, 2), (0,)),
        ((1, 0), (2,)), ((1, 1), (0,)), ((2, 0), (2,))]


def test_module_components_nonnormal_wedge():
    assert comps(dg.module_family(), A46) == [
        ((0, 0), (0,)), ((0, 0), (1,)), ((0, 2), (0,)),
        ((1, 0), (1,)), ((1, 1), (0,)), ((2, 0), (1,))]


def _agreement_inputs():
    """The ten curves [[1,1,1,1],[0,a,b,c]], c <= 5, the fixture matrices and
    the valid ones of 60 seeded draws of 1-3 rows, at most 5 columns, entries
    in [-3, 3]."""
    yield from ([[1, 1, 1, 1], [0, a, b, c]] for a, b, c in combinations(range(1, 6), 3))
    yield from (json.loads(path.read_text())["matrix"] for path in cli._fixture_files())
    rng = random.Random(14)
    for _ in range(60):
        rows, cols = rng.randint(1, 3), rng.randint(1, 5)
        yield [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]


def test_component_closure_agrees_with_search():
    # qdeg_components decides classes by closure key; the per-γ test asks
    # the membership search, so each reported base must pass it as well
    checked = 0
    for matrix in _agreement_inputs():
        try:
            config = Configuration(matrix)
        except DomainError:  # a zero matrix
            continue
        for family in (dg.module_family(), dg.gap_family()):
            try:
                found = dg.qdeg_components(family, config)
            except ComputationLimitError:
                continue
            for comp in found:
                assert dg.first_passing(family, config, comp.face, [comp.base]) == comp.base, \
                    (matrix, family.kind, comp)
                checked += 1
    assert checked > 400


def test_good_class_module_family():
    # x = 1 is a gap degree of the coprime pair at the apex face
    face = A23.face(())
    assert good_class_exists(dg.gap_family(), A23, face, (1,))
    assert not good_class_exists(dg.gap_family(), A23, face, (2,))
    # classes shift by the face lattice only: along the doubled column the
    # translation group is 2Z, so parity matters
    f3 = A46.face((1,))
    assert good_class_exists(dg.module_family(), A46, f3, (0, 0))
    assert good_class_exists(dg.module_family(), A46, f3, (2, 5))
    assert not good_class_exists(dg.module_family(), A46, f3, (3, 0))


def test_ideal_family_levels():
    fam0 = dg.ideal_family(0)
    apex = A23.face(())
    # level-0 boundary ideal of the coprime pair: positive degrees of NA
    assert good_class_exists(fam0, A23, apex, (2,))
    assert not good_class_exists(fam0, A23, apex, (0,))


def test_family_validation():
    with pytest.raises(DomainError):
        dg.ideal_family(-1)
    with pytest.raises(DomainError):
        dg.DegreeFamily("ideal_power_quotient", level=0)
    with pytest.raises(DomainError):
        dg.qdeg_components(dg.ideal_family(0), A23)


def test_class_representative_modulo_face_span():
    f3 = A46.face((1,))
    r1 = f3.representative((0, 0))
    r2 = f3.representative((0, 7))  # same class modulo QF
    assert r1 == r2
    r3 = f3.representative((1, 0))  # different free coordinate
    assert r1 != r3
    # the doubled column leaves a parity choice inside the span: two
    # ZF-classes per span class
    assert len(dg.class_candidates(A46, f3, (0, 0))) == 2
    assert len(dg.class_candidates(A46, f3, (Fraction(1, 2), 0))) == 0


def test_conductor_multiplier_positive():
    for config in (A23, A46, AW, A54):
        assert dg.conductor_multiplier(config) >= 0
        for idx, bound in dg.facet_bounds(config).items():
            assert bound > 0


def test_budget_errors_name_their_stage(monkeypatch):
    # the one budget rule: a count at the limit passes, one above raises
    check_budget("grid", "stage.name", 7, 7)
    with pytest.raises(ComputationLimitError) as info:
        check_budget("grid", "stage.name", 8, 7)
    assert (info.value.stage, info.value.used, info.value.limit) == ("stage.name", 8, 7)
    assert str(info.value) == "grid exceeded budget (stage stage.name, used 8, limit 7)"
    # [[2, 3]] has 5 module components; a budget of 10 stops the enumeration
    # after 11 facet-value tuples, one of 3 stops the first membership search
    for module, name, budget, stage, used in (
            (dg, "QDEG_BUDGET", 10, "degrees.qdeg_components", 11),
            (sg, "DEFAULT_BUDGET", 3, "semigroup.member", 4)):
        with monkeypatch.context() as m:
            m.setattr(module, name, budget)
            with pytest.raises(ComputationLimitError) as info:
                dg.qdeg_components(dg.module_family(), Configuration([[2, 3]]))
        assert (info.value.stage, info.value.used, info.value.limit) == (stage, used, budget)
    # 1 enters NA only at its second multiple, beyond a cap that allows one
    monkeypatch.setattr(dg, "SEARCH_CAP", 2)
    with pytest.raises(ComputationLimitError) as info:
        dg.conductor_multiplier(Configuration([[2, 3]]))
    assert (info.value.stage, info.value.used, info.value.limit) == \
        ("degrees.conductor_multiplier", 1, 1)


@st.composite
def walk_inputs(draw):
    d = draw(st.integers(1, 3))
    k = draw(st.integers(d, 3))
    M = draw(st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d),
                      min_size=k, max_size=k))
    assume(il.rational_rank(il.freeze(M)) == d)
    return M, draw(st.lists(st.integers(0, 12), min_size=k, max_size=k))


@settings(max_examples=60, deadline=None)
@given(walk_inputs())
def test_box_walk_matches_solvable_tuples(data):
    M, bounds = data
    k, d = len(M), len(M[0])

    def integral(v):  # M has full column rank: a rational solution is the only one
        x = il.rational_solve(il.freeze(M), v)
        return x is not None and all(c.denominator == 1 for c in x)

    solvable = [v for v in product(*(range(b) for b in bounds)) if integral(v)]
    # carrying the identity yields the point's coordinates c after v = M.c
    points = list(dg.box_walk(M, bounds, il.identity(d)))
    assert [p[:k] for p in points] == solvable
    assert all(il.matvec(il.freeze(M), p[k:]) == p[:k] for p in points)


def _count_member_calls(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return sg.member(*args, **kwargs)
    for module in (cones, dg):
        monkeypatch.setattr(module, "member", counted)
    return calls


def test_conductor_failure_is_cached(monkeypatch):
    config = Configuration([[2, 3]])
    monkeypatch.setattr(sg, "DEFAULT_BUDGET", 3)
    with pytest.raises(ComputationLimitError) as first:
        dg.conductor_multiplier(config)
    calls = _count_member_calls(monkeypatch)
    with pytest.raises(ComputationLimitError) as again:
        dg.conductor_multiplier(config)
    assert calls == []
    assert (again.value.stage, again.value.used, again.value.limit) == \
        (first.value.stage, first.value.used, first.value.limit) == ("semigroup.member", 4, 3)


def test_conductor_of_normal_configuration_is_zero(monkeypatch):
    config = Configuration(A54.matrix)
    assert config.is_normal()[0]
    calls = _count_member_calls(monkeypatch)
    assert dg.conductor_multiplier(config) == 0
    assert calls == []


def _old_conductor_search(config):
    """`degrees._conductor_search` as it was: every r < m_h re-tested at each k."""
    a_A = config.column_sum()
    base = config.face_data(()).query(config.cols)
    k_star = 0
    for h in config.saturation_hilbert_basis():
        m_h = next((m for m in range(1, dg.SEARCH_CAP) if sg.member(base, il.vscale(m, h))), None)
        if m_h is None:
            raise ComputationLimitError("no multiple", stage="degrees.conductor_multiplier",
                                        used=dg.SEARCH_CAP - 1, limit=dg.SEARCH_CAP - 1)
        k_h = next((k for k in range(dg.SEARCH_CAP)
                    if all(sg.member(base, il.vadd(il.vscale(k, a_A), il.vscale(r, h)))
                           for r in range(m_h))), None)
        if k_h is None:
            raise ComputationLimitError("cap", stage="degrees.conductor_multiplier",
                                        used=dg.SEARCH_CAP, limit=dg.SEARCH_CAP)
        k_star += k_h
    return k_star


def _outcome(fn, config):
    try:
        return fn(config)
    except ComputationLimitError as exc:
        return (exc.stage, exc.used, exc.limit)


def test_upward_conductor_scan_matches_old_loop():
    # the upward scan asks a subset of the old loop's (k, r) pairs, so where
    # the old loop answers the scan gives the same k*
    inputs = list(_agreement_inputs()) + [[[0, -1, -2, -2], [1, 2, 0, 3], [-2, 3, 3, 3]]]
    answered = 0
    for matrix in inputs:
        try:
            config = Configuration(matrix)
        except DomainError:
            continue
        old = _outcome(_old_conductor_search, config)
        new = _outcome(dg._conductor_search, config)
        if isinstance(old, int):
            assert new == old, matrix
            answered += 1
        else:
            assert new == old or isinstance(new, int), matrix
    assert answered > 50
    assert new == 32


def test_packed_closure_matches_reference():
    # every point of every face's box, in the box both families walk
    # (facet_bounds), in the box of a_A alone and in a box of width 2, which
    # columns with larger facet values leave in one step; the torsion faces
    # of A46 and the non-pointed draws are among the inputs
    checked = torsion = 0
    for matrix in _agreement_inputs():
        try:
            config = Configuration(matrix)
            bounds = dg.facet_bounds(config)
        except (DomainError, ComputationLimitError):
            continue
        a_A = config.column_sum()
        for box in (bounds, {f.face.indices: int(f.value(a_A)) for f in config.facets()},
                    dict.fromkeys(bounds, 2)):
            for face in config.all_faces():
                top = [box[f.face.indices] for f in face.facets_over]
                if prod(top) > dg.QDEG_BUDGET:
                    continue
                table = dg._ClosureTable(config, face, box)
                ref = reference_closure(config, face, box)
                tors = list(product(*(range(d) for d in table.quot.torsion)))
                for v in product(*(range(t) for t in top)):
                    for t in tors:
                        assert ((v, t) in ref) == (table.key(v, t) in table.keys), \
                            (matrix, face, v, t)
                assert len(table.keys) == len(ref)
                checked += 1
                torsion += table.quot.torsion_order() > 1
    assert checked > 600 and torsion > 150


def _check_torsion_index(quot, vectors):
    tors = list(product(*(range(d) for d in quot.torsion)))
    assert sorted(quot.index(t) for t in tors) == list(range(quot.torsion_order()))
    for u in vectors:
        t = quot.index(quot.project(u)[1])
        for v in vectors:
            assert quot.add(t, quot.project(v)[1]) == quot.index(quot.project(il.vadd(u, v))[1])


def test_torsion_index_is_a_bijection_that_adds():
    # LatticeQuotient.index maps the torsion parts onto range(torsion_order()),
    # and add(index(u), v) is the index of u + v; on random quotients and on
    # every face quotient with torsion among the agreement inputs
    rng = random.Random(1818)
    twisted = 0
    for _ in range(300):
        n, m = rng.randint(1, 4), rng.randint(0, 4)
        quot = il.quotient(n, [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(m)])
        _check_torsion_index(quot, [tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(6)])
        twisted += quot.torsion_order() > 1
    faces = 0
    for matrix in _agreement_inputs():
        try:
            config = Configuration(matrix)
        except DomainError:
            continue
        vectors = list(config.cols) + [tuple(rng.randint(-9, 9) for _ in range(config.n))
                                       for _ in range(4)]
        for face in config.all_faces():
            if face.lattice_quotient.torsion:
                _check_torsion_index(face.lattice_quotient, vectors)
                faces += 1
    assert twisted > 100 and faces > 50, (twisted, faces)


def test_one_smith_form_per_face_lattice(monkeypatch):
    # once a face has its lattice_quotient, its closure tables and its
    # membership queries compute no further quotient
    config = Configuration(A46.matrix)
    bounds = dg.facet_bounds(config)
    gen_sets = (config.cols, tuple(config.saturation_hilbert_basis()))
    for face in config.all_faces():
        face.lattice_quotient
    calls = []
    monkeypatch.setattr(il, "quotient", lambda *args: calls.append(args))
    for face in config.all_faces():
        dg._ClosureTable(config, face, bounds)
        for gens in gen_sets:
            assert face.query(gens).quotient is face.lattice_quotient
    assert calls == []


def _every_face_components(family, config):
    """`qdeg_components`' loop with no face skipped, the full face included,
    and each class's key, torsion index and cover test recomputed from b
    rather than carried through the walk."""
    gap = family.kind == "gap"
    if gap and config.is_normal()[0]:
        return []
    bounds, n = dg.facet_bounds(config), config.n
    B = il.from_columns(config.lattice_basis, dim=n)
    k_star, a_A = dg.conductor_multiplier(config), config.column_sum()
    found = []
    for face in config.all_faces():
        over, mod_zf, k = face.facets_over, face.lattice_quotient, len(face.facets_over)
        table = dg._ClosureTable(config, face, bounds)
        guard, keys = table.guard, table.keys
        covers = {}
        for comp in found:
            if set(face.indices) < set(comp.face.indices):
                ann = comp.face.annihilator
                covers.setdefault(ann, set()).add(tuple(il.dot(w, comp.base) for w in ann))
        a_vals = [il.dot(f.witness, a_A) // f.scale for f in over]
        a_ge, skip_ge = table.at_least(a_vals), table.at_least([k_star * a for a in a_vals])
        G = il.matmul(B, il.from_columns(face.class_quotient.section_basis, dim=config.rank))
        values = [[il.dot(f.witness, g) // f.scale for f in over] for g in il.columns(G)]
        M = [[v[i] for v in values] for i in range(k)]
        for p in dg.box_walk(M, table.top, il.identity(len(values))):
            b = il.matvec(G, p[k:])
            if any(tuple(il.dot(w, b) for w in ann) in vals for ann, vals in covers.items()):
                continue
            at = table.pack(p[:k]) + table.bias
            if gap and (at + skip_ge) & guard == guard:
                continue
            for d in face.deltas:
                x = il.vadd(b, d)
                key = at + mod_zf.index(mod_zf.project(x)[1])
                less = (at - table.pack(a_vals)
                        + mod_zf.index(mod_zf.project(il.vsub(x, a_A))[1]))
                if gap:
                    ok = key not in keys
                else:
                    ok = key in keys and not ((at + a_ge) & guard == guard and less in keys)
                if ok:
                    found.append(dg.QDegComponent(
                        base=dg._witness_base(family, config, face, x), face=face))
                    break
    return found


def test_full_face_is_skipped_without_changing_components(monkeypatch):
    # at the full face ℤF = ℤA, so no class passes: qdeg_components builds no
    # closure table there, and both families match the loop over every face
    built = []

    class Recording(dg._ClosureTable):
        def __init__(self, config, face, bounds):
            built.append(face.codim)
            super().__init__(config, face, bounds)
    compared = {"module": 0, "gap": 0}
    for matrix in _agreement_inputs():
        try:
            config = Configuration(matrix)
        except DomainError:  # a zero matrix
            continue
        for family in (dg.module_family(), dg.gap_family()):
            with monkeypatch.context() as patch:
                patch.setattr(dg, "_ClosureTable", Recording)
                try:
                    got = dg.qdeg_components(family, config)
                except ComputationLimitError:
                    continue
            want = _every_face_components(family, config)
            assert [(c.base, c.face.indices) for c in got] == \
                [(c.base, c.face.indices) for c in want], (matrix, family.kind)
            compared[family.kind] += bool(want)
    assert built and 0 not in built
    assert compared["module"] > 40 and compared["gap"] > 12, compared


def _searched_hole(config):
    """`Configuration.is_normal`'s hole with every Hilbert generator searched."""
    base = config.face_data(()).query(config.cols)
    return next((g for g in sorted(config.saturation_hilbert_basis())
                 if not sg.member(base, g)), None)


def _searched_conductor(config):
    """`degrees._conductor_search` with every Hilbert generator searched."""
    a_A = config.column_sum()
    base = config.face_data(()).query(config.cols)
    k_star = 0
    for h in config.saturation_hilbert_basis():
        m_h = next((m for m in range(1, dg.SEARCH_CAP) if sg.member(base, il.vscale(m, h))), None)
        if m_h is None:
            raise ComputationLimitError("no multiple", stage="degrees.conductor_multiplier",
                                        used=dg.SEARCH_CAP - 1, limit=dg.SEARCH_CAP - 1)
        k_h = 0
        for r in range(m_h):
            while not sg.member(base, il.vadd(il.vscale(k_h, a_A), il.vscale(r, h))):
                k_h += 1
                if k_h == dg.SEARCH_CAP:
                    raise ComputationLimitError("cap", stage="degrees.conductor_multiplier",
                                                used=dg.SEARCH_CAP, limit=dg.SEARCH_CAP)
        k_star += k_h
    return k_star


def test_column_generators_are_not_searched(monkeypatch):
    # a Hilbert generator that is a column lies in NA: where every generator
    # is one, normality and the conductor search nothing
    config = Configuration([[1, 1, 1], [0, 1, 2]])
    assert set(config.saturation_hilbert_basis()) <= set(config.cols)
    calls = _count_member_calls(monkeypatch)
    assert config.is_normal() == (True, None) and dg.conductor_multiplier(config) == 0
    assert calls == []
    monkeypatch.undo()
    # elsewhere the first hole and k* are those of the search over every
    # generator, which asks more
    inputs = list(_agreement_inputs()) + [[[0, -1, -2, -2], [1, 2, 0, 3], [-2, 3, 3, 3]]]
    holes, fewer, search = 0, {"hole": 0, "k*": 0}, sg.member
    for matrix in inputs:
        try:
            config = Configuration(matrix)
        except DomainError:
            continue
        calls = _count_member_calls(monkeypatch)
        verdict, hole = config.is_normal()
        got = {"hole": len(calls)}
        k_star = _outcome(dg._conductor_search, config)
        got["k*"] = len(calls) - got["hole"]
        monkeypatch.undo()
        asked = []
        monkeypatch.setattr(sg, "member", lambda *args: asked.append(args) or search(*args))
        want_hole = _searched_hole(config)
        want = {"hole": len(asked)}
        want_k = _outcome(_searched_conductor, config)
        want["k*"] = len(asked) - want["hole"]
        monkeypatch.undo()
        assert (verdict, hole, k_star) == (want_hole is None, want_hole, want_k), matrix
        holes += hole is not None
        for part in fewer:
            assert got[part] <= want[part], (matrix, part)
            fewer[part] += got[part] < want[part]
    assert holes > 12 and min(fewer.values()) > 30, (holes, fewer)


def _step_draws(seed, count):
    """Seeded matrices of 1-3 rows, at most 5 columns and entries in [-3, 3];
    every third gains a row v.A (n > rank) put anywhere, every third a
    column's negative (a line in the cone)."""
    rng = random.Random(seed)
    for i in range(count):
        rows, cols = rng.randint(1, 3), rng.randint(1, 5)
        m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        if i % 3 == 1:
            v = [rng.randint(-2, 2) for _ in m]
            m.insert(rng.randint(0, rows), [sum(c * r[j] for c, r in zip(v, m))
                                            for j in range(cols)])
        elif i % 3 == 2:
            j = rng.randrange(cols)
            for r in m:
                r.append(-r[j])
        yield m


def _decided(fn, *args):
    try:
        return fn(*args)
    except ComputationLimitError as exc:
        return (exc.stage, exc.used, exc.limit)


def _targets(config, rng):
    """(face, x): the class candidates of two seeded γ at every face,
    shifted by m·z(a_A) for m = 0 and three m up to 30."""
    for _ in range(2):
        den = rng.choice([1, 1, 2])
        coeffs = [Fraction(rng.randint(-4, 4), den) for _ in config.cols]
        gamma = tuple(sum(c * a[i] for c, a in zip(coeffs, config.cols))
                      for i in range(config.n))
        for face in config.all_faces():
            z_a = face.column_sum_representative
            for m in sorted({0, *rng.sample(range(1, 31), 3)}):
                for c in dg.class_candidates(config, face, gamma):
                    yield face, il.vadd(c, il.vscale(m, z_a))


def test_passes_exact_matches_search(monkeypatch):
    # every family and level: the same verdict as the search-only test, and
    # a search for exactly the targets over the columns that the sign and
    # conductor steps leave open.  The conductor is found under a budget of
    # 20 000 states and the targets are asked under one of 2 000; a target
    # that the old test cannot decide within it may now be decided.
    searches = []

    def counted(*args, **kwargs):
        searches.append(args)
        return sg.member(*args, **kwargs)
    monkeypatch.setattr(dg, "member", counted)
    rng = random.Random(2525)
    decided = dict.fromkeys(["sign", "conductor", "search", "old limit"], 0)
    kinds = dict.fromkeys(["normal", "non-normal", "non-pointed", "n > rank"], 0)
    compared: dict = {}
    for matrix in _step_draws(25, 75):
        with monkeypatch.context() as patch:
            patch.setattr(sg, "DEFAULT_BUDGET", 20_000)
            try:
                config = Configuration(matrix)
                normal = config.is_normal()[0]
            except (DomainError, ComputationLimitError):
                continue
            k_star = _decided(dg.conductor_multiplier, config)
        kinds["normal" if normal else "non-normal"] += 1
        kinds["non-pointed"] += not config.is_pointed()
        kinds["n > rank"] += config.n > config.rank
        families = [dg.ideal_family(level) for level in range(config.rank)]
        if isinstance(k_star, int):
            families += [dg.module_family(), dg.gap_family()]
        a_A = config.column_sum()
        monkeypatch.setattr(sg, "DEFAULT_BUDGET", 2_000)
        for face, x in _targets(config, rng):
            over = face.facets_over
            for family in families:
                asked = []
                want = _decided(reference_passes_exact, family, config, face, x, asked)
                searches.clear()
                got = _decided(dg._passes_exact, family, config, face, x)
                if not isinstance(want, bool):
                    assert got == want or isinstance(got, bool), (matrix, face, x, family)
                    decided["old limit"] += 1
                    continue
                assert got == want, (matrix, face, x, family)
                left, steps = 0, family.kind != "ideal" or normal
                for gens, y in asked:
                    if gens != config.cols:
                        continue
                    values = [il.dot(f.witness, y) for f in over]
                    if any(v < 0 for v in values):
                        decided["sign"] += 1
                    elif steps and all(v >= k_star * il.dot(f.witness, a_A)
                                       for v, f in zip(values, over)):
                        decided["conductor"] += 1
                    else:
                        decided["search"] += 1
                        left += 1
                assert len(searches) == left, (matrix, face, x, family)
                key = (family.kind, family.level)
                compared[key] = compared.get(key, 0) + 1
    assert min(kinds.values()) >= 8, kinds
    assert min(decided[k] for k in ("sign", "conductor", "search")) >= 50, decided
    assert set(compared) == {("module", None), ("gap", None), ("ideal", 0), ("ideal", 1),
                             ("ideal", 2)}, compared
    assert min(compared.values()) >= 100, compared


def test_face_generators_are_the_face_span():
    # for faces F ⊆ G and x ∈ ℕA + ℤF, the search over G's columns finds
    # x ∈ ℕG + ℤF exactly when x ∈ ℚG, the step `_passes_exact` takes for
    # the ideal families instead of that search
    rng = random.Random(2626)
    outcomes = {True: 0, False: 0}
    for matrix in _step_draws(26, 120):
        try:
            config = Configuration(matrix)
        except DomainError:
            continue
        faces, cols = config.all_faces(), config.cols
        for F in faces:
            for G in faces:
                if not set(F.indices) <= set(G.indices):
                    continue
                for _ in range(4):
                    # a point of ℕA + ℤF, often of ℕG + ℤF, and sometimes moved
                    # by a point of ℤA
                    support = G.indices if rng.random() < 0.5 else range(config.N)
                    x = (0,) * config.n
                    for j in support:
                        x = il.vadd(x, il.vscale(rng.randint(0, 3), cols[j]))
                    for j in F.indices:
                        x = il.vadd(x, il.vscale(rng.randint(-3, 3), cols[j]))
                    if rng.random() < 0.3:
                        for a in cols:
                            x = il.vadd(x, il.vscale(rng.randint(-2, 2), a))
                    if not sg.member(F.query(cols), x):
                        continue
                    want = G.in_span(x)
                    assert sg.member(F.query(G.cols), x) == want, (matrix, F, G, x)
                    outcomes[want] += 1
    assert min(outcomes.values()) >= 600, outcomes


FOLDED_CUBE = [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, -1]]


def test_normal_walls_answer_without_search(monkeypatch, capsys):
    # on normal input the sign and conductor steps decide every target, so
    # far-out γ answer at once, where a search from γ down would pass its budget
    for matrix in ([[1]], FOLDED_CUBE):
        config = Configuration(matrix)
        calls = _count_member_calls(monkeypatch)
        for g in (300_000, 10**9):
            gamma = (g,) * config.n
            assert not rs.in_sres(config, gamma)
            assert rs.in_dres(config, gamma).bounds["power"] == g + 1
        assert calls == []
        monkeypatch.undo()
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"matrix": [[1]]})))
    assert cli.main(["resonance", "-", "--gamma", "300000", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["sets"]["dres"]["verdict"] == "true"


def test_ideal_family_starts_no_conductor_search(monkeypatch, capsys, tmp_path):
    # seed 664718630's matrix is not normal, and its conductor search passes
    # the membership budget; dres reads only the ideal families, so it
    # answers without starting that search
    def refused(config):
        raise AssertionError("conductor search started")
    monkeypatch.setattr(dg, "_conductor_search", refused)
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"matrix": [[1, 0, -1, -3], [1, -2, -2, 2], [-2, 0, -1, -2]]}))
    assert cli.main(["sets", "dres", str(path), "--box=-1:1,-1:1,-1:1", "--json"]) == 0
    verdicts = [p["verdict"] for p in json.loads(capsys.readouterr().out)["grid"]]
    assert verdicts.count("true") == 12 and verdicts.count("false_up_to_bounds") == 15
