import json
import random
import time
from fractions import Fraction
from itertools import combinations, permutations
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fourier_motzkin import fm_query
from reference_facets import reference_facets
from reference_triangulation import reference_triangulation

from gkzfactors import bruteforce as bf
from gkzfactors import cli, cones
from gkzfactors import degrees as dg
from gkzfactors import factors as fa
from gkzfactors import intlin as il
from gkzfactors import semigroup as sg
from gkzfactors.cones import Configuration
from gkzfactors.errors import ComputationLimitError, DimensionMismatchError, DomainError
from gkzfactors.semigroup import member

A23 = Configuration([[2, 3]])
A46 = Configuration([[1, 0, 1], [0, 2, 1]])
AW = Configuration([[1, 1, 0], [0, 1, 2]])
A54 = Configuration([[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, -1]])

small_configs = st.integers(1, 3).flatmap(
    lambda n: st.integers(1, 4).flatmap(
        lambda N: st.lists(
            st.lists(st.integers(-3, 3), min_size=N, max_size=N),
            min_size=n, max_size=n)))


def test_faces_of_identity():
    for n in (1, 2, 3):
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        assert len(Configuration(rows).all_faces()) == 2 ** n


def test_facets_fixture_values():
    assert [f.face.indices for f in A54.facets()] == \
        [(0, 2), (0, 3), (1, 2), (1, 3)]
    # facet of the coprime pair is the empty face with the identity functional
    (f,) = A23.facets()
    assert f.face.indices == ()
    assert f.value((1,)) == 1
    # wedge facets: the two boundary rays
    assert sorted(f.face.indices for f in AW.facets()) == [(0,), (2,)]


def _assert_column_sum_values(config):
    """`FacetFunctional.sum_value` is l_F(a_A) >= 1, and `facet_bounds` is
    (k* + 1)·l_F(a_A), with l_F(a_A) taken in Fractions.  The conductor is
    asked under small budgets, and a configuration whose conductor search
    passes them is not compared."""
    a_A = config.column_sum()
    for f in config.facets():
        assert f.sum_value == f.value(a_A) and f.sum_value >= 1
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sg, "DEFAULT_BUDGET", 2_000)
        patch.setattr(dg, "SEARCH_CAP", 50)
        try:
            k_star = dg.conductor_multiplier(config)
        except ComputationLimitError:
            return
    assert dg.facet_bounds(config) == {f.face.indices: (k_star + 1) * f.value(a_A)
                                       for f in config.facets()}


def test_facet_functional_axioms_on_fixtures():
    for config in (A23, A46, AW, A54):
        for f in config.facets():
            vals = [f.value(c) for c in config.cols]
            assert all(v >= 0 and v.denominator == 1 for v in vals)
            assert {j for j, v in enumerate(vals) if v == 0} == \
                set(f.face.indices)
            # primitivity: the functional hits 1 on the column lattice
            from math import gcd
            g = 0
            for b in config.lattice_basis:
                g = gcd(g, int(f.value(b)))
            assert g == 1
        _assert_column_sum_values(config)


def test_face_codims():
    faces = {f.indices: f.codim for f in A46.all_faces()}
    assert faces == {(0, 1, 2): 0, (0,): 1, (1,): 1, (): 2}


def test_simplicial_family():
    f1, f2 = (A46.face((0,)), A46.face((1,)))
    assert A46.is_simplicial_family([f1, f2])
    facets54 = [A54.face(i) for i in ((0, 2), (0, 3), (1, 2), (1, 3))]
    assert not A54.is_simplicial_family(facets54)
    assert A54.is_simplicial_family([])


def test_hilbert_basis_and_normality():
    assert sorted(A46.saturation_hilbert_basis()) == [(0, 1), (1, 0)]
    assert A46.is_normal()[0] is False and A46.is_normal()[1] == (0, 1)
    assert A54.is_normal()[0] is True
    normal, hole = A23.is_normal()
    assert not normal and hole == (1,)
    assert sorted(A23.saturation_hilbert_basis()) == [(1,)]


def test_saturated_configuration_is_normal():
    # Â: the configuration augmented with the saturation generators
    for config in (A23, A46, AW):
        extra = [g for g in config.saturation_hilbert_basis() if g not in config.cols]
        sat = Configuration(il.from_columns(config.cols + extra, dim=config.n))
        assert sat.is_normal()[0] is True


def test_semigroup_member():
    assert A46.semigroup_member((3, 4))
    assert not A46.semigroup_member((0, 1))
    assert A46.semigroup_member((0, 0))


def test_zero_column_keeps_cone_pointed():
    config = Configuration([[1, 0, 0], [0, 1, 0]])
    assert config.minimal_face().indices == (2,)
    assert config.is_pointed()


def test_rank_zero_configuration_rejected():
    with pytest.raises(DomainError):
        Configuration([[0, 0]])


def test_non_pointed_configuration():
    config = Configuration([[1, -1, 0], [0, 0, 1]])
    assert not config.is_pointed()
    assert config.minimal_face().indices != ()
    # the unit direction is invertible, so every lattice point on the line is in
    assert config.semigroup_member((-5, 0))
    assert config.semigroup_member((3, 2))
    assert not config.semigroup_member((0, -1))
    hb = config.saturation_hilbert_basis()
    assert hb  # lifts plus the unit directions
    # the unit lattice Z(2, 0) is saturated in ZA = 2Z x Z but not in Z^2
    config = Configuration([[0, 2, -2], [1, 0, 0]])
    assert sorted(config.saturation_hilbert_basis()) == [(-2, 0), (0, 1), (2, 0)]
    assert config.is_normal() == (True, None)


def test_non_pointed_hilbert_basis_pinned():
    # the cone is the line R.e1 times the quadrant spanned by (1,0),(0,2),(1,1)
    # in the last two coordinates; ZA = Z^3, so modulo Z.e1 the saturation is
    # generated by e2 and e3, which lift to themselves, and e3 is a hole
    config = Configuration([[1, -1, 0, 0, 0], [0, 0, 1, 0, 1], [0, 0, 0, 2, 1]])
    assert config.minimal_face().indices == (0, 1)
    assert config.saturation_hilbert_basis() == [(0, 0, 1), (0, 1, 0), (1, 0, 0), (-1, 0, 0)]
    assert config.is_normal() == (False, (0, 0, 1))
    with pytest.raises(DomainError):  # the line R.e1 has facet values 0
        config._hilbert_pointed([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)],
                                [f.y for f in config.facets()])


def test_non_pointed_hilbert_basis_matches_quotient_facets():
    # the facets of the cone, carried to the quotient by the units, are the
    # facets the quotient cone's own enumeration finds: the basis equals the
    # one built from `_facet_values` on the projected coordinates, and every
    # element lies in the cone
    rng = random.Random(20)
    checked = 0
    while checked < 100:
        rows, cols = rng.randint(1, 3), rng.randint(2, 6)
        m = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
        try:
            config = Configuration(m)
        except DomainError:
            continue
        if config.is_pointed():
            continue
        units = config.minimal_face()
        quot = il.quotient(config.rank, units.inner)
        down = [quot.project(c)[0] for c in config.col_coords]
        nonzero = sorted({c for c in down if any(c)})
        ys = [y for _zero, y in cones._facet_values(nonzero, quot.free_rank)] if nonzero else []
        B = il.from_columns(config.lattice_basis)
        want = (sorted(il.matvec(B, quot.section(g, ()))
                       for g in config._hilbert_pointed(down, ys))
                + sorted(units.span_lat) + sorted(il.vneg(u) for u in units.span_lat))
        basis = config.saturation_hilbert_basis()
        assert basis == want, m
        assert all(f.value(b) >= 0 for f in config.facets() for b in basis), m
        checked += 1


def _homogeneous_draws(seed: int, rows: int, cols: int, count: int) -> list:
    """Full-rank matrices with an all-ones first row, other entries in [-2, 2]."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = [[1] * cols] + [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows - 1)]
        if il.rational_rank(il.freeze(m)) == rows:
            out.append(m)
    return out


def _triangulation_volume(cols) -> int:
    """Sum of |det| over the pulling triangulation of full-rank columns, in that order."""
    r = len(cols[0])
    zeros = [z for z, _y in cones._facet_values(cols, r)]
    total = 0
    for simplex in cones.pulling_triangulation(zeros, len(cols)):
        gens = [cols[j] for j in simplex]
        assert len(gens) == r and il.rational_rank(il.from_columns(gens)) == r
        total += il.quotient(r, gens).torsion_order()
    return total


def test_pulling_triangulation_volume_is_order_free():
    # on a homogeneous configuration sum |det| over a triangulation is the
    # normalized volume, the same for every pulling order, and it never
    # exceeds the sum over all full-rank r-subsets
    # for every order, the simplices are the frozenset recursion's
    for seed, rows, cols, count in ((1, 3, 5, 3), (2, 3, 6, 2), (3, 4, 5, 3)):
        for m in _homogeneous_draws(seed, rows, cols, count):
            columns = il.columns(il.freeze(m))
            volumes = set()
            for perm in permutations(range(cols)):
                ordered = [columns[j] for j in perm]
                zeros = [z for z, _y in cones._facet_values(ordered, rows)]
                assert sorted(cones.pulling_triangulation(zeros, cols)) == \
                    sorted(reference_triangulation(zeros, cols)), (m, perm)
                volumes.add(_triangulation_volume(ordered))
            assert len(volumes) == 1, m
            subsets = sum(il.quotient(rows, s).torsion_order()
                          for s in combinations(columns, rows)
                          if il.rational_rank(il.from_columns(s)) == rows)
            assert volumes.pop() <= subsets, m


def test_hilbert_budget_counts_one_triangulation(monkeypatch):
    m = [[1, 1, 1, 1, 1], [0, 3, 0, 3, 1], [0, 0, 3, 3, 1]]
    config = Configuration(m)
    coords = sorted({tuple(int(x) for x in config.lattice_coords(c)) for c in config.cols})
    count = _triangulation_volume(coords)
    assert count == 6  # two simplicial cones of index 3 each
    monkeypatch.setattr(cones, "HILBERT_BUDGET", count - 1)
    with pytest.raises(ComputationLimitError) as err:
        config.saturation_hilbert_basis()
    assert (err.value.stage, err.value.used, err.value.limit) == (
        "cones.saturation_hilbert_basis", count, count - 1)
    monkeypatch.setattr(cones, "HILBERT_BUDGET", count)
    assert Configuration(m).saturation_hilbert_basis()


def test_facet_budget_counts_candidate_pairs(monkeypatch):
    # rank 3 and four distinct columns: the dual basis of the first three,
    # then (1, 1, -1) is positive on two rays and negative on one, 2 pairs
    monkeypatch.setattr(cones, "FACET_BUDGET", 1)
    with pytest.raises(ComputationLimitError) as err:
        Configuration(A54.matrix).facets()
    assert (err.value.stage, err.value.used, err.value.limit) == ("cones.facets", 2, 1)
    monkeypatch.setattr(cones, "FACET_BUDGET", 2)
    assert len(Configuration(A54.matrix).facets()) == 4


def _distinct_homogeneous_columns(seed: int, count: int, rank: int) -> list:
    """A matrix of `count` distinct columns (1, a, ...) with a, ... in [-20, 20]."""
    rng = random.Random(seed)
    cols: set = set()
    while len(cols) < count:
        cols.add((1,) + tuple(rng.randint(-20, 20) for _ in range(rank - 1)))
    return [list(row) for row in zip(*sorted(cols))]


def test_facet_budget_admits_many_columns(monkeypatch):
    # 160 distinct columns at rank 3 and 85 at rank 4 answer under the
    # default budget, with the pairs tested counted
    used = []
    check = cones.check_budget
    monkeypatch.setattr(cones, "check_budget",
                        lambda what, stage, n, limit: used.append((stage, n)) or
                        check(what, stage, n, limit))
    for count, rank, facets, pairs in ((160, 3, 9, 1362), (85, 4, 60, 15919)):
        used.clear()
        config = Configuration(_distinct_homogeneous_columns(1, count, rank))
        assert len(config.facets()) == facets
        assert max(n for stage, n in used if stage == "cones.facets") == pairs
        assert pairs <= cones.FACET_BUDGET


def _cone_draws(seed: int, count: int) -> list:
    """Seeded matrices with 1-5 rows, 1-9 columns and entries in [-2, 2]; in
    turn plain, with a row summing the others (rank below the row count), a
    column and its negative (not pointed), a repeated column and a zero column."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        kind = len(out) % 5
        n, N = rng.randint(1, 5), rng.randint(1, 8 if kind >= 2 else 9)
        m = [[rng.randint(-2, 2) for _ in range(N)] for _ in range(n)]
        if kind == 1:
            m.append([sum(col) for col in zip(*m)])
        elif kind == 2:
            m = [row + [-row[0]] for row in m]
        elif kind == 3:
            j = rng.randrange(N)
            m = [row + [row[j]] for row in m]
        elif kind == 4:
            m = [row + [0] for row in m]
        if any(any(row) for row in m):
            out.append(m)
    return out


def test_facets_and_faces_match_subset_enumeration():
    # the double description's facets against the (r-1)-subset enumeration,
    # and the walk's faces against the closure of those facets under
    # intersection, with codim = rank - rank(face columns)
    seen = {"n > rank": 0, "not pointed": 0, "repeated column": 0, "zero column": 0}
    for m in _cone_draws(22, 620):
        config = Configuration(m)
        want = reference_facets(config.col_coords, config.rank)
        assert [(f.face.indices, f.y) for f in config.facets()] == want, m
        assert all(f.face.codim == 1 for f in config.facets()), m  # read before all_faces()
        index_sets = {tuple(range(config.N))}
        todo = list(index_sets)
        while todo:
            a = set(todo.pop())
            for zero, _y in want:
                inter = tuple(sorted(a.intersection(zero)))
                if inter not in index_sets:
                    index_sets.add(inter)
                    todo.append(inter)
        faces = sorted((_full_codim(config, idx), idx) for idx in index_sets)
        assert [(f.codim, f.indices) for f in config.all_faces()] == faces, m
        seen["n > rank"] += config.n > config.rank
        seen["not pointed"] += not config.is_pointed()
        seen["repeated column"] += len(set(config.cols)) < config.N
        seen["zero column"] += any(not any(c) for c in config.cols)
    assert all(seen.values()), seen


def test_face_budget_counts_faces_found(monkeypatch, tmp_path, capsys):
    # the 4x4 identity has 2^4 = 16 faces: the full set, 4 facets, ...
    m = [[int(i == j) for j in range(4)] for i in range(4)]
    monkeypatch.setattr(cones, "FACE_BUDGET", 15)
    with pytest.raises(ComputationLimitError) as err:
        Configuration(m).all_faces()
    assert (err.value.stage, err.value.used, err.value.limit) == ("cones.all_faces", 16, 15)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"matrix": m}))
    assert cli.main(["faces", str(path), "--json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "stage cones.all_faces, used 16, limit 15" in captured.err
    monkeypatch.setattr(cones, "FACE_BUDGET", 16)
    assert len(Configuration(m).all_faces()) == 16


def test_face_span_lattice_saturated():
    # QF ∩ ZA for the doubled column is generated by the primitive vector
    basis = A46.face_data((1,)).span_lat
    assert sorted(tuple(abs(x) for x in b) for b in basis) == [(0, 1)]


def test_face_rejects_non_face():
    with pytest.raises(DomainError):
        A46.face((2,))  # interior column is not a face
    with pytest.raises(DomainError):
        A46.face_data((2,)).codim  # a codimension only for faces


@settings(max_examples=40, deadline=None)
@given(small_configs)
@example([[1, -1, 0, 0], [0, 0, 2, 3]])  # not pointed, not normal
@example([[1, 1, 1], [2, 2, 2], [0, 1, 3]])  # n > rank, not normal
def test_facet_axioms_random(rows):
    if all(all(x == 0 for x in r) for r in rows):
        return
    config = Configuration(rows)
    if config.rank == 0:
        return
    from math import gcd
    for f in config.facets():
        vals = [f.value(c) for c in config.cols]
        assert all(v >= 0 and v.denominator == 1 for v in vals)
        assert {j for j, v in enumerate(vals) if v == 0} == set(f.face.indices)
        g = 0
        for b in config.lattice_basis:
            g = gcd(g, int(f.value(b)))
        assert g == 1
    _assert_column_sum_values(config)


@settings(max_examples=30, deadline=None)
@given(small_configs)
def test_face_lattice_closed_under_intersection(rows):
    if all(all(x == 0 for x in r) for r in rows):
        return
    config = Configuration(rows)
    if config.rank == 0:
        return
    index_sets = {f.indices for f in config.all_faces()}
    for a in index_sets:
        for b in index_sets:
            assert tuple(sorted(set(a) & set(b))) in index_sets


@settings(max_examples=40, deadline=None)
@given(small_configs, st.lists(st.integers(-3, 3), min_size=3, max_size=3))
def test_face_in_span_matches_rational_solve(rows, v):
    # the cached annihilator decides v ∈ QF as a fresh solve against F's columns would
    if all(all(x == 0 for x in r) for r in rows):
        return
    config = Configuration(rows)
    for face in config.all_faces():
        data = config.face_data(face.indices)
        assert all(data.in_span(c) for c in data.cols)
        for w in (tuple(v[:config.n]), config.column_sum(), config.cols[0]):
            want = (il.rational_solve(il.from_columns(data.cols, dim=config.n), w) is not None
                    if data.cols else il.is_zero_vec(w))
            assert data.in_span(w) == want


def test_face_query_functional_matches_fourier_motzkin():
    # a face query takes its functional from the facet witnesses; the same
    # query with the Fourier-Motzkin functional prunes other dead states but
    # reaches every live one in the same order, so verdicts and witnesses agree
    rng = random.Random(2611)
    queries = trues = falses = 0
    while queries < 300:
        n, N = rng.randint(1, 3), rng.randint(1, 5)
        try:
            config = Configuration([[rng.randint(-2, 3) for _ in range(N)] for _ in range(n)])
        except DomainError:
            continue
        faces = config.all_faces()
        for face in faces:
            data = config.face_data(face.indices)
            gen_sets = [config.cols, config.saturation_hilbert_basis()]
            gen_sets += [config.face_data(g.indices).cols for g in faces
                         if g.codim < face.codim and set(face.indices) <= set(g.indices)]
            targets = [tuple(rng.randint(-3, 4) for _ in range(n)) for _ in range(4)]
            targets.append(tuple(map(sum, zip(*rng.choices(config.cols, k=3)))))
            for gens in gen_sets:
                q = data.query(gens)
                fm = fm_query(q.generators, q.lattice_part)
                for target in targets:
                    got = member(q, target, witness=True)
                    assert got == member(fm, target, witness=True), (config.matrix, face, gens, target)
                    trues, falses = trues + got[0], falses + (not got[0])
                queries += 1
    assert trues > 300 and falses > 300


def _reduce_in_fractions(data, v):
    """`FaceData.reduce` as the loop over Fractions it replaces."""
    canonical = exact = [Fraction(x) for x in v]
    order = 1
    for r, col in data.hnf:
        t, c = canonical[r] // col[r], exact[r] / col[r]
        canonical = [x - t * y for x, y in zip(canonical, col)]
        exact = [x - c * y for x, y in zip(exact, col)]
        order = lcm(order, c.denominator)
    return tuple(canonical), (None if any(exact) else order)


@settings(max_examples=60, deadline=None)
@given(small_configs,
       st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6), min_size=3, max_size=3),
       st.integers(0, 4))
@example([[1, 0, 1], [0, 2, 1]], [Fraction(1, 2), Fraction(-1, 3), Fraction(0)], 2)
def test_face_reduce_matches_fraction_loop(rows, v, size):
    # on faces, on a column subset that need not be a face, for a vector
    # anywhere (often outside QF: order None) and for one inside QF
    if all(all(x == 0 for x in r) for r in rows):
        return
    config = Configuration(rows)
    index_sets = [f.indices for f in config.all_faces()] + [tuple(range(min(size, config.N)))]
    for indices in index_sets:
        data = config.face_data(indices)
        inside = tuple(sum(v[j % 3] * c[i] for j, c in enumerate(data.cols))
                       for i in range(config.n))
        for w in (tuple(v[:config.n]), inside):
            got = data.reduce(w)
            assert got == _reduce_in_fractions(data, w), (indices, w)
            assert all(isinstance(x, Fraction) for x in got[0])
        assert data.reduce(inside)[1] is not None


def test_normality_of_a_5x12_draw_needs_no_fourier_motzkin():
    # the seeded 5x12 homogeneous draw on which a Fourier-Motzkin functional
    # for the membership search ran for minutes; its hole is checked by the
    # meet-in-the-middle oracle, exhaustive at coefficient bound 1 because
    # the all-ones first row makes the coefficients of a point sum to 1
    m = [[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
         [0, -1, -2, 2, 0, 2, 2, -2, -1, -1, -1, 0],
         [1, 0, 0, -1, 1, 2, -2, 1, -2, 2, 2, -1],
         [-2, 2, 2, -1, -1, 1, -1, 1, 2, -2, 1, 1],
         [2, 1, -1, 1, -2, -2, 1, -2, -2, -1, 2, 2]]
    config = Configuration(m)
    start = time.perf_counter()
    normal, hole = config.is_normal()
    assert time.perf_counter() - start < 5
    assert (normal, hole) == (False, (1, -1, 0, 1, -2))
    assert hole in config.saturation_hilbert_basis()
    assert not bf.bf_member(config.face_data(()).query(config.cols), hole, 1)
    # the hole lies in the cone: a nonnegative combination of 5 columns
    # (ZA = Z^5, as the lattice basis is the identity)
    assert config.lattice_basis == list(il.columns(il.identity(5)))
    assert any(x is not None and min(x) >= 0
               for x in (il.rational_solve(il.from_columns(s), hole)
                         for s in combinations(config.cols, 5)))


def _full_codim(config, indices):
    """The codimension from the rank of the face's columns."""
    sub = [config.cols[j] for j in indices]
    return config.rank - (il.rational_rank(il.from_columns(sub, dim=config.n)) if sub else 0)


def _full_deltas(config, indices):
    """(QF ∩ ZA) / ZF from `inner`, a left inverse and a Smith form, always."""
    ann = il.rational_kernel([config.col_coords[j] for j in indices]) if indices else None
    if not indices:
        inner = []
    else:
        inner = il.integer_kernel(tuple(ann)) if ann else il.columns(il.identity(config.rank))
    if not inner:
        return [tuple(0 for _ in range(config.n))]
    N, D, _C = il.scaled_left_inverse(il.from_columns(inner))
    coords = [tuple(il.dot(row, config.col_coords[j]) // d for row, d in zip(N, D))
              for j in indices]
    quot = il.quotient(len(inner), coords)
    B = il.from_columns(config.lattice_basis)
    S = il.from_columns([il.matvec(B, u) for u in inner], dim=config.n)
    return [il.matvec(S, t) for t in quot.coset_representatives()]


def _full_pullback(config, indices, cls):
    """`factors.pullback_solutions` with z always from `FaceData.representative`."""
    z = config.face_data(indices).representative(il.vneg(cls.representative))
    if z is None:
        return []
    base = il.vadd(cls.representative, z)
    out = [fa._make_class(config, indices, il.vadd(base, d))
           for d in _full_deltas(config, indices)]
    return sorted(out, key=lambda c: c.canonical)


def _shortcut_draws(seed: int, count: int) -> list:
    """Seeded small matrices, with rank-deficient and non-pointed ones mixed in."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n, N = rng.randint(1, 3), rng.randint(2, 5)
        m = [[rng.randint(-3, 3) for _ in range(N)] for _ in range(n)]
        kind = len(out) % 3
        if kind == 1:  # a row that is the sum of the others: n > rank
            m.append([sum(col) for col in zip(*m)])
        elif kind == 2:  # a column and its negative: not pointed
            m = [row + [-row[0]] for row in m]
        if any(any(row) for row in m):
            out.append(m)
    return out


def test_face_record_shortcuts_match_full_computation():
    # the codimension from `ann`, `deltas` skipped on unit HNF pivots, and
    # z = 0 in pullbacks for a class already in QF all agree with the full
    # computation; every branch of both shortcuts is taken
    fixtures = [json.loads(p.read_text())["matrix"] for p in cli._fixture_files()]
    rng = random.Random(15)
    seen = {"unit pivots": 0, "other pivots": 0, "torsion": 0, "in QF": 0, "outside QF": 0}
    for m in fixtures + _shortcut_draws(15, 45):
        config = Configuration(m)
        full = tuple(range(config.N))
        classes = [fa.trivial_class(config)]
        for _ in range(3):  # rational and integer combinations of the columns
            den = rng.randint(1, 3)
            coeffs = [Fraction(rng.randint(-3, 3), den) for _ in config.cols]
            classes.append(fa._make_class(config, full, tuple(
                sum(q * c[i] for q, c in zip(coeffs, config.cols)) for i in range(config.n))))
        for face in config.all_faces():
            data = config.face_data(face.indices)
            assert face.codim == _full_codim(config, face.indices), (m, face)
            assert data.deltas == _full_deltas(config, face.indices), (m, face)
            unit = all(col[r] == 1 for r, col in data.hnf)
            seen["unit pivots" if unit else "other pivots"] += 1
            seen["torsion"] += len(data.deltas) > 1
            for cls in classes:
                coords = config.lattice_coords(cls.representative)
                seen["outside QF" if any(il.dot(w, coords) for w in data.ann) else "in QF"] += 1
                got = fa.pullback_solutions(config, face, cls)
                want = _full_pullback(config, face.indices, cls)
                assert [(c.representative, c.canonical, c.order) for c in got] == \
                    [(c.representative, c.canonical, c.order) for c in want], (m, face, cls)
    assert all(seen.values()), seen


def test_face_record_matches_old_face_and_functional():
    # the records handed out as faces, and the integer facet functionals,
    # against the formulas they replaced: l as the rational_solve extension
    # of y, its cleared denominators as the witness, value as a Fraction sum,
    # the annihilator as a kernel of the ambient columns, codim from the rank
    fixtures = [json.loads(p.read_text())["matrix"] for p in cli._fixture_files()]
    rng = random.Random(16)
    seen = {"n > rank": 0, "not pointed": 0, "in span": 0, "outside": 0}

    def rational(n):
        return tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n))
    for m in fixtures + _shortcut_draws(16, 45):
        config = Configuration(m)
        seen["n > rank"] += config.n > config.rank
        seen["not pointed"] += not config.is_pointed()
        faces = config.all_faces()
        for f in config.facets():
            l = il.rational_solve(il.freeze(config.lattice_basis), f.y)
            assert f.l == l and f.witness == il.clear_denominators(l), (m, f.face)
            assert any(f.face is g for g in faces)
            for v in list(config.cols) + [rational(config.n) for _ in range(4)]:
                want = sum(Fraction(a) * Fraction(x) for a, x in zip(l, v, strict=True))
                assert f.value(v) == want, (m, f.face, v)
        for face in faces:
            assert face.codim == _full_codim(config, face.indices), (m, face)
            rows = tuple(il.rational_kernel(face.cols)) if face.cols else il.identity(config.n)
            combo = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in face.cols]
            inside = tuple(sum((q * c[i] for q, c in zip(combo, face.cols)), Fraction(0))
                           for i in range(config.n))
            for v in [inside, config.column_sum()] + [rational(config.n) for _ in range(3)]:
                want = not any(il.dot(w, v) for w in rows)
                assert face.in_span(v) == want, (m, face, v)
                seen["in span" if want else "outside"] += 1
    assert all(seen.values()), seen


def test_public_entry_points_reject_wrong_lengths():
    # the scalar products behind these entry points stop at the shorter
    # vector, so each checks the length itself: on A46 = [[1,0,1],[0,2,1]]
    # (1,) once passed as a point of QA with coordinates (1, 0)
    face = A46.face_data((0,))
    entry_points = [A46.in_span, A46.lattice_coords, face.representative, face.in_span,
                    A46.face_data(tuple(range(A46.N))).in_span]
    entry_points += [f.value for f in A46.facets()]
    for v in ((1,), (Fraction(1, 2),), (1, 0, 0), ()):
        for call in entry_points:
            with pytest.raises(DimensionMismatchError):
                call(v)
    assert A46.lattice_coords((1, 0)) == (1, 0) and face.representative((1, 0)) == (0, 0)


def test_facet_functionals_match_rational_solve_per_facet():
    # facets() reads every l off one solution map of the ZA basis; on seeded
    # draws, draws [A; v.A] with the row v.A put anywhere (n > rank: the
    # solution is not unique, the free-variables-zero one must be kept, and
    # the pivots need not be the first columns) and non-pointed draws it
    # gives rational_solve's l, and the witness and scale that the
    # per-facet formulas gave
    rng = random.Random(23)
    seen = {"n > rank": 0, "not pointed": 0, "scale > 1": 0, "facets": 0}
    draws = []
    for i in range(150):
        n, N = rng.randint(1, 3), rng.randint(2, 6)
        m = [[rng.randint(-4, 4) for _ in range(N)] for _ in range(n)]
        if i % 3 == 1:
            v = [rng.randint(-3, 3) for _ in range(n)]
            m.insert(rng.randint(0, n), [sum(a * x for a, x in zip(v, col)) for col in zip(*m)])
        elif i % 3 == 2:
            j = rng.randrange(N)
            m = [row + [-row[j]] for row in m]
        draws.append(m)
    for m in draws + [[[2, 4, 6], [1, 2, 3]], [[1, 0, 1], [0, 2, 1], [2, 4, 4]]]:
        try:
            config = Configuration(m)
        except DomainError:  # a zero matrix
            continue
        seen["n > rank"] += config.n > config.rank
        seen["not pointed"] += not config.is_pointed()
        B = il.freeze(config.lattice_basis)
        for f in config.facets():
            l = il.rational_solve(B, f.y)
            witness = il.clear_denominators(l)
            assert (f.l, f.witness) == (l, witness), (m, f.face)
            assert f.scale == next(w // x for w, x in zip(witness, l) if x), (m, f.face)
            seen["scale > 1"] += f.scale > 1
            seen["facets"] += 1
    assert all(seen.values()) and seen["n > rank"] > 30 and seen["not pointed"] > 30, seen
