import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkzfactors import cli
from gkzfactors import degrees as dg
from gkzfactors import resonance as rs
from gkzfactors import semigroup as sg
from gkzfactors.cones import Configuration
from gkzfactors.errors import ComputationLimitError, DomainError

A23 = Configuration([[2, 3]])
AW = Configuration([[1, 1, 0], [0, 1, 2]])
A54 = Configuration([[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, -1]])
A46 = Configuration([[1, 0, 1], [0, 2, 1]])


def good_class_exists(family, config, face, gamma):
    """Does some b ≡ γ (mod ℚF) satisfy b + ℕF ⊆ D?"""
    candidates = dg.class_candidates(config, face, gamma)
    return dg.first_passing(family, config, face, candidates) is not None


def test_classify_examples():
    p = rs.classify(A46, (0, 0))
    assert not p.is_nonresonant and p.is_weak and p.is_semi
    p = rs.classify(A23, (Fraction(1, 2),))
    assert p.is_nonresonant
    p = rs.classify(A54, (0, 0, 0))
    assert p.is_weak and p.is_semi and len(p.resonant_facets) == 4


def test_in_res():
    assert rs.in_res(A23, (7,))
    assert not rs.in_res(A23, (Fraction(1, 2),))
    assert rs.in_res(AW, (Fraction(1, 3), 5))


def test_in_res_domain_error():
    with pytest.raises(DomainError):
        rs.in_res(A23, (1, 2))
    config = Configuration([[1, 2], [0, 0]])
    with pytest.raises(DomainError):
        rs.classify(config, (0, 1))  # outside the column span


def test_sres_line_fixture():
    got = {g for g in range(-6, 7) if rs.in_sres(A23, (g,))}
    assert got == set(range(-6, 0)) | {1}


def test_sres_wedge_probes():
    assert rs.in_sres(AW, (0, Fraction(7, 3)))
    assert not rs.in_sres(AW, (Fraction(1, 2), Fraction(1, 2)))
    assert rs.in_sres(AW, (-2, Fraction(1, 3)))
    assert rs.in_sres(AW, (Fraction(5, 1), -2))
    assert not rs.in_sres(AW, (1, Fraction(1, 2)))


def test_dres_line_fixture():
    got = {g for g in range(-6, 7) if rs.in_dres(A23, (g,)).is_true}
    assert got == {2, 3, 4, 5, 6}
    assert rs.in_dres(A23, (-2,)).verdict == "false_up_to_bounds"


def test_dres_bounded_negative_is_not_certified():
    # the fixture-pinned probe of the coprime pair at γ = -2: resonant,
    # non-normal, and no stratum witness, so the negative is not proven
    out = rs.in_dres(A23, (-2,))
    assert out.verdict == "false_up_to_bounds"
    assert out.bounds == {"certified": False, "method": "stratum reduction"}
    # definite negatives keep their certificate
    assert rs.in_dres(A23, (Fraction(1, 2),)).bounds["certified"] is True
    assert rs.in_dres(A54, (0, 0, 0)).bounds["certified"] is True


def test_dres_wedge_probes():
    assert rs.in_dres(AW, (3, Fraction(1, 2))).is_true
    assert rs.in_dres(AW, (Fraction(1, 2), 2)).is_true
    assert rs.in_dres(AW, (Fraction(1, 2), Fraction(1, 3))).verdict == "false"


def test_dres_normal_cross_check_path():
    # a normal configuration takes the exact facet-test branch
    assert rs.in_dres(A54, (1, 0, 0)).is_true
    assert rs.in_dres(A54, (0, 0, 0)).verdict == "false"


def test_signed_facet_sets():
    assert not rs.in_SRes(A23, (1,))      # contrast with sres
    assert rs.in_sres(A23, (1,))
    assert rs.in_SRes(A23, (-4,))
    assert not rs.in_SRes(AW, (0, Fraction(1, 2)))
    assert not rs.in_DRes(AW, (0, Fraction(1, 2)))
    got = {g for g in range(-6, 7) if rs.in_DRes(A23, (g,))}
    assert got == set(range(1, 7))
    got = {g for g in range(-6, 7) if rs.in_SRes(A23, (g,))}
    assert got == set(range(-6, 0))


def test_wres():
    assert rs.in_wres(A23, (1,)).verdict == "true"
    assert rs.in_wres(A23, (Fraction(1, 2),)).verdict == "false"
    # normal and weak-nonresonant: definite false
    assert rs.in_wres(A54, (0, 0, 0)).verdict == "false"


def test_region_scan():
    grid = rs.region_scan(A23, "sres", [(-6, 6)], 1)
    got = sorted(int(c["gamma"][0]) for c in grid if c["verdict"] == "true")
    assert got == [-6, -5, -4, -3, -2, -1, 1]
    assert rs.region_scan(A23, "sres", [(3, 2)], 1) == []
    grid = rs.region_scan(AW, "res", [(0, 1), (0, 1)], Fraction(1, 2))
    assert len(grid) == 9
    with pytest.raises(DomainError):
        rs.region_scan(A23, "nonsense", [(0, 1)], 1)


def test_region_scan_grid_budget(monkeypatch):
    # 5 x 3 points, counted before any verdict: a verdict call fails the test
    box, step = [(0, 2), (Fraction(-1, 2), Fraction(1, 2))], Fraction(1, 2)
    monkeypatch.setattr(rs, "GRID_BUDGET", 14)
    monkeypatch.setitem(rs.SET_VERDICTS, "sres", lambda *a: pytest.fail("verdict computed"))
    with pytest.raises(ComputationLimitError) as err:
        rs.region_scan(A46, "sres", box, step)
    assert (err.value.stage, err.value.used, err.value.limit) == ("resonance.region_scan", 15, 14)
    monkeypatch.setattr(rs, "GRID_BUDGET", 15)
    assert len(rs.region_scan(A46, "res", box, step)) == 15


def test_sets_grid_over_budget_exits_at_once(tmp_path, capsys):
    # 200 001^2 points: without the count this scan runs until it is killed
    path = tmp_path / "doc.json"
    path.write_text('{"matrix": [[1, 0, 1], [0, 2, 1]]}')
    start = time.perf_counter()
    code = cli.main(["sets", "SRes", str(path), "--box=-1000:1000,-1000:1000", "--step", "1/100"])
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert f"stage resonance.region_scan, used {200_001 ** 2}, limit {rs.GRID_BUDGET}" \
        in captured.err


def test_region_scan_outside_span():
    config = Configuration([[1, 2], [0, 0]])
    grid = rs.region_scan(config, "res", [(0, 1), (0, 1)], 1)
    verdicts = {tuple(c["gamma"]): c["verdict"] for c in grid}
    assert verdicts[(0, 1)] == "outside"
    assert verdicts[(1, 0)] in ("true", "false")


small_configs = st.integers(1, 2).flatmap(
    lambda n: st.integers(1, 3).flatmap(
        lambda N: st.lists(
            st.lists(st.integers(-2, 3), min_size=N, max_size=N),
            min_size=n, max_size=n)))
small_gammas = st.lists(st.integers(-3, 3), min_size=1, max_size=2)


@settings(max_examples=25, deadline=None)
@given(small_configs, small_gammas, st.integers(1, 3))
def test_implication_chain_random(rows, gamma_raw, denom):
    if all(all(x == 0 for x in r) for r in rows):
        return
    config = Configuration(rows)
    if config.rank == 0:
        return
    # build a parameter inside the span from random lattice coefficients
    gamma = tuple(
        sum(Fraction(c, denom) * Fraction(b[i])
            for c, b in zip(gamma_raw, config.lattice_basis))
        for i in range(config.n))
    prof = rs.classify(config, gamma)
    sres = rs.in_sres(config, gamma)
    dres = rs.in_dres(config, gamma)
    wres = rs.in_wres(config, gamma)
    res = rs.in_res(config, gamma)
    # one-sided implications valid for every configuration
    if not sres:
        assert prof.is_semi
    if dres.is_true:
        assert rs.in_DRes(config, gamma)
    # chain: sres ⊆ wres ⊆ res
    if sres:
        assert wres.verdict == "true"
    if wres.verdict == "true":
        assert res
    # equivalences under normality
    if config.is_normal()[0]:
        assert sres == (not prof.is_semi)
        assert dres.is_true == rs.in_DRes(config, gamma)
        assert (wres.verdict == "true") == (not prof.is_weak)


# the per-shift and per-level formulations that in_sres and _dres_certificate
# replaced: a class search at every shift, candidates rebuilt at every level
def _largest_below(q: Fraction) -> int:
    """Largest integer strictly below q."""
    return q.numerator // q.denominator - (1 if q.denominator == 1 else 0)


def _per_shift_sres(config, gamma):
    rs._require_in_span(config, gamma)
    bounds = dg.facet_bounds(config)
    a_A = config.column_sum()
    family = dg.module_family()
    for face in config.all_faces():
        if face.codim == 0:
            continue
        m_max = 0
        for f in face.facets_over:
            q = (bounds[f.face.indices] - f.value(gamma)) / f.value(a_A)
            m_max = max(m_max, _largest_below(q))
        for m in range(1, m_max + 1):
            shifted = tuple(Fraction(g) + m * Fraction(c) for g, c in zip(gamma, a_A))
            if good_class_exists(family, config, face, shifted):
                return True
    return False


def _per_level_dres_certificate(config, gamma):
    for level in range(config.rank):
        fam = dg.ideal_family(level)
        for face in config.all_faces():
            if face.codim <= level:
                continue
            hit = dg.first_passing(fam, config, face, dg.class_candidates(config, face, gamma))
            if hit is not None:
                total = sum(f.value(hit) for f in face.facets_over)
                return level, face, max(2, int(total) + 1)
    return None


def _span_draws(seed, count):
    """Seeded (matrix, γ): 1-3 rows, at most 5 columns, entries in [-3, 3],
    γ a combination of the columns with denominators at most 3."""
    rng = random.Random(seed)
    for _ in range(count):
        rows, cols = rng.randint(1, 3), rng.randint(1, 5)
        m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols)]
        yield m, tuple(sum(c * r[j] for j, c in enumerate(coeffs)) for r in m)


def _sets(config, gamma):
    """(sres, dres, wres) as plain values, or the limit error's record."""
    try:
        dres, wres = rs.in_dres(config, gamma), rs.in_wres(config, gamma)
        return rs.in_sres(config, gamma), (dres.verdict, dres.bounds), (wres.verdict, wres.bounds)
    except ComputationLimitError as exc:
        return "limit", exc.stage, exc.used, exc.limit


def test_sres_dres_match_per_shift_search(monkeypatch):
    # a small membership budget turns the draws whose conductor search is
    # long (k* >= 20) into a quick limit error, which both sides must share
    monkeypatch.setattr(sg, "DEFAULT_BUDGET", 20_000)
    compared = 0
    for m, gamma in _span_draws(1, 150):
        if not any(any(r) for r in m):
            continue
        got = _sets(Configuration(m), gamma)
        with monkeypatch.context() as patch:
            patch.setattr(rs, "in_sres", _per_shift_sres)
            patch.setattr(rs, "_dres_certificate", _per_level_dres_certificate)
            want = _sets(Configuration(m), gamma)
        assert got == want, (m, gamma)
        compared += len(got) == 3
    assert compared >= 140


def test_class_representative_is_linear():
    for m, gamma in _span_draws(2, 60):
        if not any(any(r) for r in m):
            continue
        config = Configuration(m)
        a_A = config.column_sum()
        for face in config.all_faces():
            z = face.representative(gamma)
            z_a = face.representative(a_A)
            assert z_a is not None
            for k in (1, 2, 5):
                shifted = tuple(g + k * c for g, c in zip(gamma, a_A))
                z_k = face.representative(shifted)
                assert z_k == (None if z is None else
                               tuple(x + k * y for x, y in zip(z, z_a))), (m, gamma, face)


# the facet values and facet-sign verdicts in `Fraction`s, as
# `FacetFunctional.value` gives them, next to the integer path of `resonance`
def _fraction_verdicts(config, gamma):
    values = tuple((f.face.indices, f.value(gamma)) for f in config.facets())
    integral = [(idx, v) for idx, v in values if v.denominator == 1]
    return (values, not integral, all(v == 0 for _, v in integral),
            all(v >= 0 for _, v in integral), tuple(idx for idx, _ in integral),
            bool(integral), any(v < 0 for _, v in integral), any(v > 0 for _, v in integral))


def _integer_verdicts(config, gamma):
    p = rs.classify(config, gamma)
    return (p.facet_values, p.is_nonresonant, p.is_weak, p.is_semi, p.resonant_facets,
            rs.in_res(config, gamma), rs.in_SRes(config, gamma), rs.in_DRes(config, gamma))


def _differential_draws(seed, count):
    """Seeded (matrix, γ): 1-3 rows, at most 5 columns, entries in [-3, 3];
    every third draw gains a row v.A (n > rank) put anywhere, every third a
    column's negative (a line in the cone); γ is a combination of the
    columns whose coefficients are integers or have denominators up to 12."""
    rng = random.Random(seed)
    for i in range(count):
        rows, cols = rng.randint(1, 3), rng.randint(1, 5)
        m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        if i % 3 == 1:
            v = [rng.randint(-2, 2) for _ in m]
            row = [sum(c * r[j] for c, r in zip(v, m)) for j in range(cols)]
            m.insert(rng.randint(0, rows), row)
        elif i % 3 == 2:
            j = rng.randrange(cols)
            for r in m:
                r.append(-r[j])
        coeffs = [Fraction(rng.randint(-12, 12), rng.choice([1, 1, rng.randint(2, 12)]))
                  for _ in m[0]]
        yield m, tuple(sum(c * x for c, x in zip(coeffs, r)) for r in m)


def test_integer_verdicts_match_fraction_formulas():
    rng = random.Random(7)
    seen = dict.fromkeys(["n > rank", "non-pointed", "resonant", "SRes", "DRes",
                          "outside", "denominator > 6"], 0)
    for m, gamma in _differential_draws(3, 240):
        if not any(any(r) for r in m):
            continue
        config = Configuration(m)
        assert config.in_span(gamma)
        want = _fraction_verdicts(config, gamma)
        assert _integer_verdicts(config, gamma) == want, (m, gamma)
        seen["n > rank"] += config.n > config.rank
        seen["non-pointed"] += not config.is_pointed()
        seen["resonant"] += want[5]
        seen["SRes"] += want[6]
        seen["DRes"] += want[7]
        seen["denominator > 6"] += any(Fraction(x).denominator > 6 for x in gamma)
        # a unit step off γ on each axis: in_span against lattice_coords, and
        # the same DomainError texts as before outside QA or at another length
        for k in range(config.n):
            off = tuple(x + (Fraction(1, rng.randint(1, 12)) if i == k else 0)
                        for i, x in enumerate(gamma))
            inside = config.lattice_coords(off) is not None
            assert config.in_span(off) == inside, (m, off)
            if not inside:
                seen["outside"] += 1
                with pytest.raises(DomainError, match="^parameter lies outside the column span$"):
                    rs.classify(config, off)
        for call in (rs.classify, rs.in_res, rs.in_SRes, rs.in_DRes, rs.in_sres, rs.in_dres):
            with pytest.raises(DomainError,
                               match="^parameter dimension does not match the configuration$"):
                call(config, gamma + (0,))
    assert all(count >= 5 for count in seen.values()), seen


def _unimodular(rng, n):
    """The identity after 3n row operations with coefficients in [-2, 2] and
    the sign flip of one row."""
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
    k = rng.randrange(n)
    U[k] = [-a for a in U[k]]
    return U


def test_resonance_is_invariant_under_unimodular_maps_and_column_order(monkeypatch):
    # A -> U.A with its columns permuted and γ -> U.γ: the facet values move
    # with the relabelled facets, and every verdict string stays; the dres
    # bounds are not compared, since their face and power follow the order
    # in which the faces are walked
    monkeypatch.setattr(sg, "DEFAULT_BUDGET", 20_000)
    rng = random.Random(11)
    compared = 0
    for m, gamma in _span_draws(4, 150):
        if not any(any(r) for r in m):
            continue
        n, N = len(m), len(m[0])
        U = _unimodular(rng, n)
        perm = rng.sample(range(N), N)  # column k of the image is U times column perm[k]
        image = [[sum(U[i][t] * m[t][perm[k]] for t in range(n)) for k in range(N)]
                 for i in range(n)]
        image_gamma = tuple(sum(U[i][t] * gamma[t] for t in range(n)) for i in range(n))
        config, moved = Configuration(m), Configuration(image)
        try:
            want = [rs.SET_VERDICTS[name](config, gamma) for name in rs.SET_NAMES]
        except ComputationLimitError:
            continue
        got = [rs.SET_VERDICTS[name](moved, image_gamma) for name in rs.SET_NAMES]
        assert got == want, (m, gamma, U, perm)
        relabel = {j: k for k, j in enumerate(perm)}
        p, q = rs.classify(config, gamma), rs.classify(moved, image_gamma)
        assert sorted((tuple(sorted(relabel[j] for j in idx)), v) for idx, v in p.facet_values) \
            == sorted(q.facet_values), (m, gamma, U, perm)
        assert (p.is_nonresonant, p.is_weak, p.is_semi) == (q.is_nonresonant, q.is_weak, q.is_semi)
        compared += 1
    assert compared >= 130


def _index_draws(seed, count):
    """Seeded T·A: A of 2-3 rows, at most 5 columns and entries in [-3, 3],
    T a unimodular map with one row scaled by 2-4 (|det T| of 2-4); every
    third gains a row v·T·A (n > rank) put anywhere, every third a column's
    negative (a line in the cone)."""
    rng = random.Random(seed)
    for i in range(count):
        rows, cols = rng.randint(2, 3), rng.randint(2, 5)
        a = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        t = _unimodular(rng, rows)
        k = rng.randrange(rows)
        t[k] = [rng.randint(2, 4) * x for x in t[k]]
        m = [[sum(x * r[j] for x, r in zip(row, a)) for j in range(cols)] for row in t]
        if i % 3 == 1:
            v = [rng.randint(-2, 2) for _ in m]
            m.insert(rng.randint(0, rows), [sum(c * r[j] for c, r in zip(v, m))
                                            for j in range(cols)])
        elif i % 3 == 2:
            j = rng.randrange(cols)
            for r in m:
                r.append(-r[j])
        yield m


def test_one_question_per_class_matches_references_with_fewer_searches(monkeypatch):
    # in_sres and in_dres against the per-shift and per-level references on
    # T·A draws, faces with torsion in (ℚF ∩ ℤA)/ℤF among them (where the
    # class bijection of the sres proof moves the candidates): the same
    # verdicts and bounds, and per γ no more membership searches
    monkeypatch.setattr(sg, "DEFAULT_BUDGET", 20_000)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return sg.member(*args, **kwargs)
    monkeypatch.setattr(dg, "member", counted)

    def run(fn, *args):
        calls.clear()
        try:
            return fn(*args), len(calls)
        except ComputationLimitError as exc:
            return ("limit", exc.stage, exc.used, exc.limit), len(calls)

    def sres(test):
        return lambda config, gamma: (rs._word(test(config, gamma)), {})

    def dres(certificate):
        def verdict(config, gamma):
            with monkeypatch.context() as patch:
                patch.setattr(rs, "_dres_certificate", certificate)
                d = rs.in_dres(config, gamma)
            return d.verdict, d.bounds
        return verdict
    pairs = [("sres", sres(rs.in_sres), sres(_per_shift_sres)),
             ("dres", dres(rs._dres_certificate), dres(_per_level_dres_certificate))]
    rng = random.Random(29)
    seen = dict.fromkeys(["torsion faces", "n > rank", "non-pointed", "sres", "dres"], 0)
    totals = {"sres": [0, 0], "dres": [0, 0]}
    for matrix in _index_draws(29, 100):
        try:
            config = Configuration(matrix)
            config.is_normal()
            dg.conductor_multiplier(config)
        except (DomainError, ComputationLimitError):
            continue
        seen["torsion faces"] += sum(len(face.deltas) > 1 for face in config.all_faces())
        seen["n > rank"] += config.n > config.rank
        seen["non-pointed"] += not config.is_pointed()
        for _ in range(4):
            den = rng.choice([1, 1, 2])
            coeffs = [Fraction(rng.randint(-3, 3), den) for _ in config.cols]
            gamma = tuple(sum(c * a[i] for c, a in zip(coeffs, config.cols))
                          for i in range(config.n))
            for name, test, reference in pairs:
                got, n_got = run(test, config, gamma)
                want, n_want = run(reference, config, gamma)
                if want[0] == "limit" and got[0] != "limit":
                    continue  # the reference passed its budget, and one question answers
                assert got == want, (matrix, gamma, name)
                assert n_got <= n_want, (matrix, gamma, name)
                totals[name][0] += n_got
                totals[name][1] += n_want
                seen[name] += got[0] == "true"
    assert all(got < want for got, want in totals.values()), totals
    assert min(seen.values()) >= 10, seen


def test_sres_answers_where_the_per_shift_search_passes_its_budget():
    # k* = 14; asked at every shift, this γ sends one membership search past
    # the default 200 000 states, while one question per class answers
    config = Configuration([[-1, -3, 1, 3], [0, -2, -2, -3], [0, 0, -2, 2]])
    assert not rs.in_sres(config, (2, -34, 6))
    assert dg.conductor_multiplier(config) == 14
