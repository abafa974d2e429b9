"""Acceptance checks: one end-to-end criterion per test, one verdict line each.

Each test prints a single ``ACCEPTANCE n ...: PASS`` line when its assertions
hold (run pytest with ``-s`` to see the lines as they happen); a failure shows
up as an ordinary pytest failure for that criterion.
"""

import random
import time
from fractions import Fraction

from fourier_motzkin import fm_query

from gkzfactors import bruteforce as bf
from gkzfactors import factors as fa
from gkzfactors import resonance as rs
from gkzfactors.cones import Configuration
from gkzfactors.errors import NonPointedError
from gkzfactors.semigroup import member

LINE = [[2, 3]]
WEDGE = [[1, 1, 0], [0, 1, 2]]
A46 = [[1, 0, 1], [0, 2, 1]]
A54 = [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, -1]]


def _announce(n: int, title: str, t0: float, limit: float):
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, f"criterion {n} took {elapsed:.2f}s (limit {limit}s)"
    print(f"ACCEPTANCE {n} ({title}): PASS [{elapsed:.2f}s]")


def _true_points_1d(config, name, lo, hi):
    return {int(c["gamma"][0])
            for c in rs.region_scan(config, name, [(lo, hi)], 1)
            if c["verdict"] == "true"}


def test_criterion_1_line_segment_sets():
    t0 = time.perf_counter()
    config = Configuration(LINE)
    assert _true_points_1d(config, "sres", -6, 6) == set(range(-6, 0)) | {1}
    assert _true_points_1d(config, "dres", -6, 6) == set(range(2, 7))
    assert _true_points_1d(config, "SRes", -6, 6) == set(range(-6, 0))
    assert _true_points_1d(config, "DRes", -6, 6) == set(range(1, 7))
    _announce(1, "rank-1 resonance sets on [-6,6]", t0, 1.0)


def test_criterion_2_wedge_sets():
    t0 = time.perf_counter()
    config = Configuration(WEDGE)
    box = [(-2, 2), (-2, 2)]
    sampled = 0
    for cell in rs.region_scan(config, "sres", box, 1):
        x, y = (int(v) for v in cell["gamma"])
        want = "true" if (x <= 0 or y <= -1) else "false"
        assert cell["verdict"] == want, (x, y, cell["verdict"])
        sampled += 1
    for cell in rs.region_scan(config, "dres", box, 1):
        x, y = (int(v) for v in cell["gamma"])
        want = x >= 1 or y >= 1
        got = cell["verdict"] == "true"
        assert got is want, (x, y, cell["verdict"])
        sampled += 1
    assert sampled >= 12
    _announce(2, f"rank-2 wedge sets, {sampled} points", t0, 5.0)


def test_criterion_3_nonnormal_wedge_pipeline():
    t0 = time.perf_counter()
    config = Configuration(A46)
    gamma = (Fraction(0), Fraction(0))

    normal, hole = config.is_normal()
    assert normal is False and tuple(hole) == (0, 1)
    assert sorted(config.saturation_hilbert_basis()) == [(0, 1), (1, 0)]

    prof = rs.classify(config, gamma)
    assert not prof.is_nonresonant and prof.is_weak and prof.is_semi

    dmod = fa.dmod_report(config, gamma)
    assert dmod.certification == "isomorphism"
    assert [(lbl.face_indices, lbl.cls.order) for lbl in dmod.factors[1]] == \
        [((0,), 1), ((1,), 1)]

    perv = fa.perverse_report(config, fa.trivial_class(config))
    assert [(lbl.face_indices, lbl.cls.order) for lbl in perv.factors[1]] == \
        [((0,), 1), ((1,), 1), ((1,), 2)]

    gap = fa.gap_factor_candidates(config)
    assert len(gap) == 1 and gap[0].face_indices == (1,) and gap[0].cls.order == 2

    cmp = fa.rh_compare(config, gamma)
    assert not cmp.matched
    counts = [(lv["dmod_count"], lv["perverse_count"]) for lv in cmp.levels]
    assert counts == [(1, 1), (2, 3), (1, 1)]
    _announce(3, "non-normal wedge full pipeline", t0, 5.0)


def test_criterion_4_folded_cube_pipeline():
    t0 = time.perf_counter()
    config = Configuration(A54)
    gamma = (Fraction(0),) * 3

    facets = {f.face.indices: tuple(f.l) for f in config.facets()}
    assert facets == {(0, 2): (0, 1, 0), (0, 3): (0, 1, 1),
                      (1, 2): (1, 0, 0), (1, 3): (1, 0, 1)}
    normal, _ = config.is_normal()
    assert normal is True

    prof = rs.classify(config, gamma)
    assert prof.is_weak and not prof.is_nonresonant

    dmod = fa.dmod_report(config, gamma)
    assert dmod.certification == "epimorphism-only"
    assert dmod.flags["simplicial_resonant_facets"] is False
    assert len(dmod.factors[2]) == 4  # exceeds the exterior-power count 3

    perv = fa.perverse_report(config, fa.trivial_class(config))
    assert len(perv.factors[2]) == 4
    assert any("exceed the exterior-power count 3" in n for n in perv.notes)

    cmp = fa.rh_compare(config, gamma)
    assert cmp.matched and cmp.asserted
    counts = [lv["dmod_count"] for lv in cmp.levels]
    assert counts == [1, 4, 4, 1]
    _announce(4, "non-simplicial cube pipeline", t0, 5.0)


def test_criterion_5_oracle_equivalence():
    t0 = time.perf_counter()

    # membership: production decision vs exhaustive search, >= 500 queries
    # within 20 draws per query (a draw that is not pointed is skipped)
    rng = random.Random(97531)
    R = 8
    queries = 0
    for _draw in range(20 * 500):
        if queries >= 500:
            break
        n = rng.randint(1, 3)
        gens = tuple(tuple(rng.randint(0, 3) for _ in range(n))
                     for _ in range(rng.randint(1, 4)))
        lats = ((tuple(rng.randint(-2, 2) for _ in range(n)),)
                if rng.random() < 0.25 else ())
        shift = tuple(rng.randint(0, 2) for _ in range(n))
        target = tuple(rng.randint(-3, 8) for _ in range(n))
        target = tuple(t - s for t, s in zip(target, shift))  # shift + ℕS + ℤL, asked unshifted
        try:
            q = fm_query(gens, lats)
            got, witness = member(q, target, witness=True)
        except NonPointedError:
            continue
        if got:
            box = max([R] + [abs(c) for c in witness["generators"]]
                      + [abs(c) for c in witness["lattice"]])
            assert bf.bf_member(q, target, box), (q, target)
        else:
            assert not bf.bf_member(q, target, R), (q, target)
        queries += 1
    assert queries >= 500

    # resonance regions: production scans agree with the definitional oracle
    config = Configuration(LINE)
    for name in ("sres", "dres", "SRes", "DRes"):
        oracle = {c["gamma"][0]: c["verdict"]
                  for c in bf.bf_region(LINE, name, [(-6, 6)])}
        for cell in rs.region_scan(config, name, [(-6, 6)], 1):
            got = cell["verdict"]
            if got == "false_up_to_bounds":
                got = "false"  # the oracle certifies the bounded negative
            assert got == oracle[int(cell["gamma"][0])], (name, cell)

    wconfig = Configuration(WEDGE)
    wcfg = bf.OracleConfig(box_radius=6, shift_bound=8, power_bound=4)
    for name in ("sres", "dres"):
        oracle = {c["gamma"]: c["verdict"]
                  for c in bf.bf_region(WEDGE, name, [(-2, 2), (-2, 2)], wcfg)}
        for cell in rs.region_scan(wconfig, name, [(-2, 2), (-2, 2)], 1):
            key = tuple(int(x) for x in cell["gamma"])
            got = cell["verdict"]
            if got == "false_up_to_bounds":
                got = "false"
            assert got == oracle[key], (name, cell)

    # pullback character counts against direct enumeration up to order 12
    for matrix in (A46, A54, [[0, 0], [2, 1]]):
        config = Configuration(matrix)
        triv = fa.trivial_class(config)
        for face in config.all_faces():
            prod = len(fa.pullback_solutions(config, face.indices, triv))
            oracle = bf.bf_pullback_count(matrix, face.indices,
                                          triv.representative, 12)
            assert prod == oracle, (matrix, face.indices)
    _announce(5, "brute-force oracle equivalence", t0, 120.0)


def test_criterion_6_property_suite():
    t0 = time.perf_counter()
    report = bf.property_suite(instances=12)
    assert report.instances >= 8
    assert report.checks >= 50
    assert report.ok, report.failures
    _announce(6, f"randomized invariants, {report.checks} checks", t0, 120.0)
