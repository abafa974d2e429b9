"""Agreement between the production path and the independent brute-force path."""

import json
import random
from fractions import Fraction

import pytest

from gkzfactors import bruteforce as bf
from gkzfactors import cli
from gkzfactors import degrees as dg
from gkzfactors import factors as fa
from gkzfactors import intlin as il
from gkzfactors import resonance as rs
from gkzfactors.cones import Configuration
from gkzfactors.errors import ComputationLimitError, DomainError


def test_bf_facets_match_production():
    for m in ([[2, 3]], [[1, 1, 0], [0, 1, 2]], [[1, 0, 1], [0, 2, 1]],
              [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, -1]]):
        config = Configuration(m)
        prod = {f.face.indices for f in config.facets()}
        oracle = {idx for idx, _ in bf.bf_facets(m)}
        assert prod == oracle, m


def test_bf_hilbert_basis_matches_production():
    fixtures = [json.loads(p.read_text())["matrix"] for p in cli._fixture_files()]
    rng = random.Random(20240602)
    randoms = []
    while len(randoms) < 20:
        n, N = rng.randint(2, 3), rng.randint(3, 5)
        # a positive first row keeps the cone pointed
        m = [[rng.randint(1, 2) for _ in range(N)]]
        m += [[rng.randint(-2, 2) for _ in range(N)] for _ in range(n - 1)]
        randoms.append(m)
    rng = random.Random(20261018)
    for _ in range(3):  # 4-row draws; the oracle's facet search takes about 1 s each
        N = rng.randint(4, 5)
        randoms.append([[1] * N] + [[rng.randint(-1, 1) for _ in range(N)] for _ in range(3)])
    randoms += [m[::-1] for m in randoms[:4]]  # the positive row last
    for m in randoms[:6]:  # repeated rays (columns a and 2a), then a zero column
        a = rng.randrange(len(m[0]))
        randoms.append([row + [2 * row[a]] for row in m])
        randoms.append([row + [0] for row in m])
    for m in fixtures + randoms:
        config = Configuration(m)
        assert config.is_pointed(), m
        assert sorted(config.saturation_hilbert_basis()) == bf.bf_hilbert_basis(m), m


def test_gap_components_match_hole_oracle():
    # the fixtures, two deep gap searches, the monomial curves, and pointed
    # seeded draws whose facets bf_facets finds (the draws of the Hilbert
    # basis test)
    matrices = [json.loads(p.read_text())["matrix"] for p in cli._fixture_files()]
    matrices += [[[1, 1, 1, 1, 1], [3, -1, 1, 3, 1], [1, 3, -1, 0, 2]], [[2, 2, 3, 3], [0, 0, 3, 2]]]
    # the monomial curves [0, a, b, c], 0 < a < b < c <= 5
    matrices += [[[1, 1, 1, 1], [0, a, b, c]]
                 for a in range(1, 6) for b in range(a + 1, 6) for c in range(b + 1, 6)]
    rng = random.Random(20240602)
    for _ in range(20):
        n, N = rng.randint(2, 3), rng.randint(3, 5)
        m = [[rng.randint(1, 2) for _ in range(N)]]
        m += [[rng.randint(-2, 2) for _ in range(N)] for _ in range(n - 1)]
        matrices.append(m)
    depth, compared = 2, 0
    for m in matrices:
        try:
            comps = dg.qdeg_components(dg.gap_family(), Configuration(m))
        except ComputationLimitError:
            continue  # the facet-value box is over budget: exit 3, no answer
        compared += 1
        cols = [tuple(c) for c in zip(*m)]
        hs = [h for _zero, h in bf.bf_facets(m)]

        def s(x):
            return sum(il.dot(h, x) for h in hs)
        # large enough to hold every base + depth steps along its face
        radius = max([6] + [s(c.base) + depth * max([s(cols[j]) for j in c.face.indices] + [0])
                            for c in comps])
        holes = bf.bf_gap_holes(m, int(radius))
        for c in comps:  # sound: base + NF stays among the holes
            assert bf._bf_ray_inside(c.base, [cols[j] for j in c.face.indices], holes, depth), \
                (m, c)
        for h in holes:  # complete: every hole lies in some component's class
            assert any(bf._bf_in_span([cols[j] for j in c.face.indices], il.vsub(h, c.base))
                       for c in comps), (m, h)
    assert compared >= 30


def test_region_agreement_coprime_pair():
    m = [[2, 3]]
    config = Configuration(m)
    for name in ("res", "sres", "dres", "SRes", "DRes"):
        grid = rs.region_scan(config, name, [(-6, 6)], 1)
        prod = {int(c["gamma"][0]): c["verdict"] for c in grid}
        oracle = {c["gamma"][0]: c["verdict"] for c in bf.bf_region(m, name, [(-6, 6)])}
        for g, want in oracle.items():
            got = prod[g]
            if got == "false_up_to_bounds":
                got = "false"  # the oracle confirms the bounded negative
            assert got == want, (name, g, got, want)


def test_region_agreement_wedge():
    m = [[1, 1, 0], [0, 1, 2]]
    config = Configuration(m)
    box = [(-2, 2), (-2, 2)]
    cfg = bf.OracleConfig(box_radius=6, shift_bound=8, power_bound=4)
    for name in ("sres", "dres"):
        grid = rs.region_scan(config, name, box, 1)
        prod = {tuple(int(x) for x in c["gamma"]): c["verdict"] for c in grid}
        for cell in bf.bf_region(m, name, box, cfg):
            got = prod[cell["gamma"]]
            if got == "false_up_to_bounds":
                got = "false"
            assert got == cell["verdict"], (name, cell, got)


def test_pullback_counts_match_oracle():
    cases = [
        ([[0, 0], [2, 1]], (0,), (0, 0)),
        ([[1, 0, 1], [0, 2, 1]], (0,), (0, 0)),
        ([[1, 0, 1], [0, 2, 1]], (1,), (0, 0)),
        ([[1, 0, 1], [0, 2, 1]], (), (0, 0)),
        ([[1, 0, 1], [0, 2, 1]], (1,), (Fraction(1, 2), 0)),
        ([[2, 3]], (), (0,)),
        ([[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, -1]], (0, 2), (0, 0, 0)),
        ([[3]], (), (0,)),
        ([[2, 2], [0, 2]], (0,), (0, 0)),
    ]
    for matrix, face_idx, rep in cases:
        config = Configuration(matrix)
        cls = fa.class_of(config, tuple(range(config.N)), rep)
        sols = fa.pullback_solutions(config, face_idx, cls)
        oracle = bf.bf_pullback_count(matrix, face_idx, rep, 12)
        assert len(sols) == oracle, (matrix, face_idx, rep, len(sols), oracle)
        # each solution's representative differs from rep by a vector of ZA ∩ QF
        basis = bf._bf_lattice_basis(config.cols, config.n)
        fcols = [config.cols[j] for j in face_idx]
        assert all(bf._bf_in_lattice(basis, d) and bf._bf_in_span(fcols, d)
                   for d in (il.vsub(s.representative, cls.representative) for s in sols))


def test_bf_pullback_order_bound():
    with pytest.raises(DomainError):
        bf.bf_pullback_count([[2, 3]], (), (Fraction(1, 24),), 12)


def test_property_suite_passes():
    report = bf.property_suite(instances=10)
    assert report.instances > 0
    assert report.ok, report.failures


def test_property_suite_notes_resonance_budget(monkeypatch):
    # under a 30-state membership budget the third instance of seed 3
    # (511025150) overruns inside in_sres; the suite notes it per γ and
    # finishes the instance's other checks
    from gkzfactors import semigroup

    monkeypatch.setattr(semigroup, "DEFAULT_BUDGET", 30)
    report = bf.property_suite(bf.OracleConfig(seed=3), instances=3)
    assert report.instances == 3
    assert any(": resonance budget (" in n for n in report.notes), report.notes
    assert report.ok, report.failures


def test_property_suite_reports_degenerate():
    cfg = bf.OracleConfig(seed=5, max_n=1, max_cols=1, coeff_bound=1)
    report = bf.property_suite(cfg, instances=30)
    # with 1x1 matrices in {-1,0,1} some zero instances must occur
    assert any("degenerate" in n for n in report.notes)


def test_property_suite_propagates_unexpected_errors(monkeypatch):
    from gkzfactors import degrees

    cfg = bf.OracleConfig(seed=5, max_n=1, max_cols=1, coeff_bound=1)

    def boom(*args, **kwargs):
        raise RuntimeError("unexpected")

    # a crash while building a configuration is not a degenerate instance
    monkeypatch.setattr(bf, "Configuration", boom)
    with pytest.raises(RuntimeError):
        bf.property_suite(cfg, instances=30)
    monkeypatch.undo()
    # a crash in the component extraction is not a budget overrun
    monkeypatch.setattr(degrees, "qdeg_components", boom)
    with pytest.raises(RuntimeError):
        bf.property_suite(cfg, instances=30)


def test_oracle_config_validation():
    with pytest.raises(DomainError):
        bf.OracleConfig(box_radius=0)
