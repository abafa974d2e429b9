import itertools
import random

import pytest

from fourier_motzkin import fm_query

from gkzfactors import bruteforce as bf
from gkzfactors import intlin as il
from gkzfactors import semigroup as sg
from gkzfactors.errors import ComputationLimitError, NonPointedError
from gkzfactors.semigroup import member


def q46():
    return fm_query(((1, 0), (0, 2), (1, 1)))


def test_member_examples():
    q = q46()
    assert member(q, (3, 4))
    assert not member(q, (0, 1))
    assert member(q, (0, 0))


def test_member_witness():
    q = q46()
    ok, w = member(q, (3, 4), witness=True)
    assert ok
    counts = w["generators"]
    got = tuple(sum(c * g[i] for c, g in zip(counts, q.generators))
                for i in range(2))
    assert got == (3, 4)


def test_member_with_lattice_part():
    q = fm_query(((2,),), ((5,),))
    assert member(q, (9,))      # 2*2 + 1*5
    assert member(q, (-1,))     # 4 - 5
    assert not member(fm_query(((2,),)), (-1,))


def test_member_budget(monkeypatch):
    q = fm_query(((1, 0),))
    monkeypatch.setattr(sg, "DEFAULT_BUDGET", 10)
    with pytest.raises(ComputationLimitError):
        member(q, (10**6, 10**6))


def test_member_budget_counts_states_seen(monkeypatch):
    # the search on q46 sees exactly 25 states for (3, 4) and 9 for (0, 5);
    # the start state counts, and the budget bounds len(seen) from above
    q = q46()
    for target, seen, verdict in (((3, 4), 25, True), ((0, 5), 9, False)):
        monkeypatch.setattr(sg, "DEFAULT_BUDGET", seen)
        assert member(q, target) is verdict
        monkeypatch.setattr(sg, "DEFAULT_BUDGET", seen - 1)
        with pytest.raises(ComputationLimitError) as info:
            member(q, target)
        exc = info.value
        assert (exc.stage, exc.used, exc.limit) == ("semigroup.member", seen, seen - 1)
        assert f"used {seen}, limit {seen - 1}" in str(exc)


def test_member_torsion_with_fractional_functional():
    # Z^3 / Z(2,0,4) has torsion Z/2, and the positive functional found on
    # the free images is (3/8, -1/8), so the search runs on scaled heights
    # (the set is shift + ℕS + ℤL, asked as target − shift ∈ ℕS + ℤL)
    q, shift = fm_query(((1, 2, 0), (0, 3, 1), (3, 1, 0)), ((2, 0, 4),)), (0, 1, 0)
    trues = 0
    for target in itertools.product(range(-2, 5), repeat=3):
        t0 = il.vsub(target, shift)
        got, witness = member(q, t0, witness=True)
        assert member(q, t0) is got
        if not got:
            assert not bf.bf_member(q, t0, 8), target
            continue
        trues += 1
        box = max([8] + [abs(c) for c in witness["generators"]]
                  + [abs(c) for c in witness["lattice"]])
        assert bf.bf_member(q, t0, box), target
        point = shift
        for c, g in zip(witness["generators"], q.generators, strict=True):
            point = tuple(p + c * x for p, x in zip(point, g))
        for c, v in zip(witness["lattice"], q.lattice_part, strict=True):
            point = tuple(p + c * x for p, x in zip(point, v))
        assert point == target
    assert trues == 7


def test_member_agrees_with_oracle_randomized():
    # the oracle is exhaustive only inside its coefficient box, so the box is
    # sized from the production witness whenever membership holds; draws
    # are capped at 20 per wanted agreement, so a search that rejects every
    # draw as not pointed fails here instead of looping forever
    rng = random.Random(1847)
    R = 8
    agreements = 0
    for _draw in range(20 * 500):
        if agreements >= 500:
            break
        n = rng.randint(1, 3)
        N = rng.randint(1, 4)
        gens = tuple(tuple(rng.randint(0, 3) for _ in range(n))
                     for _ in range(N))
        lats = ()
        if rng.random() < 0.3:
            lats = (tuple(rng.randint(-2, 2) for _ in range(n)),)
        shift = tuple(rng.randint(0, 2) for _ in range(n))
        coeffs = [rng.randint(0, 2) for _ in gens]
        base = tuple(shift[i] + sum(c * g[i] for c, g in zip(coeffs, gens))
                     for i in range(n))
        noise = tuple(rng.randint(-2, 2) for _ in range(n))
        for target in (base, tuple(b + x for b, x in zip(base, noise))):
            target = il.vsub(target, shift)  # shift + ℕS + ℤL, asked unshifted
            try:
                q = fm_query(gens, lats)
                got, witness = member(q, target, witness=True)
            except NonPointedError:
                break  # lattice part swallows a generator direction; skip
            if got:
                box = max([R] + [abs(c) for c in witness["generators"]]
                          + [abs(c) for c in witness["lattice"]])
                assert bf.bf_member(q, target, box), (q, target)
            else:
                assert not bf.bf_member(q, target, R), (q, target)
            agreements += 1
    assert agreements >= 500
