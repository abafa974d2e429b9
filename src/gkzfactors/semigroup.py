"""Decidable membership in sets of the form shift + N.S + Z.L.

The engine behind all degree-set computations: quotient by the lattice part
(torsion carried as finite coordinates via Smith normal form), then a search
from the target bounded by a strictly positive rational functional on the
pointed quotient cone.  Pointedness certifies termination.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from . import intlin as il
from .errors import ComputationLimitError, DimensionMismatchError, NonPointedError

DEFAULT_BUDGET = 200_000


@dataclass(frozen=True)
class MembershipQuery:
    """target ∈ shift + N.generators + Z.lattice_part, all data integral."""

    shift: tuple
    generators: tuple
    lattice_part: tuple = ()

    def __post_init__(self):
        dims = {len(self.shift)}
        dims.update(len(g) for g in self.generators)
        dims.update(len(v) for v in self.lattice_part)
        if len(dims) != 1:
            raise DimensionMismatchError("membership query mixes ambient dimensions")

    @property
    def dim(self) -> int:
        return len(self.shift)


def find_positive_functional(vectors, dim: int):
    """Rational w with w.v >= 1 for every v in vectors, or None.

    Fourier-Motzkin elimination with witness back-substitution; exact.
    """
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        return tuple(Fraction(0) for _ in range(dim))
    # constraints: sum_j w_j * v[j] >= 1, stored as (coeffs, const): coeffs.w >= const
    cons = [([Fraction(x) for x in v], Fraction(1)) for v in vectors]
    stack = []
    for var in range(dim - 1, -1, -1):
        pos, neg, rest = [], [], []
        for coeffs, c in cons:
            a = coeffs[var]
            if a > 0:
                pos.append((coeffs, c))
            elif a < 0:
                neg.append((coeffs, c))
            else:
                rest.append((coeffs, c))
        stack.append((var, pos, neg))
        new = rest
        for pc, pconst in pos:
            for nc, nconst in neg:
                a, b = pc[var], -nc[var]
                coeffs = [b * x + a * y for x, y in zip(pc, nc)]
                coeffs[var] = Fraction(0)
                new.append((coeffs, b * pconst + a * nconst))
        cons = new
    for coeffs, c in cons:
        if c > 0:  # 0 >= c > 0: infeasible
            return None
    w = [Fraction(0)] * dim
    for var, pos, neg in reversed(stack):
        lo, hi = None, None
        for coeffs, c in pos:
            bound = (c - sum(coeffs[j] * w[j] for j in range(dim) if j != var)) / coeffs[var]
            lo = bound if lo is None or bound > lo else lo
        for coeffs, c in neg:
            bound = (c - sum(coeffs[j] * w[j] for j in range(dim) if j != var)) / coeffs[var]
            hi = bound if hi is None or bound < hi else hi
        if lo is None and hi is None:
            w[var] = Fraction(0)
        elif lo is None:
            w[var] = hi - 1
        elif hi is None:
            w[var] = lo
        else:
            w[var] = (lo + hi) / 2
    return tuple(w)


@dataclass
class _Reduced:
    quotient: il.LatticeQuotient
    gen_images: list  # list of (free, torsion) pairs per generator
    w: tuple  # positive functional on nonzero free images


def _reduce(q: MembershipQuery) -> _Reduced:
    quot = il.quotient(q.dim, q.lattice_part)
    gen_images = [quot.project(g) for g in q.generators]
    nonzero_free = [f for f, _t in gen_images if not il.is_zero_vec(f)]
    w = find_positive_functional(nonzero_free, quot.free_rank)
    if w is None:
        raise NonPointedError("cone of generators is not pointed modulo the lattice part")
    return _Reduced(quot, gen_images, w)


def member(q: MembershipQuery, target, budget: int = DEFAULT_BUDGET,
           witness: bool = False):
    """Exact decision of target ∈ shift + N.S + Z.L.

    With witness=True returns (verdict, coefficients) where coefficients is a
    dict {"generators": [n_1..], "lattice": [m_1..]} for a true verdict.
    """
    target = tuple(target)
    if len(target) != q.dim:
        raise DimensionMismatchError("member: target dimension differs from query")
    red = _reduce(q)
    quot, w = red.quotient, red.w
    t0 = il.vsub(target, q.shift)
    start = quot.project(t0)

    goal = (tuple(0 for _ in range(quot.free_rank)), tuple(0 for _ in quot.torsion))

    def wval(state):
        return sum(a * b for a, b in zip(w, state[0]))

    if wval(start) < 0:
        return (False, None) if witness else False

    seen = {start: None}  # state -> (previous state, generator index)
    dq = deque([start])
    found = start == goal
    while dq and not found:
        state = dq.popleft()
        free, tor = state
        for gi, (gf, gt) in enumerate(red.gen_images):
            nfree = il.vsub(free, gf)
            ntor = tuple((a - b) % d for a, b, d in zip(tor, gt, quot.torsion))
            nstate = (nfree, ntor)
            if nstate in seen:
                continue
            if sum(a * b for a, b in zip(w, nfree)) < 0:
                continue
            seen[nstate] = (state, gi)
            if len(seen) > budget:
                raise ComputationLimitError("membership search exceeded budget")
            if nstate == goal:
                found = True
                break
            dq.append(nstate)
    if not found:
        return (False, None) if witness else False
    if not witness:
        return True
    counts = [0] * len(q.generators)
    state = goal
    while seen[state] is not None:
        state, gi = seen[state]
        counts[gi] += 1
    used = t0
    for gi, c in enumerate(counts):
        used = il.vsub(used, il.vscale(c, q.generators[gi]))
    lat = il.lattice_coordinates(list(q.lattice_part), used)
    assert lat is not None, "witness reconstruction must land in the lattice part"
    return True, {"generators": counts, "lattice": lat}
