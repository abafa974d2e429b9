"""Decidable membership in sets of the form shift + N.S + Z.L.

The engine behind all degree-set computations: quotient by the lattice part
(torsion carried as finite coordinates via Smith normal form), then a
breadth-first search from the target down by the generators, bounded by a
strictly positive functional on the pointed quotient cone.  Pointedness
certifies termination.

The reduction (quotient, generator images, heights) depends only on the
generators, the lattice part and the functional, so a query computes it once
and reuses it for every target; `cones.FaceData.query` keeps one query per
face and generator set.  Every query brings its functional: a face query
takes the sum of the facet witnesses over the face.  Each generator's
integer height is precomputed, and the search carries integer heights and
integer state keys, so it does no rational arithmetic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from math import prod
from operator import mul

from . import intlin as il
from .errors import ComputationLimitError, DimensionMismatchError, NonPointedError

DEFAULT_BUDGET = 200_000


@dataclass(frozen=True)
class MembershipQuery:
    """target ∈ shift + N.generators + Z.lattice_part, all data integral."""

    shift: tuple
    generators: tuple
    lattice_part: tuple
    # an integer h on the ambient space, zero on the lattice part and
    # positive on every generator outside its span
    functional: tuple

    def __post_init__(self):
        dims = {len(self.shift)}
        dims.update(len(g) for g in self.generators)
        dims.update(len(v) for v in self.lattice_part)
        dims.add(len(self.functional))
        if len(dims) != 1:
            raise DimensionMismatchError("membership query mixes ambient dimensions")

    @property
    def dim(self) -> int:
        return len(self.shift)

    @cached_property
    def reduced(self) -> "_Reduced":
        """The reduction shared by every target, computed on first use."""
        return _Reduced(self, il.quotient(self.dim, self.lattice_part))


class _Reduced:
    """The part of a query that every target shares, in integers.

    Each generator's free and torsion image in the quotient by the lattice
    part, and its height under an integer functional w on the free part: a
    state's height is w.free, a step down by a generator lowers it by that
    generator's height, and a step to a negative height is pruned.  With h
    the query's functional, w_i = h(section(e_i, 0)); h vanishes on the
    lattice part, hence on torsion, so w.free(g) = h(g).  A nonzero free
    image must have height >= 1, or the query is not pointed.  `quot` is
    the ambient space modulo the lattice part, which a face shares among
    its queries (`cones.FaceData.query`).
    """

    def __init__(self, q: MembershipQuery, quot: il.LatticeQuotient):
        self.images = [quot.project(g) for g in q.generators]
        zero = (0,) * len(quot.torsion)
        self.w = tuple(il.dot(q.functional, quot.section(e, zero))
                       for e in il.identity(quot.free_rank))
        self.heights = [sum(map(mul, self.w, f)) for f, _t in self.images]
        if any(h <= 0 for (f, _t), h in zip(self.images, self.heights) if not il.is_zero_vec(f)):
            raise NonPointedError("cone of generators is not pointed modulo the lattice part")
        self.quotient = quot
        # a nonzero free image has height >= 1, a zero one height 0, so a
        # state of height >= 0 reached from height h differs from the start
        # by at most h * max |f_i| / h_f in free coordinate i
        self.spread = [[(abs(f[i]), h) for (f, _t), h in zip(self.images, self.heights) if h]
                       for i in range(quot.free_rank)]
        self.order = quot.torsion_order()
        self.places = [prod(quot.torsion[:k]) for k in range(len(quot.torsion))]

    def keys(self, free, tor, height: int):
        """(start key, goal key, per-generator free decrements) of one search.

        Each state is one integer key: the torsion index in the lowest place,
        then free coordinate i shifted into [0, 2R_i], where R_i bounds its
        distance from the start over all states of height >= 0.  The goal
        (free part zero) gets key -1 when it is out of range, hence
        unreachable.
        """
        place = self.order
        start = sum(map(mul, tor, self.places))
        goal = 0
        codes = [0] * len(self.images)
        for i, s in enumerate(free):
            reach = max((-(-height * a // h) for a, h in self.spread[i]), default=0)
            start += reach * place
            if goal >= 0:
                goal = goal + (reach - s) * place if abs(s) <= reach else -1
            for gi, (f, _t) in enumerate(self.images):
                codes[gi] += f[i] * place
            place *= 2 * reach + 1
        return start, goal, codes

    def moves(self, t: int, codes) -> list:
        """(generator index, key decrement, height) for each step from torsion index t."""
        torsion, places = self.quotient.torsion, self.places
        digits = [t // p % d for p, d in zip(places, torsion)]
        out = []
        for gi, ((_f, u), code, h) in enumerate(zip(self.images, codes, self.heights)):
            nt = sum(((a - b) % d) * p for a, b, d, p in zip(digits, u, torsion, places))
            out.append((gi, code + t - nt, h))
        return out


def member(q: MembershipQuery, target, witness: bool = False):
    """Exact decision of target ∈ shift + N.S + Z.L, seeing at most
    DEFAULT_BUDGET search states.

    With witness=True returns (verdict, coefficients) where coefficients is a
    dict {"generators": [n_1..], "lattice": [m_1..]} for a true verdict.
    """
    target = tuple(target)
    if len(target) != q.dim:
        raise DimensionMismatchError("member: target dimension differs from query")
    red = q.reduced
    budget = DEFAULT_BUDGET  # read per call, so lowering the constant takes effect
    t0 = il.vsub(target, q.shift)
    free, tor = red.quotient.project(t0)
    height = sum(map(mul, red.w, free))
    if height < 0:
        return (False, None) if witness else False

    start, goal, codes = red.keys(free, tor, height)
    order = red.order
    seen = {start: None}  # key -> (previous key, generator index)
    dq = deque([(start, height)])
    table: dict = {}  # torsion index -> moves
    found = start == goal
    while dq and not found:
        state, height = dq.popleft()
        t = state % order
        moves = table.get(t)
        if moves is None:
            moves = table[t] = red.moves(t, codes)
        for gi, step, gh in moves:
            nheight = height - gh
            if nheight < 0:
                continue
            nstate = state - step
            if nstate in seen:
                continue
            seen[nstate] = (state, gi)
            if len(seen) > budget:
                raise ComputationLimitError("membership search exceeded budget",
                                            stage="semigroup.member",
                                            used=len(seen), limit=budget)
            if nstate == goal:
                found = True
                break
            dq.append((nstate, nheight))
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
