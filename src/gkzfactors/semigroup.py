"""Decidable membership in sets of the form N.S + Z.L.

The engine behind all degree-set computations: quotient by the lattice part
(torsion carried as one mixed-radix index, `intlin.LatticeQuotient.index`),
then a breadth-first search from the target down by the generators, bounded
by a strictly positive functional on the pointed quotient cone.
Pointedness certifies termination.

The reduction (generator images, heights) depends only on the generators,
the quotient by the lattice part and the functional, so a query computes it
once when built and reuses it for every target; `cones.FaceData.query`
keeps one query per face and generator set, all over the face's one
quotient.  Every query brings its functional: a face query takes the sum of
the facet witnesses over the face.  The search carries integer heights and
integer state keys, so it does no rational arithmetic.
"""

from __future__ import annotations

from collections import deque
from operator import mul

from . import intlin as il
from .errors import ComputationLimitError, DimensionMismatchError, NonPointedError

DEFAULT_BUDGET = 200_000


class MembershipQuery:
    """target ∈ N.generators + Z.lattice_part, all data integral.

    `quotient` is the ambient space modulo Z.lattice_part, and `functional`
    an integer h on the ambient space, zero on the lattice part and positive
    on every generator outside its span.  What every target shares is
    computed here, in integers: each generator's free and torsion image, and
    its height under an integer functional w on the free part.  A state's
    height is w.free, a step down by a generator lowers it by that
    generator's height, and a step to a negative height is pruned.  With
    w_i = h(section(e_i, 0)), h vanishes on the lattice part, hence on
    torsion, so w.free(g) = h(g).  A nonzero free image must have height
    >= 1, or the query is not pointed.
    """

    def __init__(self, generators, lattice_part, functional, quotient: il.LatticeQuotient):
        self.generators, self.lattice_part = tuple(generators), tuple(lattice_part)
        self.functional, self.quotient = tuple(functional), quotient
        if any(len(v) != quotient.ambient_rank
               for v in (*self.generators, *self.lattice_part, self.functional)):
            raise DimensionMismatchError("membership query mixes ambient dimensions")
        self.images = [quotient.project(g) for g in self.generators]
        self.w = tuple(il.dot(self.functional, b) for b in quotient.section_basis)
        self.heights = [sum(map(mul, self.w, f)) for f, _t in self.images]
        if any(h <= 0 for (f, _t), h in zip(self.images, self.heights) if not il.is_zero_vec(f)):
            raise NonPointedError("cone of generators is not pointed modulo the lattice part")
        # a nonzero free image has height >= 1, a zero one height 0, so a
        # state of height >= 0 reached from height h differs from the start
        # by at most h * max |f_i| / h_f in free coordinate i
        self.spread = [[(abs(f[i]), h) for (f, _t), h in zip(self.images, self.heights) if h]
                       for i in range(quotient.free_rank)]
        self.order = quotient.torsion_order()
        self.down = [il.vneg(u) for _f, u in self.images]  # torsion step of each generator

    def __repr__(self):
        return f"MembershipQuery({self.generators}, {self.lattice_part}, {self.functional})"


def member(q: MembershipQuery, target, witness: bool = False):
    """Exact decision of target ∈ N.S + Z.L, seeing at most DEFAULT_BUDGET
    search states.

    With witness=True returns (verdict, coefficients) where coefficients is a
    dict {"generators": [n_1..], "lattice": [m_1..]} for a true verdict.
    """
    target = tuple(target)
    quot, order = q.quotient, q.order
    budget = DEFAULT_BUDGET  # read per call, so lowering the constant takes effect
    free, tor = quot.project(target)
    height = sum(map(mul, q.w, free))
    if height < 0:
        return (False, None) if witness else False

    # Each state is one integer key: the torsion index in the lowest place,
    # then free coordinate i shifted into [0, 2R_i], where R_i bounds its
    # distance from the start over all states of height >= 0.  The goal
    # (free part zero) gets key -1 when it is out of range, hence
    # unreachable.  codes[g] is generator g's free decrement.
    start, goal, place = quot.index(tor), 0, order
    codes = [0] * len(q.images)
    for i, s in enumerate(free):
        reach = max((-(-height * a // h) for a, h in q.spread[i]), default=0)
        start += reach * place
        if goal >= 0:
            goal = goal + (reach - s) * place if abs(s) <= reach else -1
        for gi, (f, _t) in enumerate(q.images):
            codes[gi] += f[i] * place
        place *= 2 * reach + 1
    seen = {start: None}  # key -> (previous key, generator index)
    dq = deque([(start, height)])
    table: dict = {}  # torsion index -> moves
    found = start == goal
    while dq and not found:
        state, height = dq.popleft()
        t = state % order
        moves = table.get(t)
        if moves is None:  # (generator index, key decrement, height)
            moves = table[t] = [(gi, code + t - quot.add(t, u), h) for gi, (code, u, h)
                                in enumerate(zip(codes, q.down, q.heights))]
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
    used = target
    for gi, c in enumerate(counts):
        used = il.vsub(used, il.vscale(c, q.generators[gi]))
    lat = il.lattice_coordinates(list(q.lattice_part), used)
    assert lat is not None, "witness reconstruction must land in the lattice part"
    return True, {"generators": counts, "lattice": lat}
