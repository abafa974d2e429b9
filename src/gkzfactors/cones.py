"""Face lattice of the cone generated by a configuration's columns.

Faces are index sets (duplicate columns always co-occur).  Facet functionals
are primitive against the column lattice; they come from a double
description of the dual cone, whose work grows with the facets found.  The
faces and their codimensions come from a top-down walk of the face lattice
that intersects each face with the facets and needs no kernel.  Also:
normality, the Hilbert basis of the saturation, and the simplicial-family
predicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod
from operator import le, mul

from . import intlin as il
from .errors import DimensionMismatchError, DomainError, check_budget
from .semigroup import MembershipQuery, member

HILBERT_BUDGET = 500_000
FACET_BUDGET = 10_000_000
FACE_BUDGET = 50_000


@dataclass(frozen=True)
class FacetFunctional:
    """Codimension-one face together with its primitive supporting functional.

    The functional is l = witness / scale on the ambient Z^n; its pairing
    with the column lattice is integral, surjective onto Z, nonnegative on
    columns and zero exactly on the face.  `witness` is primitive, and
    `scale` is a positive integer because `y` is primitive.  `sum_value` =
    l(a_A) is an integer >= 1: a_A ∈ ZA, and some column lies off the face.
    """

    face: "FaceData"
    witness: tuple  # primitive integers: a positive multiple of l
    scale: int
    y: tuple  # the same functional on the ZA basis: primitive integers
    sum_value: int  # l(a_A) = witness.a_A / scale: the conductor step, the box, the sres skip

    @property
    def l(self) -> tuple:
        return tuple(Fraction(w, self.scale) for w in self.witness)

    def value(self, v) -> Fraction:
        u, e = il.scaled(v)
        return Fraction(il.dot(self.witness, u), self.scale * e)


class Configuration:
    """An integer n×N matrix identified with its multiset of columns."""

    def __init__(self, matrix):
        self.matrix = il.freeze(matrix)
        self.n, self.N = il.shape(self.matrix)
        if self.n == 0 or self.N == 0:
            raise DomainError("configuration must have at least one row and one column")
        self.cols = il.columns(self.matrix)
        self.lattice_basis = il.column_lattice_basis(self.matrix)  # basis of ZA
        self.rank = len(self.lattice_basis)
        if self.rank == 0:
            raise DomainError("configuration must have a nonzero column")
        self._cache: dict = {}
        self._face_data: dict = {}

    # -- basic lattice helpers -------------------------------------------------

    def in_span(self, v) -> bool:
        """v ∈ QA for rational v: C.u = 0 in integers, for the rows C of
        `_za_inverse` and u = e.v, e the lcm of v's denominators."""
        if len(v) != self.n:
            raise DimensionMismatchError(f"in_span: length {len(v)} in Z^{self.n}")
        u, _e = il.scaled(v)
        return not any(sum(map(mul, row, u)) for row in self._za_inverse[2])

    @cached_property
    def _za_inverse(self):
        """(N, D, C): v ∈ QA iff C.v = 0, and then N[i].v / D[i] are its ZA coordinates."""
        return il.scaled_left_inverse(il.from_columns(self.lattice_basis))

    @cached_property
    def col_coords(self) -> tuple:
        """The integer coordinates of the columns over the ZA basis."""
        N, D, _C = self._za_inverse
        return tuple(tuple(sum(map(mul, row, c)) // d for row, d in zip(N, D)) for c in self.cols)

    def lattice_coords(self, v):
        """Rational coordinates of v over the ZA basis, or None if v ∉ QA."""
        if len(v) != self.n:
            raise DimensionMismatchError(f"lattice_coords: length {len(v)} in Z^{self.n}")
        N, D, C = self._za_inverse
        u, e = il.scaled(v)
        if any(sum(map(mul, row, u)) for row in C):
            return None
        return tuple(Fraction(sum(map(mul, row, u)), d * e) for row, d in zip(N, D))

    def column_sum(self):
        """a_A = sum of all columns."""
        return tuple(map(sum, zip(*self.cols)))

    # -- faces ------------------------------------------------------------------

    def facets(self) -> list[FacetFunctional]:
        """Every facet's l is `rational_solve(B, y)`, B the ZA basis as rows,
        read off one `solution_map` of B as T.y / e: so the witness is u / g
        for u = T.y, g = gcd(u), and scale = e / g (`FacetFunctional`)."""
        if "facets" in self._cache:
            return self._cache["facets"]
        N, D, _C, pivots = il.solution_map(il.freeze(self.lattice_basis))
        e, T = lcm(*D), [(0,) * self.rank] * self.n
        for row, d, c in zip(N, D, pivots):
            T[c] = il.vscale(e // d, row)
        out, a_A = [], self.column_sum()
        for face_idx, y in _facet_values(self.col_coords, self.rank):
            u = il.matvec(T, y)
            g = gcd(*u)
            w = tuple(x // g for x in u)
            out.append(FacetFunctional(face=self.face_data(face_idx), witness=w, scale=e // g,
                                       y=y, sum_value=il.dot(w, a_A) // (e // g)))
        self._cache["facets"] = out
        return out

    def all_faces(self) -> list["FaceData"]:
        """Every face, sorted by (codim, indices)."""
        if "faces" not in self._cache:
            codims = self._face_codims
            self._cache["faces"] = [self.face_data(idx)
                                    for idx in sorted(codims, key=lambda i: (codims[i], i))]
        return self._cache["faces"]

    @cached_property
    def _face_codims(self) -> dict:
        """Index set -> codimension of every face, by a top-down walk of the
        face lattice.  The facets of a face come from `_facets_of`, as in
        `pulling_triangulation`; the lattice is graded, so the codimension
        is the depth at which the walk first meets a face.  Index sets are
        bitmasks here; the faces found may not exceed FACE_BUDGET."""
        zeros = [sum(1 << j for j in f.face.indices) for f in self.facets()]
        top = (1 << self.N) - 1
        codims = {top: 0}
        level = [top]
        while level:
            below = []
            for face in level:
                for sub in _facets_of(face, zeros):
                    if sub not in codims:
                        codims[sub] = codims[face] + 1
                        below.append(sub)
                        check_budget("face enumeration", "cones.all_faces", len(codims),
                                     FACE_BUDGET)
            level = below
        return {tuple(j for j in range(self.N) if mask >> j & 1): codim
                for mask, codim in codims.items()}

    def face(self, indices) -> "FaceData":
        """The face with the given column indices (must exist)."""
        idx = tuple(sorted(indices))
        if idx not in self._face_codims:
            raise DomainError(f"{idx} is not a face of the configuration")
        return self.face_data(idx)

    def minimal_face(self) -> "FaceData":
        return self.all_faces()[-1]

    def face_data(self, indices) -> "FaceData":
        """The cached lattice record of a column-index set (a face or not)."""
        idx = tuple(indices)
        if idx not in self._face_data:
            self._face_data[idx] = FaceData(self, idx)
        return self._face_data[idx]

    # -- predicates ---------------------------------------------------------------

    def is_simplicial_family(self, faces) -> bool:
        """True iff every subtuple of size l meets in a face of codim exactly l."""
        faces = list(faces)
        for f in faces:
            if f.codim != 1:
                raise DomainError("simplicial-family test requires codimension-one faces")
        by_idx = {f.indices: f for f in self.all_faces()}
        for size in range(1, len(faces) + 1):
            for tup in combinations(faces, size):
                inter = set(range(self.N))
                for f in tup:
                    inter &= set(f.indices)
                key = tuple(sorted(inter))
                face = by_idx.get(key)
                if face is None or face.codim != size:
                    return False
        return True

    def semigroup_member(self, v) -> bool:
        """v ∈ NA; exact, valid also for non-pointed cones."""
        return member(self.face_data(()).query(self.cols), tuple(v))

    def is_pointed(self) -> bool:
        """True iff the minimal face has rank 0 (zero columns are allowed)."""
        return self.minimal_face().codim == self.rank

    # -- normality / saturation -----------------------------------------------------

    def saturation_hilbert_basis(self) -> list:
        """Minimal generating set of R>=0(A) ∩ ZA (modulo units when non-pointed).

        Non-pointed cones are handled by quotienting by the span of the minimal
        face; the unit part is returned as ± a basis of its lattice.
        """
        if "hilbert" in self._cache:
            return self._cache["hilbert"]
        # work in coordinates on the ZA basis
        B = il.from_columns(self.lattice_basis)
        coords = self.col_coords
        if self.is_pointed():
            ys = [f.y for f in self.facets()]
            out = sorted(il.matvec(B, p) for p in self._hilbert_pointed(coords, ys))
        else:
            # the unit lattice is saturated in ZA, so the quotient by it is
            # free and every class lifts to ZA; each facet functional y is 0
            # on the units and y(ZA) = Z, so y is primitive on the quotient
            units = self.minimal_face()
            quot = il.quotient(self.rank, units.inner)
            ys = [tuple(il.dot(f.y, b) for b in quot.section_basis) for f in self.facets()]
            gens = self._hilbert_pointed([quot.project(c)[0] for c in coords], ys)
            out = (sorted(il.matvec(B, quot.section(g, ())) for g in gens)
                   + sorted(units.span_lat) + sorted(il.vneg(u) for u in units.span_lat))
        self._cache["hilbert"] = out
        return out

    def _hilbert_pointed(self, coords, ys) -> list:
        """Hilbert basis of cone(coords) ∩ Z^r for a pointed cone of rank r.

        Takes and returns coordinates on a lattice basis; `ys` are the cone's
        primitive facet functionals.  Candidates: the generators plus the
        lattice points of the fundamental parallelepipeds of the simplicial
        cones of one pulling triangulation.  They cover the Hilbert basis: a
        lattice point x of the cone lies in some simplicial cone, x = sum
        floor(c_i) g_i + p with p in that cone's parallelepiped, so an
        irreducible x is p or a generator g_i.  Each candidate lies in
        the cone by construction.  The cone's lattice points are exactly
        those with every facet value l_F >= 0, so a candidate p is reducible
        iff some kept element q has l_F(q) <= l_F(p) for every facet F: then
        p - q is a nonzero lattice point of the cone.  Candidates are taken
        in increasing order of w = sum of the facet functionals, which is
        positive on every nonzero point of a pointed cone (all l_F vanish only
        on its lineality space), so every such q is kept before p.  The
        parallelepiped points counted may not exceed HILBERT_BUDGET.
        """
        coords = sorted({c for c in coords if not il.is_zero_vec(c)})
        if not coords:
            return []
        r = len(coords[0])
        facets = [(tuple(j for j, c in enumerate(coords) if not il.dot(y, c)), y) for y in ys]
        w = tuple(sum(y[i] for _zero, y in facets) for i in range(r))
        if any(il.dot(w, c) <= 0 for c in coords):
            raise DomainError("hilbert basis requires a pointed cone")
        simplices = [[coords[j] for j in s]
                     for s in pulling_triangulation([z for z, _y in facets], len(coords))]
        check_budget("hilbert candidate enumeration", "cones.saturation_hilbert_basis",
                     sum(map(_volume, simplices)), HILBERT_BUDGET)
        candidates = set(coords)
        for combo in simplices:
            candidates.update(_parallelepiped(combo))
        candidates.discard(tuple(0 for _ in range(r)))
        values = {p: tuple(il.dot(y, p) for _zero, y in facets) for p in candidates}
        basis: list = []
        for p in sorted(candidates, key=lambda p: (il.dot(w, p), p)):
            vp = values[p]
            if not any(all(map(le, values[q], vp)) for q in basis):
                basis.append(p)
        return basis

    def is_normal(self):
        """(verdict, witness): witness is a hole of the semigroup on false, the
        least Hilbert generator outside NA.  Columns lie in NA, unsearched; on
        a pointed cone no other generator g does, so only a non-pointed cone's
        are searched: if g = Σ n_j.a_j over the nonzero columns with Σ n_j >= 2,
        then g = a_j + (g − a_j) for an a_j with n_j > 0, both nonzero points of
        sat (a functional positive on the cone is positive on every nonzero
        column), and g would not be irreducible."""
        if "normal" in self._cache:
            return self._cache["normal"]
        cols, pointed = set(self.cols), self.is_pointed()
        hole = next((g for g in sorted(self.saturation_hilbert_basis())
                     if g not in cols and (pointed or not self.semigroup_member(g))), None)
        self._cache["normal"] = (hole is None, hole)
        return self._cache["normal"]


class FaceData:
    """Lattice data of the columns at `indices`, each field computed on first use.

    The one face object: `all_faces`, `face`, `minimal_face` and
    `FacetFunctional.face` hand out these records.  `indices` is usually a
    face, but any column-index set works (pullbacks take subcones); then "F"
    below means the cone of those columns.  `codim` is read off the walk of
    `Configuration.all_faces` and exists only for faces.  Each consumer
    builds only what it reads: membership queries and closure tables
    `facets_over`, `lattice_part` and its `lattice_quotient`; `in_span`
    (dmod tables, gap components, the dres certificate) `annihilator`,
    derived from `ann`; classes (`reduce`) `hnf`; pullbacks `deltas`, and
    `ann` and `representative` only for a class other than the trivial one,
    the latter only outside QF; class candidates `representative` and
    `deltas`; the dres certificate also `uppers`.  In turn `representative` needs
    `class_quotient` and `inner`, and `deltas` needs `hnf`, and `inner` and
    `span_lat` only when ZF is not saturated in Z^n.  So `ann`, a kernel, is
    built only where `ann`, `inner` or `annihilator` is read.
    """

    def __init__(self, config: Configuration, indices: tuple):
        self.config = config
        self.indices = indices
        self.cols = tuple(config.cols[j] for j in indices)
        self._queries: dict = {}

    def __repr__(self):
        return f"FaceData(indices={self.indices})"

    @cached_property
    def codim(self) -> int:
        """Depth in the face lattice: the rank minus the dimension of the face."""
        codims = self.config._face_codims
        if self.indices not in codims:
            raise DomainError(f"{self.indices} is not a face of the configuration")
        return codims[self.indices]

    @cached_property
    def lattice_part(self) -> tuple:
        """The columns at `indices`, then those of the minimal face."""
        config = self.config
        return self.cols + tuple(config.cols[j] for j in config.minimal_face().indices)

    @cached_property
    def lattice_quotient(self) -> il.LatticeQuotient:
        """Z^n modulo Z.lattice_part: one Smith form, shared by the face's
        queries and its closure table (`degrees._ClosureTable`)."""
        return il.quotient(self.config.n, self.lattice_part)

    def query(self, generators) -> MembershipQuery:
        """N.generators + Z.lattice_part; one object per generator tuple.

        Reusing the object reuses its reduction across targets, which is
        built at once over `lattice_quotient`.  Its
        functional h is the sum of the facet witnesses over `indices`, a face
        F (or (), standing for the minimal face).  Each witness is >= 0 on
        the cone and 0 on F, so h vanishes on the lattice part; a point of
        the cone with h = 0 lies on every facet containing F, hence in F,
        whose span holds the lattice part.  So h is positive on the nonzero
        images of generators taken from the cone.
        """
        key = tuple(generators)
        q = self._queries.get(key)
        if q is None:
            h = (0,) * self.config.n
            for f in self.facets_over:
                h = il.vadd(h, f.witness)
            q = self._queries[key] = MembershipQuery(key, self.lattice_part, h,
                                                     self.lattice_quotient)
        return q

    @cached_property
    def annihilator(self) -> tuple:
        """Integer rows w with v ∈ QF iff w.v = 0 for every row: the rows of
        `ann` carried to the ambient space through the ZA coordinates N.v / D
        of `Configuration._za_inverse`, then its rows C, which cut out QA."""
        N, D, C = self.config._za_inverse
        e = lcm(*D)
        T = il.transpose([il.vscale(e // d, row) for row, d in zip(N, D)])
        rows = tuple(il.clear_denominators(il.matvec(T, a)) for a in self.ann)
        return rows + tuple(map(tuple, C))

    def in_span(self, v) -> bool:
        """v ∈ QF for a rational vector v."""
        if len(v) != self.config.n:
            raise DimensionMismatchError(f"in_span: length {len(v)} in Z^{self.config.n}")
        return not any(il.dot(w, v) for w in self.annihilator)

    @cached_property
    def hnf(self) -> list:
        """The column HNF basis of ZF as (pivot row, column) pairs, by increasing row."""
        H, _ = il.hermite_normal_form(il.from_columns(self.cols, dim=self.config.n), ())
        cols = il.columns(H)
        return [(r, cols[c]) for r, c in il.hnf_pivots(H)]

    def reduce(self, v) -> tuple:
        """(canonical, order) of a rational vector v modulo ZF.

        `canonical` is v minus floor(v_r / pivot) times each HNF column, taken
        along the pivots: one representative per class.  `order` is the least
        k >= 1 with k.v in ZF, the lcm of the denominators of v's exact
        coordinates over the HNF basis, or None when v is not in QF.

        Runs in integers: `canonical` as e.v, e the lcm of v's denominators,
        and the exact remainder as X / den in lowest terms.
        """
        canonical, e = il.scaled(v)
        exact = canonical
        den, order = e, 1
        for r, col in self.hnf:
            t = canonical[r] // (e * col[r])
            if t:
                canonical = [x - t * e * y for x, y in zip(canonical, col)]
            if exact[r]:
                g = gcd(exact[r], den * col[r])
                a, q = exact[r] // g, den * col[r] // g  # the coordinate a / q, in lowest terms
                exact = [q * x - a * den * y for x, y in zip(exact, col)]
                g = gcd(den * q, *exact)
                exact, den, order = [x // g for x in exact], den * q // g, lcm(order, q)
        return tuple(Fraction(x, e) for x in canonical), (None if any(exact) else order)

    @cached_property
    def ann(self) -> tuple:
        """Primitive integer rows w with u ∈ QF iff w.u = 0, for u in
        coordinates on the ZA basis; there are codim F of them."""
        config = self.config
        if not self.cols:
            return il.identity(config.rank)
        return tuple(il.rational_kernel([config.col_coords[j] for j in self.indices]))

    @cached_property
    def inner(self) -> list:
        """A basis of QF ∩ ZA in coordinates on the ZA basis: the saturated
        lattice cut out by `ann`."""
        if not self.cols:
            return []
        if not self.ann:
            return il.columns(il.identity(self.config.rank))
        return il.integer_kernel(self.ann)

    @cached_property
    def span_lat(self) -> list:
        """Basis of QF ∩ ZA, as ambient vectors."""
        B = il.from_columns(self.config.lattice_basis)
        return [il.matvec(B, u) for u in self.inner]

    @cached_property
    def deltas(self) -> list:
        """Coset representatives of (QF ∩ ZA) / ZF, as ambient vectors.

        ZF is saturated in Z^n iff the maximal minors of its basis H (`hnf`)
        have gcd 1, i.e. iff every pivot of the Hermite form of H^T is 1
        (unimodular column steps keep that gcd); unit pivots of H show it
        first, without that form.  Then QF ∩ ZA ⊆ QF ∩ Z^n = ZF and 0 is the
        only coset: no kernel is built.
        """
        if all(col[r] == 1 for r, col in self.hnf) or all(  # H's pivots, else H^T's
                HT[r][c] == 1 for HT in [il.hermite_normal_form([col for _r, col in self.hnf], ())[0]]
                for r, c in il.hnf_pivots(HT)):
            return [tuple(0 for _ in range(self.config.n))]
        # the columns' coordinates on `inner`, exact integers
        N, D, _C = il.scaled_left_inverse(il.from_columns(self.inner))
        coords = [tuple(sum(map(mul, row, self.config.col_coords[j])) // d
                        for row, d in zip(N, D)) for j in self.indices]
        quot = il.quotient(len(self.inner), coords)
        S = il.from_columns(self.span_lat, dim=self.config.n)
        return [il.matvec(S, t) for t in quot.coset_representatives()]

    @cached_property
    def class_quotient(self) -> il.LatticeQuotient:
        """ZA (in coordinates on its basis) modulo QF ∩ ZA."""
        return il.quotient(self.config.rank, self.inner)

    def representative(self, gamma):
        """An integer point z(γ) of ZA congruent to γ modulo QF, or None."""
        config = self.config
        coords = config.lattice_coords(gamma)
        if coords is None:
            return None
        quot = self.class_quotient
        free = quot.free_values(coords)
        if any(v.denominator != 1 for v in free):
            return None
        z = quot.section(tuple(int(v) for v in free), tuple(0 for _ in quot.torsion))
        return il.matvec(il.from_columns(config.lattice_basis, dim=config.n), z)

    @cached_property
    def facets_over(self) -> list[FacetFunctional]:
        """The facets containing every column at `indices`."""
        idx = set(self.indices)
        return [f for f in self.config.facets() if idx <= set(f.face.indices)]

    @cached_property
    def uppers(self) -> tuple:
        """The faces G ⊇ F, in the order of `Configuration.all_faces`."""
        idx = set(self.indices)
        return tuple(g for g in self.config.all_faces() if idx <= set(g.indices))


def _facet_values(coords, r: int) -> list:
    """Facets of the cone spanned by integer vectors of rank r in Z^r.

    Returns (zero, y) pairs sorted by zero: y is the facet's primitive integer
    functional, nonnegative on every vector, and zero lists the indices j with
    y.coords[j] = 0.  The functionals are the extreme rays of the dual cone
    {y : y.c >= 0 for every vector c}, found by the double description
    method.  It starts from the dual basis of r independent distinct vectors,
    a simplicial cone, so every dual cone on the way is pointed; each further
    vector c keeps the rays p with c.p >= 0 and replaces those with c.n < 0
    by the primitive (c.p).n - (c.n).p over the rays p with c.p > 0 adjacent
    to n.  A ray is held with the set of vectors it vanishes on, and two rays
    are adjacent iff no third ray vanishes on every vector both vanish on
    (they span a 2-face of the pointed dual cone); since such a face is cut
    out by at least r - 2 independent vectors, pairs with fewer common zeros
    are not adjacent.  The (p, n) pairs tested may not exceed FACET_BUDGET;
    each vector's pairs are counted before they are tested.
    """
    distinct = sorted({c for c in coords if any(c)})
    # Gauss-Jordan leaves I at the pivot columns `start`, so row i of N is
    # positive on distinct[start[i]] and zero on the other starting vectors
    N, _D, _C, start = il.solution_map(il.from_columns(distinct, dim=r))
    starting = sum(1 << j for j in start)
    rays = []
    for row, j in zip(N, start):
        g = gcd(*row)
        rays.append((tuple(x // g for x in row), starting & ~(1 << j)))
    pairs = 0
    for j, c in enumerate(distinct):
        if starting >> j & 1:
            continue
        bit = 1 << j
        pos, neg, kept = [], [], []
        for y, zero in rays:
            v = il.dot(y, c)
            if v > 0:
                pos.append((y, zero, v))
                kept.append((y, zero))
            elif v < 0:
                neg.append((y, zero, v))
            else:
                kept.append((y, zero | bit))
        if neg:
            pairs += len(pos) * len(neg)
            check_budget("facet pair enumeration", "cones.facets", pairs, FACET_BUDGET)
            zeros = [zero for _y, zero in rays]
            for p, zp, vp in pos:
                for n, zn, vn in neg:
                    common = zp & zn
                    if common.bit_count() < r - 2 or sum(z & common == common for z in zeros) > 2:
                        continue
                    y = il.vsub(il.vscale(vp, n), il.vscale(vn, p))
                    g = gcd(*y)
                    kept.append((tuple(x // g for x in y), common | bit))
        rays = kept
    return sorted((tuple(j for j, c in enumerate(coords) if not il.dot(y, c)), y)
                  for y, _zero in rays)


def _facets_of(face: int, zeros) -> list:
    """The facets of a face, as bitmasks: its inclusion-maximal proper
    intersections with the facet zero sets.  Taken by decreasing size, a set
    is maximal iff no strictly larger maximal set contains it."""
    subs = sorted({face & z for z in zeros} - {face}, key=int.bit_count, reverse=True)
    out: list = []
    larger, size = 0, None  # out[:larger] are strictly larger than the current set
    for sub in subs:
        if sub.bit_count() != size:
            larger, size = len(out), sub.bit_count()
        if not any(sub & k == sub for k in out[:larger]):
            out.append(sub)
    return out


def pulling_triangulation(zeros, n: int) -> list:
    """Simplicial cones of a pulling triangulation of a pointed cone.

    The cone is spanned by n nonzero generators and `zeros` lists the
    generator indices on each facet.  A face F, as a bitmask, is coned from
    its least index v over the triangulations of its facets (`_facets_of`)
    that miss v.  Those are cut out of F by functionals positive on v, so
    v ∉ span of such a facet and every simplex found has independent
    generators.  Returns index tuples, one per simplex.
    """
    masks = [sum(1 << j for j in z) for z in zeros]
    memo = {0: [()]}

    def tri(face):
        if face not in memo:
            low = face & -face
            v = low.bit_length() - 1
            memo[face] = [(v,) + s for h in _facets_of(face, masks) if not h & low
                          for s in tri(h)]
        return memo[face]
    return tri((1 << n) - 1)


def _volume(combo) -> int:
    """|det M| for the nonsingular square matrix M with columns `combo`: the
    product of its Hermite pivots, which lie on the diagonal."""
    H, _ = il.hermite_normal_form(il.from_columns(combo), ())
    return prod(H[i][i] for i in range(len(H)))


def _parallelepiped(combo) -> list:
    """The lattice points M.frac(M⁻¹y) of the half-open parallelepiped of the
    nonsingular square M with columns `combo`, one per class y of Z^r / M.Z^r.
    Over the common denominator e of M⁻¹, e.frac(M⁻¹y) = e.M⁻¹y mod e is
    additive in y, with kernel M.Z^r, so its values form a group generated
    by the images of the unit vectors, the columns of e.M⁻¹ mod e.  Adding
    a generator g to every point of the subgroup H found so far gives the
    coset H + g, then H + 2g, and so on until k.g, the first point of the
    coset, lies in H: cosets are equal or disjoint, so each point comes once.
    """
    M = il.from_columns(combo)
    N, D, _C = il.scaled_left_inverse(M)
    e = lcm(*D)
    zero = (0,) * len(M)
    fracs, seen = [zero], {zero}
    for gen in zip(*(il.vscale(e // d, row) for row, d in zip(N, D))):
        step = fracs
        while True:
            step = [tuple((a + x) % e for a, x in zip(f, gen)) for f in step]
            if step[0] in seen:
                break
            fracs.extend(step)
            seen.update(step)
    return [tuple(x // e for x in il.matvec(M, f)) for f in fracs]
