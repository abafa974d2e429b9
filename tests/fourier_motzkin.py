"""Fourier-Motzkin elimination: the test-side oracle for positive functionals.

The library takes every membership functional from its caller; tests that
build a `MembershipQuery` by hand get theirs from `fm_query`, which finds one
by plain elimination on the free images of the generators.
"""

from fractions import Fraction
from math import lcm

from gkzfactors import intlin as il
from gkzfactors.semigroup import MembershipQuery


def positive_functional(vectors, dim: int):
    """Rational w with w.v >= 1 for every v in vectors, or None.

    Fourier-Motzkin with back-substitution, keeping every constraint.
    """
    cons = [([Fraction(x) for x in v], Fraction(1)) for v in vectors]
    stack = []
    for var in range(dim - 1, -1, -1):
        pos = [(a, c) for a, c in cons if a[var] > 0]
        neg = [(a, c) for a, c in cons if a[var] < 0]
        stack.append((var, pos, neg))
        cons = [(a, c) for a, c in cons if a[var] == 0]
        for pa, pc in pos:
            for na, nc in neg:
                s, t = -na[var], pa[var]
                cons.append(([s * x + t * y for x, y in zip(pa, na)], s * pc + t * nc))
    if any(c > 0 for _a, c in cons):
        return None
    w = [Fraction(0)] * dim
    for var, pos, neg in reversed(stack):
        bounds = [((c - sum(a[j] * w[j] for j in range(dim) if j != var)) / a[var], a[var] > 0)
                  for a, c in pos + neg]
        lo = max((b for b, up in bounds if up), default=None)
        hi = min((b for b, up in bounds if not up), default=None)
        if lo is None and hi is None:
            w[var] = Fraction(0)
        elif lo is None:
            w[var] = hi - 1
        elif hi is None:
            w[var] = lo
        else:
            w[var] = (lo + hi) / 2
    return tuple(w)


def fm_query(generators, lattice_part=()) -> MembershipQuery:
    """The query with the Fourier-Motzkin functional of its free images.

    w is found on the free part of the quotient by the lattice part and
    scaled to integers; the ambient functional is h_j = w.free(e_j), so the
    query recomputes exactly this w.  When no w exists, h = 0 and building
    the query raises `NonPointedError`.
    """
    generators = tuple(generators)
    dim = len(generators[0])
    quot = il.quotient(dim, lattice_part)
    free = [f for f in (quot.project(g)[0] for g in generators) if not il.is_zero_vec(f)]
    w = positive_functional(free, quot.free_rank)
    if w is None:
        h = (0,) * dim
    else:
        scale = lcm(*(x.denominator for x in w))
        w = [int(x * scale) for x in w]
        h = tuple(il.dot(w, quot.project(e)[0]) for e in il.identity(dim))
    return MembershipQuery(generators, lattice_part, h, quot)
