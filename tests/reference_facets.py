"""The facet enumeration as the library computed it by (r-1)-subsets.

Each (r-1)-subset of the distinct vectors with a one-dimensional kernel gives
a candidate functional, kept when it has one sign on every vector.  The cone
tests check that the library's double description returns identical
(zero, y) pairs.
"""

from itertools import combinations

from gkzfactors import intlin as il


def reference_facets(coords, r: int) -> list:
    """(zero, y) pairs sorted by zero for the cone spanned by integer vectors
    of rank r in Z^r: y is the facet's primitive integer functional,
    nonnegative on every vector, and zero lists the indices j with
    y.coords[j] = 0."""
    distinct = sorted(set(coords))
    seen: dict = {}
    combos = [()] if r == 1 else combinations(distinct, r - 1)
    for combo in combos:
        # a functional vanishing on the combo, unique up to scale
        ker = il.rational_kernel(il.freeze(combo)) if combo else [(1,)]
        if len(ker) != 1:
            continue
        y = ker[0]
        vals = [il.dot(y, c) for c in coords]
        if all(v <= 0 for v in vals):
            y, vals = il.vneg(y), [-v for v in vals]
        if any(v < 0 for v in vals):
            continue
        zero = tuple(j for j, v in enumerate(vals) if v == 0)
        if len(zero) < len(coords):
            seen.setdefault(zero, y)
    return sorted(seen.items())
