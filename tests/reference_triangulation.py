"""The pulling triangulation on frozensets of generator indices, as
`cones.pulling_triangulation` computed it before it walked bitmask faces
with `cones._facets_of`.

`test_pulling_triangulation_volume_is_order_free` checks that the library
returns the same set of simplices as this routine.
"""


def reference_triangulation(zeros, n: int) -> list:
    """Simplicial cones of a pulling triangulation of a pointed cone spanned by
    n generators, `zeros` listing the generator indices on each facet.  A
    face F is coned from its least index v over the triangulations of its
    facets that miss v; F's facets are the inclusion-maximal sets F ∩ Z ≠ F
    over the facet zero sets Z."""
    zeros = [frozenset(z) for z in zeros]
    memo = {frozenset(): [()]}

    def tri(face):
        if face not in memo:
            v = min(face)
            subs = {face & z for z in zeros} - {face}
            memo[face] = [(v,) + s for h in subs if v not in h and not any(h < k for k in subs)
                          for s in tri(h)]
        return memo[face]
    return tri(frozenset(range(n)))
