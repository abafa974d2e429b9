"""The lattice points of a simplicial cone's half-open parallelepiped as
`cones.Configuration._hilbert_pointed` enumerated them before it dropped
its Smith forms: one Smith form per simplex gives the invariant factors and
generators of Z^r / M.Z^r, and the points are stepped through by adding the
generators' numerators.

`test_parallelepiped_matches_smith_stepping` checks that
`cones._parallelepiped` gives the same points.
"""

from math import lcm

from gkzfactors import intlin as il


def reference_parallelepiped(combo) -> list:
    """M.frac(M⁻¹y) for every class y of Z^r / M.Z^r, M with columns `combo`."""
    M = il.from_columns(combo)
    r = len(M)
    quot = il.quotient(r, combo)
    N, D, _C = il.scaled_left_inverse(M)
    e = lcm(*D)
    fracs = [(0,) * r]  # e.frac(M^-1 y), one per class y
    for unit, d in zip(il.identity(len(quot.torsion)), quot.torsion):
        gen = quot.section((), unit)
        num = tuple(il.dot(row, gen) * (e // dd) for row, dd in zip(N, D))
        step = fracs
        for _ in range(d - 1):
            step = [tuple((a + x) % e for a, x in zip(f, num)) for f in step]
            fracs.extend(step)
    return [tuple(x // e for x in il.matvec(M, f)) for f in fracs]
