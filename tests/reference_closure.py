"""The closure of ℕA + ℤF in a facet-value box, on tuple keys, as the library
built it before its keys were packed into integers.

`test_packed_closure_matches_reference` checks that `degrees._ClosureTable`
holds exactly the keys this routine finds, on every point of every face's
box.
"""

from operator import add, lt

from gkzfactors import intlin as il


def reference_closure(config, face, bounds) -> set:
    """The keys (facet values over F, torsion part modulo ℤF) of the points
    y ∈ ℕA + ℤF with 0 <= l_G(y) < bounds[G] for every facet G ⊇ F, by
    forward closure from 0 over the columns."""
    over, top = face.facets_over, [bounds[f.face.indices] for f in face.facets_over]
    mod_zf = il.quotient(config.n, face.lattice_part)
    torsion = mod_zf.torsion
    steps = [([int(f.value(g)) for f in over], mod_zf.project(g)[1]) for g in config.cols]
    start = ((0,) * len(over), (0,) * len(torsion))
    seen, todo = {start}, [start]
    while todo:
        vals, tor = todo.pop()
        for dv, t in steps:
            nv = tuple(map(add, vals, dv))
            if all(map(lt, nv, top)):
                key = (nv, tuple((a + b) % d for a, b, d in zip(tor, t, torsion)))
                if key not in seen:
                    seen.add(key)
                    todo.append(key)
    return seen
