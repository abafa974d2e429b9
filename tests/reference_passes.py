"""The per-γ good-class test as the library decided it before its integer
steps: every target y ∈ ℕ·gens + ℤF is asked of the membership search.

`test_passes_exact_matches_search` checks that `degrees._passes_exact`
gives the same verdict on every candidate, and that it searches exactly
the targets this routine asks over the columns that its sign and conductor
steps leave open.
"""

from gkzfactors import intlin as il
from gkzfactors import semigroup


def reference_passes_exact(family, config, face, x, asked=None) -> bool:
    """Is the ℤF-class of the lattice point x good?  Each question
    y ∈ ℕ·gens + ℤF is appended to `asked` as (gens, y) when a list is given."""
    def inside(gens, y):
        if asked is not None:
            asked.append((gens, tuple(y)))
        return semigroup.member(face.query(gens), y)

    def nonneg(y):
        return all(il.dot(f.witness, y) >= 0 for f in face.facets_over)
    if family.kind == "gap":
        return nonneg(x) and not inside(config.cols, x)
    if not inside(config.cols, x):
        return False
    if family.kind == "module":
        y = il.vsub(x, config.column_sum())
        return not (nonneg(y) and inside(config.cols, y))
    return not any(inside(g.cols, x) for g in config.all_faces()
                   if g.codim > family.level and set(face.indices) <= set(g.indices))
