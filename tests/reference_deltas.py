"""The coset representatives of (QF ∩ ZA) / ZF as the library found them
for every face whose Hermite basis has a pivot above 1: from the kernel
`ann`, its saturated lattice `inner`, a left inverse and a Smith form.

`test_deltas_match_kernel_path` checks that `FaceData.deltas`, which skips
all of this when ZF is saturated in Z^n, gives the same list on every face.
"""

from gkzfactors import intlin as il


def reference_deltas(config, indices) -> list:
    """(QF ∩ ZA) / ZF from `inner`, a left inverse and a Smith form, always."""
    ann = il.rational_kernel([config.col_coords[j] for j in indices]) if indices else None
    if not indices:
        inner = []
    else:
        inner = il.integer_kernel(tuple(ann)) if ann else il.columns(il.identity(config.rank))
    if not inner:
        return [tuple(0 for _ in range(config.n))]
    N, D, _C = il.scaled_left_inverse(il.from_columns(inner))
    coords = [tuple(il.dot(row, config.col_coords[j]) // d for row, d in zip(N, D))
              for j in indices]
    quot = il.quotient(len(inner), coords)
    B = il.from_columns(config.lattice_basis)
    S = il.from_columns([il.matvec(B, u) for u in inner], dim=config.n)
    return [il.matvec(S, t) for t in quot.coset_representatives()]
