"""The column Hermite normal form as the library computed it on row-major lists.

Every column operation updates [H; U] entry by entry, one row at a time.  The
intlin tests check that the library's column-major routine returns identical
(H, U) values on the matrices of `reference_draws`.
"""

import random

from gkzfactors.intlin import _xgcd, freeze, identity, shape

EDGE = [(), ((),), ((), (), ()), ((0, 0, 0),), ((3, -6, 9, 0),), ((0, 0), (0, 0)),
        ((2, 4, 6), (1, 2, 3)), ((0, 5), (0, 7), (0, 0)), ((-2,), (3,))]


def reference_draws() -> list:
    """1 500 seeded matrices of 1-5 rows and 1-7 columns, entries up to 1, 3,
    9 or 40 in size at three densities; about 30% get a row and a column
    repeated, so they are rank-deficient."""
    rng = random.Random(21)
    out = []
    for _ in range(1500):
        n, m = rng.randint(1, 5), rng.randint(1, 7)
        bound, density = rng.choice((1, 3, 9, 40)), rng.choice((0.3, 0.7, 1.0))
        rows = [tuple(rng.randint(-bound, bound) if rng.random() < density else 0
                      for _ in range(m)) for _ in range(n)]
        if rng.random() < 0.3:  # rank-deficient: a row and a column repeated
            rows.append(rows[0])
            rows = [row + row[-1:] for row in rows]
        out.append(tuple(rows))
    return out


def reference_hnf(M) -> tuple:
    """Returns (H, U) with H = M.U, U unimodular, H a column HNF: pivot columns
    first with strictly increasing pivot rows, pivots positive, entries left of
    a pivot in its row reduced into [0, pivot), trailing columns zero."""
    n, m = shape(M)
    H = [list(row) for row in M]
    U = [list(row) for row in identity(m)]

    def colop(j, k, a, b, c, d):
        # (col_j, col_k) <- (a*col_j + b*col_k, c*col_j + d*col_k)
        for row in (H, U):
            for i in range(len(row)):
                x, y = row[i][j], row[i][k]
                row[i][j], row[i][k] = a * x + b * y, c * x + d * y

    piv = 0
    for i in range(n):
        if piv >= m:
            break
        # clear row i across columns piv..m-1 down to a single entry at piv
        j = piv
        for k in range(piv + 1, m):
            if H[i][k] == 0:
                continue
            if H[i][j] == 0:
                colop(j, k, 0, 1, 1, 0)  # swap
                continue
            g, s, t = _xgcd(H[i][j], H[i][k])
            a, b = H[i][j] // g, H[i][k] // g
            # [s t; -b a] has determinant s*a + t*b = 1
            colop(j, k, s, t, -b, a)
        if H[i][j] == 0:
            continue
        if H[i][j] < 0:
            for row in (H, U):
                for r in range(len(row)):
                    row[r][j] = -row[r][j]
        p = H[i][j]
        for k in range(j):
            q = H[i][k] // p  # floor division: leaves remainder in [0, p)
            if q:
                for row in (H, U):
                    for r in range(len(row)):
                        row[r][k] -= q * row[r][j]
        piv += 1
    return freeze(H), freeze(U)
