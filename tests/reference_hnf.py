"""The column Hermite normal form as the library computed it on row-major lists.

Every column operation updates [H; U] entry by entry, one row at a time.  The
intlin tests check that the library's column-major routine returns identical
(H, U) values.
"""

from gkzfactors.intlin import _xgcd, freeze, identity, shape


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
