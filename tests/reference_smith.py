"""The Smith normal form as the library computed it when it still tracked V.

Every row and column operation updates its matrices entry by entry, and V is
always tracked.  The intlin tests check that the library's S, U and U⁻¹, and
the U and U⁻¹ that `intlin.quotient` keeps, are identical to this routine's,
and check S = U.M.V with this routine's V.
"""

from gkzfactors.intlin import freeze, identity, shape


def reference_smith(M) -> tuple:
    """Returns (S, U, V, U⁻¹) with S = U.M.V diagonal, entries >= 0 dividing in
    sequence; U's inverse is kept by the inverse column operations."""
    n, m = shape(M)
    S = [list(row) for row in M]
    U = [list(row) for row in identity(n)]
    V = [list(row) for row in identity(m)]
    Uinv = [list(row) for row in identity(n)]

    def rowop(i, k, a, b, c, d):
        for T, width in ((S, m), (U, n)):
            for j in range(width):
                x, y = T[i][j], T[k][j]
                T[i][j], T[k][j] = a * x + b * y, c * x + d * y
        e = a * d - b * c  # +-1: every block used here is unimodular
        for row in Uinv:
            x, y = row[i], row[k]
            row[i], row[k] = e * (d * x - c * y), e * (a * y - b * x)

    def colop(j, k, a, b, c, d):
        for T in (S, V):
            for row in T:
                x, y = row[j], row[k]
                row[j], row[k] = a * x + b * y, c * x + d * y

    t = 0
    while t < min(n, m):
        # find a nonzero pivot
        found = None
        for i in range(t, n):
            for j in range(t, m):
                if S[i][j] != 0:
                    found = (i, j)
                    break
            if found:
                break
        if not found:
            break
        i, j = found
        if i != t:
            rowop(t, i, 0, 1, 1, 0)
        if j != t:
            colop(t, j, 0, 1, 1, 0)
        while True:
            # clear column t; plain elimination when the pivot already divides
            # (an xgcd combine there could swap without shrinking the pivot)
            for i in range(t + 1, n):
                if S[i][t] == 0:
                    continue
                if S[i][t] % S[t][t] == 0:
                    rowop(t, i, 1, 0, -(S[i][t] // S[t][t]), 1)
                    continue
                g, s_, t_ = _xgcd(S[t][t], S[i][t])
                a, b = S[t][t] // g, S[i][t] // g
                rowop(t, i, s_, t_, -b, a)
            # clear row t
            for j in range(t + 1, m):
                if S[t][j] == 0:
                    continue
                if S[t][j] % S[t][t] == 0:
                    colop(t, j, 1, 0, -(S[t][j] // S[t][t]), 1)
                    continue
                g, s_, t_ = _xgcd(S[t][t], S[t][j])
                a, b = S[t][t] // g, S[t][j] // g
                colop(t, j, s_, t_, -b, a)
            if all(S[i][t] == 0 for i in range(t + 1, n)):
                break
        if S[t][t] < 0:
            for j in range(m):
                S[t][j] = -S[t][j]
            for j in range(n):
                U[t][j] = -U[t][j]
                Uinv[j][t] = -Uinv[j][t]
        t += 1
    # enforce divisibility chain: the matrix is diagonal, so replace each
    # offending pair diag(a, b) by diag(gcd, lcm) using operations confined
    # to rows/columns i and i+1 (which are zero off the diagonal).
    k = t
    changed = True
    while changed:
        changed = False
        for i in range(k - 1):
            a, b = S[i][i], S[i + 1][i + 1]
            if b % a != 0:
                changed = True
                rowop(i, i + 1, 1, 1, 0, 1)  # row_i += row_{i+1}: block [[a,b],[0,b]]
                g, s_, t_ = _xgcd(a, b)
                colop(i, i + 1, s_, t_, -(b // g), a // g)  # block [[g,0],[t_*b, lcm]]
                q = (t_ * b) // g
                rowop(i, i + 1, 1, 0, -q, 1)  # clear the stray entry: diag(g, lcm)
    return freeze(S), freeze(U), freeze(V), freeze(Uinv)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Returns (g, s, t) with g = gcd(a,b) > 0 and s*a + t*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t
