"""Exact integer and rational linear algebra.

Matrices are tuples of row tuples; vectors are tuples.  Integer routines use
arbitrary-precision ints; rational routines take fractions.Fraction and
return them where the result is rational (kernels come back as primitive
integer vectors), but their Gauss-Jordan elimination runs on integers, each
row kept over one denominator, and gives the same results as elimination in
fractions.  Smith normal forms carry the inverse of their row transform.  All
results are exact; there is no floating point anywhere.

Kernel convention: the vector and matrix helpers run their inner loops in
builtins (`map` and `zip` over `operator` functions, one list comprehension
per column operation of the Hermite form); those that pair two vectors check
their lengths first, since `map` and `zip` stop silently at the shorter one;
and every result equals the entry-by-entry formula's, which
`tests/test_intlin.py` checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product, repeat
from math import gcd, lcm, prod
from operator import add, itemgetter, mul, neg, sub

from .errors import DimensionMismatchError, DomainError

Vec = tuple
Mat = tuple  # tuple of row tuples


def freeze(rows) -> Mat:
    return tuple(map(tuple, rows))


def shape(M: Mat) -> tuple[int, int]:
    return (len(M), len(M[0]) if M else 0)


def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(M: Mat) -> Mat:
    return tuple(zip(*M)) if M else ()


def columns(M: Mat) -> list[Vec]:
    return list(zip(*M))


def from_columns(cols, dim: int | None = None) -> Mat:
    cols = list(cols)
    if not cols:
        if dim is None:
            raise DimensionMismatchError("empty column list without ambient dimension")
        return tuple(() for _ in range(dim))
    n = len(cols[0])
    if any(len(c) != n for c in cols):
        raise DimensionMismatchError("columns of unequal length")
    return tuple(zip(*cols))


def matvec(M: Mat, v: Vec) -> Vec:
    m = shape(M)[1]
    if len(v) != m:
        raise DimensionMismatchError(f"matvec: {m} columns vs vector of length {len(v)}")
    return tuple(sum(map(mul, row, v)) for row in M)


def matmul(A: Mat, B: Mat) -> Mat:
    if shape(A)[1] != len(B):
        raise DimensionMismatchError("matmul: inner dimensions differ")
    cols = columns(B)
    return tuple(tuple(sum(map(mul, row, c)) for c in cols) for row in A)


def vadd(u: Vec, v: Vec) -> Vec:
    if len(u) != len(v):
        raise DimensionMismatchError(f"vadd: vectors of lengths {len(u)} and {len(v)}")
    return tuple(map(add, u, v))


def vsub(u: Vec, v: Vec) -> Vec:
    if len(u) != len(v):
        raise DimensionMismatchError(f"vsub: vectors of lengths {len(u)} and {len(v)}")
    return tuple(map(sub, u, v))


def vneg(u: Vec) -> Vec:
    return tuple(map(neg, u))


def vscale(c, u: Vec) -> Vec:
    return tuple(map(mul, repeat(c), u))


def dot(u: Vec, v: Vec):
    if len(u) != len(v):
        raise DimensionMismatchError(f"dot: vectors of lengths {len(u)} and {len(v)}")
    return sum(map(mul, u, v))


def is_zero_vec(u: Vec) -> bool:
    return not any(u)


# ---------------------------------------------------------------------------
# Hermite normal form (column style, lower triangular)
# ---------------------------------------------------------------------------

def hermite_normal_form(M: Mat, rows: Mat | None = None) -> tuple[Mat, Mat]:
    """Column HNF: returns (H, R.U) with H = M.U, U unimodular, for rows R
    stacked under M (by default the identity, giving U; the steps read only M).

    H is lower triangular in the staircase sense: pivot columns come first with
    strictly increasing pivot rows, pivots positive, entries left of a pivot in
    its row reduced into [0, pivot); trailing columns are zero.  [H; R.U] is
    held as one list per column, so a column operation rebuilds two lists.
    """
    n, m = shape(M)
    R = identity(m) if rows is None else rows
    if R and shape(R)[1] != m:
        raise DimensionMismatchError("hermite_normal_form: rows of another width than M")
    C = [list(col) + list(r) for col, r in zip(columns(M), columns(R) or repeat(()))]

    def colop(j, k, a, b, c, d):
        # (col_j, col_k) <- (a*col_j + b*col_k, c*col_j + d*col_k)
        x, y = C[j], C[k]
        C[j] = [a * p + b * q for p, q in zip(x, y)]
        C[k] = [c * p + d * q for p, q in zip(x, y)]

    piv = 0
    for i in range(n):
        if piv >= m:
            break
        # clear row i across columns piv..m-1 down to a single entry at piv
        j = piv
        for k in range(piv + 1, m):
            if C[k][i] == 0:
                continue
            if C[j][i] == 0:
                C[j], C[k] = C[k], C[j]  # swap
                continue
            g, s, t = _xgcd(C[j][i], C[k][i])
            a, b = C[j][i] // g, C[k][i] // g
            # [s t; -b a] has determinant s*a + t*b = 1
            colop(j, k, s, t, -b, a)
        if C[j][i] == 0:
            continue
        if C[j][i] < 0:
            C[j] = [-x for x in C[j]]
        p, cj = C[j][i], C[j]
        for k in range(j):
            q = C[k][i] // p  # floor division: leaves remainder in [0, p)
            if q:
                C[k] = [x - q * y for x, y in zip(C[k], cj)]
        piv += 1
    return (tuple(tuple(map(itemgetter(i), C)) for i in range(n)),
            tuple(tuple(map(itemgetter(n + i), C)) for i in range(len(R))))


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


def hnf_pivots(H: Mat) -> list[tuple[int, int]]:
    """Pivot (row, col) pairs of a column-HNF matrix."""
    n, m = shape(H)
    piv = []
    col = 0
    for i in range(n):
        if col >= m:
            break
        if H[i][col] != 0:
            piv.append((i, col))
            col += 1
    return piv


def column_lattice_basis(M: Mat) -> list[Vec]:
    """Basis (list of columns) of the lattice generated by the columns of M."""
    H, _ = hermite_normal_form(M, ())
    return [c for c in columns(H) if not is_zero_vec(c)]


def lattice_coordinates(B, v: Vec):
    """Integer coefficients expressing v over B, or None."""
    B = list(B)
    if not B:
        return [] if is_zero_vec(v) else None
    n = len(B[0])
    if len(v) != n or any(len(b) != n for b in B):
        raise DimensionMismatchError("lattice_coordinates: ambient dimensions differ")
    H, U = hermite_normal_form(from_columns(B))
    w, t = list(v), [0] * len(B)
    for i, j in hnf_pivots(H):
        if w[i] % H[i][j]:
            return None
        t[j] = q = w[i] // H[i][j]
        w = [x - q * row[j] for x, row in zip(w, H)]
    return None if any(w) else list(matvec(U, tuple(t)))


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def smith_normal_form(M: Mat) -> tuple[Mat, Mat, Mat]:
    """Returns (S, U, U⁻¹) with S = U.M.V diagonal for some unimodular V,
    entries >= 0 dividing in sequence; U's inverse is kept, transposed, by the
    inverse operations."""
    n, m = shape(M)
    S = [list(row) for row in M]
    U = [list(row) for row in identity(n)]
    W = [list(row) for row in identity(n)]  # the transpose of U⁻¹

    def rowop(i, k, a, b, c, d):
        # (row_i, row_k) <- (a*row_i + b*row_k, c*row_i + d*row_k) in S and U,
        # and the inverse operation on the columns of U⁻¹, the rows of W
        e = a * d - b * c  # +-1: every block used here is unimodular
        for T, (p, q, r, s) in ((S, (a, b, c, d)), (U, (a, b, c, d)),
                                (W, (e * d, -e * c, -e * b, e * a))):
            ri, rk = T[i], T[k]
            for j, (x, y) in enumerate(zip(ri, rk)):
                ri[j], rk[j] = p * x + q * y, r * x + s * y

    def colop(j, k, a, b, c, d):
        for row in S:
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
            for T in (S, U, W):
                T[t], T[i] = T[i], T[t]
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
            for T in (S, U, W):
                T[t] = [-x for x in T[t]]
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
    return freeze(S), freeze(U), transpose(W)


# ---------------------------------------------------------------------------
# Lattice quotients with torsion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeQuotient:
    """Presentation of Z^n / ZB as free part + torsion coordinates.

    ``project`` maps an ambient vector to (free coords, torsion residues);
    a vector lies in ZB iff both parts vanish.
    """

    ambient_rank: int
    free_rank: int
    torsion: tuple[int, ...]  # invariant factors >= 2, dividing in sequence
    _U: Mat  # change of basis: y = U x
    _Uinv: Mat
    _torsion_rows: tuple[int, ...]
    _free_rows: tuple[int, ...]

    def project(self, v: Vec) -> tuple[tuple, tuple]:
        if len(v) != self.ambient_rank:
            raise DimensionMismatchError("quotient projection: wrong ambient dimension")
        y = matvec(self._U, v)
        free = tuple(y[i] for i in self._free_rows)
        tor = tuple(y[i] % d for i, d in zip(self._torsion_rows, self.torsion))
        return free, tor

    def free_values(self, v) -> tuple:
        """Free-part coordinates only; accepts rational input vectors."""
        u, e = scaled(v)
        return tuple(Fraction(x, e) for x in self.project(u)[0])

    def section(self, free: Vec, tor: Vec) -> Vec:
        """An ambient representative with the given quotient coordinates."""
        y = [0] * self.ambient_rank
        for i, val in zip(self._free_rows, free, strict=True):
            y[i] = val
        for i, val in zip(self._torsion_rows, tor, strict=True):
            y[i] = val
        return matvec(self._Uinv, tuple(y))

    @cached_property
    def section_basis(self) -> tuple:
        """The sections of the free unit vectors with torsion part 0: b_i
        has free coordinates e_i, so f ↦ Σ f_i·b_i is a section of the free part."""
        zero = (0,) * len(self.torsion)
        return tuple(self.section(e, zero) for e in identity(self.free_rank))

    def torsion_order(self) -> int:
        return prod(self.torsion)

    @cached_property
    def places(self) -> tuple:
        """The place of each torsion coordinate in the mixed-radix torsion
        index: a reduced part tor has index Σ tor_j·places_j, a bijection
        onto range(torsion_order())."""
        return tuple(prod(self.torsion[:j]) for j in range(len(self.torsion)))

    def index(self, tor) -> int:
        """The mixed-radix index of a torsion part, reduced first."""
        return sum(x % d * p for x, d, p in zip(tor, self.torsion, self.places))

    def add(self, t: int, tor) -> int:
        """The index of (the torsion part with index t) + tor; t // p is
        digit j of t plus a multiple of d_j, which `index` reduces away."""
        return self.index(t // p + x for x, p in zip(tor, self.places))

    def coset_representatives(self) -> list[Vec]:
        """All cosets as ambient representatives; requires free rank 0."""
        if self.free_rank != 0:
            raise DomainError("coset enumeration requires a finite quotient")
        return [self.section((), tor) for tor in product(*(range(d) for d in self.torsion))]


def quotient(ambient_rank: int, B) -> LatticeQuotient:
    """Quotient of Z^ambient_rank by the lattice spanned by the vectors in B."""
    B = [tuple(b) for b in B]
    for b in B:
        if len(b) != ambient_rank:
            raise DimensionMismatchError("quotient: sublattice vector of wrong dimension")
    if not B:
        B_mat = tuple((0,) for _ in range(ambient_rank))  # single zero column
    else:
        B_mat = from_columns(B)
    if ambient_rank == 0:
        return LatticeQuotient(0, 0, (), (), (), (), ())
    S, U, Uinv = smith_normal_form(B_mat)
    n, m = shape(S)
    diag = [S[i][i] for i in range(min(n, m))] + [0] * max(0, n - min(n, m))
    torsion_rows = tuple(i for i, d in enumerate(diag) if d not in (0, 1))
    free_rows = tuple(i for i, d in enumerate(diag) if d == 0)
    torsion = tuple(diag[i] for i in torsion_rows)
    return LatticeQuotient(
        ambient_rank=ambient_rank,
        free_rank=len(free_rows),
        torsion=torsion,
        _U=U,
        _Uinv=Uinv,
        _torsion_rows=torsion_rows,
        _free_rows=free_rows,
    )


# ---------------------------------------------------------------------------
# Rational linear algebra
# ---------------------------------------------------------------------------

def _rref_ints(rows, width: int) -> tuple[list, list[int], list[int]]:
    """Gauss-Jordan over Q on the first `width` columns of `rows`, fraction-free.

    Returns (rows, denominators, pivots): pivots scaled to 1, the remaining
    columns carried along, row r holding pivot r.  Row r stands for
    rows[r] / denominators[r] in lowest terms with a positive denominator;
    each row operation is p.a - a_c.b over den.p followed by one gcd
    reduction of the row, so every step holds the same rationals as a
    Gauss-Jordan in fractions would.
    """
    A, D = map(list, zip(*map(scaled, rows))) if rows else ([], [])
    n = len(A)
    pivots: list[int] = []
    for col in range(width):
        row = len(pivots)
        if row == n:
            break
        piv = next((r for r in range(row, n) if A[r][col] != 0), None)
        if piv is None:
            continue
        A[row], A[piv], D[piv] = A[piv], A[row], D[row]
        # scaled to pivot 1 the row is A[row] / A[row][col]; reduce that
        g = gcd(*A[row]) if A[row][col] > 0 else -gcd(*A[row])
        b = A[row] = [x // g for x in A[row]]
        p = D[row] = b[col]
        for r in range(n):
            if r != row and A[r][col] != 0:
                f = A[r][col]
                a = [p * x - f * y for x, y in zip(A[r], b)]
                g = gcd(D[r] * p, *a)
                A[r], D[r] = [x // g for x in a], D[r] * p // g
        pivots.append(col)
    return A, D, pivots


def rational_solve(M: Mat, b: Vec):
    """Some rational x with M.x = b, or None when inconsistent (free vars -> 0)."""
    n, m = shape(M)
    if len(b) != n:
        raise DimensionMismatchError("rational_solve: dimension mismatch")
    A, D, pivots = _rref_ints([list(M[i]) + [b[i]] for i in range(n)], m)
    if any(A[r][m] != 0 for r in range(len(pivots), n)):
        return None
    x = [Fraction(0)] * m
    for r, c in enumerate(pivots):
        x[c] = Fraction(A[r][m], D[r])
    return tuple(x)


def solution_map(M: Mat) -> tuple[list, list[int], list, list[int]]:
    """(N, D, C, pivots), all integers: M.x = b is solvable iff C.b = 0, and
    `rational_solve(M, b)` is then N[k].b / D[k] (D[k] > 0) at pivots[k], 0
    elsewhere.  One Gauss-Jordan on [M | I]: its steps read only M, so the
    carried row k is the combination of M's rows that one on [M | b] leaves
    in row k, and that row ends in its value at b."""
    n, m = shape(M)
    A, D, pivots = _rref_ints([list(M[i]) + [int(i == j) for j in range(n)] for i in range(n)], m)
    r = len(pivots)
    return [row[m:] for row in A[:r]], D[:r], [row[m:] for row in A[r:]], pivots


def scaled_left_inverse(M: Mat) -> tuple[list, list[int], list]:
    """(N, D, C) of `solution_map` for M of full column rank: M.x = b iff
    C.b = 0, and then x_i = N[i].b / D[i]."""
    N, D, C, pivots = solution_map(M)
    if len(pivots) != shape(M)[1]:
        raise DimensionMismatchError("scaled_left_inverse: columns are linearly dependent")
    return N, D, C


def rational_rank(M: Mat) -> int:
    return len(_rref_ints(M, shape(M)[1])[2])


def rational_kernel(M: Mat) -> list[Vec]:
    """Basis of {x in Q^m : M.x = 0}: one primitive integer vector per free
    column, positive there, zero at the other free columns."""
    m = shape(M)[1]
    A, D, pivots = _rref_ints(M, m)
    basis = []
    for free in sorted(set(range(m)) - set(pivots)):
        e = lcm(*(d for row, d in zip(A, D) if row[free]))
        v = [0] * m
        v[free] = e
        for r, c in enumerate(pivots):
            v[c] = -A[r][free] * (e // D[r])
        g = gcd(*v)
        basis.append(tuple(x // g for x in v))
    return basis


def integer_kernel(M: Mat) -> list[Vec]:
    """Basis of the saturated lattice {x in Z^m : M.x = 0} for integer M."""
    H, U = hermite_normal_form(M)
    return [u for h, u in zip(columns(H), columns(U)) if is_zero_vec(h)]


def scaled(v) -> tuple[list, int]:
    """(e.v as a list of ints, e) for a rational vector v, e the lcm of its denominators."""
    e = lcm(*[x.denominator for x in v])
    return [x.numerator * (e // x.denominator) for x in v], e


def clear_denominators(v) -> Vec:
    """Scale a rational vector to a primitive integer vector (positive gcd)."""
    ints, _e = scaled(v)
    g = gcd(*ints) or 1
    return tuple(x // g for x in ints)
