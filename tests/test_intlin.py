import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_hnf import EDGE, reference_draws, reference_hnf
from reference_smith import reference_smith

from gkzfactors import intlin as il
from gkzfactors.errors import DimensionMismatchError

small_matrices = st.integers(1, 3).flatmap(
    lambda n: st.integers(1, 4).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-6, 6), min_size=m, max_size=m),
            min_size=n, max_size=n)))


def test_hnf_basic():
    H, U = il.hermite_normal_form(((2, 4), (0, 2)))
    assert il.matmul(((2, 4), (0, 2)), U) == H
    assert abs(_det2(U)) == 1


def _det2(U):
    return U[0][0] * U[1][1] - U[0][1] * U[1][0]


def _smith(M):
    """(S, U, V, U⁻¹): the library's S, U and U⁻¹, checked equal to the
    reference Smith form's, with the reference's V."""
    S, U, V, Uinv = reference_smith(M)
    assert il.smith_normal_form(M) == (S, U, Uinv), M
    return S, U, V, Uinv


def test_snf_regression_negative_triangular():
    # regression: this input used to cycle in the divisibility fixup
    M = ((-2, -2), (0, -2))
    S, U, V, _Uinv = _smith(M)
    assert il.matmul(il.matmul(U, M), V) == S
    assert S[0][0] == 2 and S[1][1] == 2 and S[0][1] == 0 and S[1][0] == 0


def test_snf_exhaustive_2x2():
    for a in range(-2, 3):
        for b in range(-2, 3):
            for c in range(-2, 3):
                for d in range(-2, 3):
                    M = ((a, b), (c, d))
                    S, U, V, Uinv = _smith(M)
                    assert il.matmul(il.matmul(U, M), V) == S
                    assert il.matmul(U, Uinv) == il.identity(2)
                    assert S[0][1] == 0 and S[1][0] == 0
                    if S[0][0] and S[1][1]:
                        assert S[1][1] % S[0][0] == 0


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_snf_identity_and_divisibility(rows):
    M = il.freeze(rows)
    S, U, V, Uinv = _smith(M)
    assert il.matmul(il.matmul(U, M), V) == S
    assert il.matmul(U, Uinv) == il.identity(len(M))
    diag = [S[i][i] for i in range(min(il.shape(S)))]
    for x, y in zip(diag, diag[1:]):
        if x and y:
            assert y % x == 0
        if x == 0:
            assert y == 0


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_hnf_preserves_column_lattice(rows):
    M = il.freeze(rows)
    H, U = il.hermite_normal_form(M)
    assert il.matmul(M, U) == H
    # every column of H is an integer combination of columns of M and back
    BM = il.column_lattice_basis(M)
    for c in il.columns(H):
        if BM:
            assert il.lattice_coordinates(BM, c) is not None
        else:
            assert il.is_zero_vec(c)


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_quotient_kills_generators(rows):
    M = il.freeze(rows)
    n = il.shape(M)[0]
    q = il.quotient(n, il.columns(M))
    for c in il.columns(M):
        assert q.project(c) == ((0,) * q.free_rank, (0,) * len(q.torsion))


def test_lattice_coordinates_roundtrip():
    B = [(2, 0), (1, 3)]
    v = (7, 9)  # 2*(2,0) + 3*(1,3)
    coords = il.lattice_coordinates(B, v)
    assert coords is not None
    rebuilt = tuple(sum(c * b[i] for c, b in zip(coords, B)) for i in range(2))
    assert rebuilt == v
    assert il.lattice_coordinates(B, (1, 1)) is None


def test_rational_solve_and_kernel():
    M = ((1, 2), (2, 4))
    x = il.rational_solve(M, (3, 6))
    assert x is not None
    assert tuple(sum(Fraction(M[i][j]) * x[j] for j in range(2))
                 for i in range(2)) == (3, 6)
    assert il.rational_solve(M, (1, 0)) is None
    ker = il.rational_kernel(M)
    assert len(ker) == 1
    # primitive integer vectors: scaled to (-2, -2, 2, 0) the first has content 2
    assert il.rational_kernel(((2, 0, 2, 1), (0, 2, 2, 1))) == [(-1, -1, 1, 0), (-1, -1, 0, 2)]


def _left_inverse(M):
    """(L, C) from scaled_left_inverse, L in fractions: M.x = b iff C.b = 0, and x = L.b."""
    N, D, C = il.scaled_left_inverse(M)
    return tuple(tuple(Fraction(x, d) for x in row) for row, d in zip(N, D)), C


@settings(max_examples=60)
@given(small_matrices, st.lists(st.integers(-5, 5), min_size=3, max_size=3))
def test_left_inverse_matches_rational_solve(M, b):
    # on a lattice basis (independent columns) the left inverse gives the
    # solution rational_solve gives, and C.b = 0 exactly when one exists
    basis = il.column_lattice_basis(il.freeze(M))
    if not basis:
        return
    B = il.from_columns(basis)
    L, C = _left_inverse(B)
    for v in (tuple(b[:len(M)]), basis[0], tuple(sum(c) for c in zip(*basis))):
        want = il.rational_solve(B, v)
        consistent = not any(il.dot(row, v) for row in C)
        assert consistent == (want is not None)
        if consistent:
            assert il.matvec(L, v) == want
    with pytest.raises(DimensionMismatchError):
        _left_inverse(il.from_columns(basis + [basis[0]]))


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        il.rational_solve(((1, 2),), (1, 2, 3))


def test_free_values():
    q = il.quotient(2, [(0, 2)])
    # ZA=Z^2 modulo Z(0,2): one free coordinate (x) and one torsion (y mod 2)
    assert q.free_rank == 1 and q.torsion_order() == 2
    assert q.free_values((3, 1)) != q.free_values((4, 1))
    # Z^3 modulo Z(1, 1, 0): the free coordinates are x2 - x1 and x3, exact
    # on a rational input
    q = il.quotient(3, [(1, 1, 0)])
    v = (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4))
    assert q.free_values(v) == (Fraction(-7, 6), Fraction(5, 4))
    # the values are linear: free_values(v) = free_values(e.v) / e, and on an
    # integer vector they are the free part of its projection
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 4)
        q = il.quotient(n, [tuple(rng.randint(-3, 3) for _ in range(n))
                            for _ in range(rng.randint(0, n))])
        v = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n))
        u, e = il.scaled(v)
        assert tuple(Fraction(x) for x in u) == tuple(e * x for x in v)
        assert q.free_values(v) == tuple(x / e for x in q.free_values(u))
        assert q.free_values(u) == q.project(u)[0]


def test_clear_denominators():
    assert il.clear_denominators((Fraction(1, 2), Fraction(3, 4))) == (2, 3)
    assert il.clear_denominators((Fraction(-1, 2),)) == (-1,)


def _rref_fractions(rows, width: int) -> tuple[list, list[int]]:
    """Gauss-Jordan over Q on the first `width` columns of `rows`.

    Returns the reduced rows (Fractions, pivots scaled to 1, the remaining
    columns carried along) and the pivot columns; row r holds pivot r.
    """
    A = [[Fraction(x) for x in row] for row in rows]
    n = len(A)
    pivots: list[int] = []
    for col in range(width):
        row = len(pivots)
        if row == n:
            break
        piv = next((r for r in range(row, n) if A[r][col] != 0), None)
        if piv is None:
            continue
        A[row], A[piv] = A[piv], A[row]
        p = A[row][col]
        A[row] = [x / p for x in A[row]]
        for r in range(n):
            if r != row and A[r][col] != 0:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[row])]
        pivots.append(col)
    return A, pivots


def _random_rational_rows(rng):
    """A small matrix of ints and Fractions with zero and repeated rows."""
    m = rng.randint(1, 6)

    def entry():
        if rng.random() < 0.3:
            return 0
        if rng.random() < 0.3:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        return rng.randint(-5, 5)

    rows = []
    for _ in range(rng.randint(1, 5)):
        kind = rng.random()
        if kind < 0.1:
            rows.append([0] * m)
        elif kind < 0.25 and rows:
            rows.append(list(rng.choice(rows)))
        else:
            rows.append([entry() for _ in range(m)])
    return rows, rng.randint(0, m)


def test_rref_matches_fraction_gauss_jordan():
    # the fraction-free engine holds the same rationals at every step, so
    # its rows (pivot and non-pivot) and pivots equal elimination in fractions
    rng = random.Random(20240601)
    for _ in range(20_000):
        rows, width = _random_rational_rows(rng)
        want = _rref_fractions(rows, width)
        A, D, pivots = il._rref_ints(rows, width)
        assert all(type(x) is int for row in A for x in row) and all(d > 0 for d in D)
        got = ([[Fraction(x, d) for x in row] for row, d in zip(A, D)], pivots)
        assert got == want, (rows, width)
        if width == len(rows[0]):
            assert il.rational_rank(il.freeze(rows)) == len(want[1])


def test_scaled_inverse_floors_match_fractions():
    rng = random.Random(7)
    checked = 0
    while checked < 300:
        r = rng.randint(1, 4)
        M = il.freeze([[rng.randint(-4, 4) for _ in range(r)] for _ in range(r)])
        if il.rational_rank(M) != r:
            with pytest.raises(DimensionMismatchError):
                il.scaled_left_inverse(M)
            continue
        N, D, _C = il.scaled_left_inverse(M)
        Minv, _ = _left_inverse(M)
        assert all(d > 0 for d in D)
        for _ in range(5):
            y = tuple(rng.randint(-30, 30) for _ in range(r))
            floor = tuple(il.dot(row, y) // d for row, d in zip(N, D))
            assert floor == tuple(x.numerator // x.denominator for x in il.matvec(Minv, y))
        checked += 1


def test_quotient_matches_reference_smith():
    # the library's Smith form is the reference routine's, and `quotient`
    # keeps its U, U⁻¹ and torsion
    rng = random.Random(15)
    nontrivial = 0
    for _ in range(2400):
        n, m = rng.randint(1, 5), rng.randint(1, 6)
        bound, density = rng.choice((1, 2, 4, 9)), rng.choice((0.3, 0.7, 1.0))
        M = tuple(tuple(rng.randint(-bound, bound) if rng.random() < density else 0
                        for _ in range(m)) for _ in range(n))
        S, U, _V, Uinv = _smith(M)
        q = il.quotient(n, il.columns(M))
        diag = [S[i][i] for i in range(min(n, m))] + [0] * max(0, n - m)
        assert (q._U, q._Uinv) == (U, Uinv), M
        assert q.torsion == tuple(d for d in diag if d not in (0, 1)), M
        nontrivial += bool(q.torsion)
    assert nontrivial > 300


def test_hnf_matches_row_major_reference():
    # the column-major routine performs the reference's column operations in
    # the same order, so H and U are identical values, not just equivalent
    for M in EDGE:
        assert il.hermite_normal_form(M) == reference_hnf(M), M
    ranks = set()
    for M in reference_draws():
        H, U = il.hermite_normal_form(M)
        assert (H, U) == reference_hnf(M), M
        assert il.matmul(M, U) == H
        ranks.add((len(il.hnf_pivots(H)) < min(il.shape(M)), il.shape(M)[0] == 1))
    assert ranks == {(False, False), (False, True), (True, False), (True, True)}


def test_hnf_carries_stacked_rows():
    # the one HNF transforms whatever rows are stacked under M by the same
    # column operations: R.U for rows R, nothing for no rows, U by default
    rng = random.Random(23)
    for M in EDGE + reference_draws():
        H, U = reference_hnf(M)
        m = il.shape(M)[1]
        R = il.freeze([[rng.randint(-9, 9) for _ in range(m)] for _ in range(rng.randint(1, 4))])
        assert il.hermite_normal_form(M, R) == (H, il.matmul(R, U)), (M, R)
        assert il.hermite_normal_form(M, ()) == (H, ()), M
        assert il.hermite_normal_form(M, il.identity(m)) == (H, U), M
    with pytest.raises(DimensionMismatchError):
        il.hermite_normal_form(((1, 2),), ((1, 2, 3),))


def _entrywise(u, v, c):
    """The vector helpers' values by the entry-by-entry formulas."""
    r = range(len(u))
    return {"vadd": tuple(u[i] + v[i] for i in r), "vsub": tuple(u[i] - v[i] for i in r),
            "vneg": tuple(-u[i] for i in r), "vscale": tuple(c * u[i] for i in r),
            "dot": sum(u[i] * v[i] for i in r), "is_zero_vec": all(u[i] == 0 for i in r)}


def test_vector_helpers_match_entrywise_formulas():
    rng = random.Random(5)

    def entry(rational):
        x = rng.choice((0, 0, rng.randint(-9, 9)))
        return Fraction(x, rng.randint(1, 6)) if rational and rng.random() < 0.7 else x

    for _ in range(600):
        rational, n, m = rng.random() < 0.5, rng.randint(0, 5), rng.randint(0, 4)
        u, v = (tuple(entry(rational) for _ in range(n)) for _ in range(2))
        c = entry(rational)
        got = {"vadd": il.vadd(u, v), "vsub": il.vsub(u, v), "vneg": il.vneg(u),
               "vscale": il.vscale(c, u), "dot": il.dot(u, v), "is_zero_vec": il.is_zero_vec(u)}
        assert got == _entrywise(u, v, c), (u, v, c)
        assert type(got["dot"]) is type(_entrywise(u, v, c)["dot"])
        A = tuple(tuple(entry(rational) for _ in range(n)) for _ in range(m))
        B = tuple(tuple(entry(rational) for _ in range(m)) for _ in range(n))
        if m:  # a matrix without rows has no column count
            assert il.matvec(A, u) == tuple(sum(A[i][j] * u[j] for j in range(n))
                                            for i in range(m))
            assert il.matmul(A, B) == tuple(tuple(sum(A[i][t] * B[t][j] for t in range(n))
                                                  for j in range(il.shape(B)[1]))
                                            for i in range(m))
        assert il.columns(A) == [tuple(row[j] for row in A) for j in range(il.shape(A)[1])]
        assert il.freeze([list(row) for row in A]) == A
        assert il.from_columns(il.columns(A), dim=m) == A
        assert il.from_columns(il.columns(B), dim=n) == B


def test_vector_helpers_reject_unequal_lengths():
    for op in (il.vadd, il.vsub, il.dot):
        with pytest.raises(DimensionMismatchError):
            op((1, 2), (1,))
        with pytest.raises(DimensionMismatchError):
            op((), (Fraction(1, 2),))
    with pytest.raises(DimensionMismatchError):
        il.matvec(((1, 2),), (1,))
    with pytest.raises(DimensionMismatchError):
        il.matmul(((1, 2),), ((1,),))


def test_section_basis_sections_the_free_unit_vectors():
    rng = random.Random(9)
    for _ in range(300):
        n = rng.randint(1, 4)
        q = il.quotient(n, [tuple(rng.randint(-3, 3) for _ in range(n))
                            for _ in range(rng.randint(0, n))])
        basis = q.section_basis
        assert len(basis) == q.free_rank
        for e, b in zip(il.identity(q.free_rank), basis):
            assert q.project(b) == (e, (0,) * len(q.torsion))
        if not q.torsion:  # the basis its callers built by hand
            assert list(basis) == [q.section(e, ()) for e in il.identity(q.free_rank)]
