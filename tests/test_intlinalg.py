import math
import random
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd

import pytest

from minfol import intlinalg as la
from minfol.errors import DomainError


def mat_vec(A, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def random_matrix(rng, m, n, lo=-6, hi=7):
    return [[rng.randrange(lo, hi) for _ in range(n)] for _ in range(m)]


def gauss_jordan(M):
    """Reference: textbook Gauss-Jordan over Fraction.  Returns the
    reduced row echelon form, its pivot columns, and det(M) for square M."""
    R = [[Fraction(x) for x in row] for row in M]
    pivots, det = [], Fraction(1)
    for c in range(len(R[0]) if R else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(R)) if R[i][c]), None)
        if p is None:
            continue
        if p != r:
            R[r], R[p] = R[p], R[r]
            det = -det
        pv = R[r][c]
        det *= pv
        R[r] = [x / pv for x in R[r]]
        for i in range(len(R)):
            f = R[i][c]
            if i != r and f:
                R[i] = [x - f * y for x, y in zip(R[i], R[r])]
        pivots.append(c)
    if len(pivots) < len(R):
        det = Fraction(0)
    return R, pivots, det


def oracle_matrices(rng):
    """Seeded integer and Fraction matrices, with the shapes and ranks
    an elimination gets wrong first."""
    yield [[0, 0, 0]]
    yield [[0], [0]]
    yield [[3, -6, 9]]
    yield [[0, 0], [0, 0]]
    yield [[2, 0, 4], [0, 0, 0], [1, 0, 2]]
    for trial in range(400):
        m, n = rng.randrange(1, 7), rng.randrange(1, 7)
        kind = trial % 4
        if kind == 0:
            A = random_matrix(rng, m, n)
        elif kind == 1:
            A = [[Fraction(rng.randrange(-5, 6), rng.randrange(1, 5))
                  for _ in range(n)] for _ in range(m)]
        elif kind == 2:   # rank at most k < min(m, n) where possible
            k = rng.randrange(1, max(2, min(m, n)))
            A = la.mat_mul(random_matrix(rng, m, k, -3, 4),
                           random_matrix(rng, k, n, -3, 4))
        else:             # a zero row and a zero column
            A = random_matrix(rng, m, n, -2, 3)
            A[rng.randrange(m)] = [0] * n
            j = rng.randrange(n)
            for row in A:
                row[j] = 0
        yield A
        if rng.randrange(3) == 0:
            yield random_matrix(rng, 1, n)


def test_rank_and_kernel_dimensions():
    rng = random.Random(2)
    for trial in range(200):
        m = rng.randrange(1, 6)
        n = rng.randrange(1, 6)
        A = random_matrix(rng, m, n)
        r = la.rank_rational(A)
        ker = la.kernel_rational(A)
        assert r + len(ker) == n
        for v in ker:
            out = mat_vec(A, v)
            assert all(x == 0 for x in out)


def test_kernel_vectors_are_primitive_integer():
    A = [[2, 4], [1, 2]]
    (v,) = la.kernel_rational(A)
    assert all(isinstance(x, int) or Fraction(x).denominator == 1
               for x in v)
    from math import gcd
    g = 0
    for x in v:
        g = gcd(g, abs(int(x)))
    assert g == 1


def test_det_and_inverse():
    rng = random.Random(5)
    for trial in range(150):
        n = rng.randrange(1, 5)
        A = random_matrix(rng, n, n, -3, 4)
        d = la.det_rational(A)
        if d == 0:
            with pytest.raises(ValueError):
                la._adjugate(A)
            continue
        adj, det = la._adjugate(A)
        assert det == d
        dI = [[d * x for x in row] for row in la.identity_matrix(n)]
        assert la.mat_eq(la.mat_mul(A, adj), dI)
        assert la.mat_eq(la.mat_mul(adj, A), dI)


def test_det_multiplicative():
    rng = random.Random(7)
    for trial in range(100):
        n = rng.randrange(1, 5)
        A = random_matrix(rng, n, n, -3, 4)
        B = random_matrix(rng, n, n, -3, 4)
        assert la.det_rational(la.mat_mul(A, B)) == \
            la.det_rational(A) * la.det_rational(B)


def smith_with_transforms(M):
    """Reference: the Smith form with both transforms, (U, D, V, Vinv)
    with U*M*V = D, D the dense diagonal matrix and Vinv the inverse of
    V.  It makes the same row and column operations as
    `smith_normal_form` and also builds U and negates rows to make D
    nonnegative."""
    A = [list(row) for row in M]
    m = len(A)
    n = len(A[0]) if m else 0
    U = la.identity_matrix(m)
    V = la.identity_matrix(n)
    Vinv = la.identity_matrix(n)

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def add_row(dst, src, k):
        A[dst] = [x + k * y for x, y in zip(A[dst], A[src])]
        U[dst] = [x + k * y for x, y in zip(U[dst], U[src])]

    def add_col(dst, src, k):
        for row in A:
            row[dst] += k * row[src]
        for row in V:
            row[dst] += k * row[src]
        Vinv[src] = [x - k * y for x, y in zip(Vinv[src], Vinv[dst])]

    def negate_row(i):
        A[i] = [-x for x in A[i]]
        U[i] = [-x for x in U[i]]

    t = 0
    while t < min(m, n):
        pivot = la._min_pivot(A, t)
        if pivot is None:
            break
        i, j = pivot
        if i != t:
            swap_rows(i, t)
        if j != t:
            swap_cols(j, t)
        dirty = False
        for i in range(t + 1, m):
            if A[i][t] != 0:
                q = A[i][t] // A[t][t]
                add_row(i, t, -q)
                if A[i][t] != 0:
                    dirty = True
        for j in range(t + 1, n):
            if A[t][j] != 0:
                q = A[t][j] // A[t][t]
                add_col(j, t, -q)
                if A[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if A[i][j] % A[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(t, offender, 1)
            continue
        if A[t][t] < 0:
            negate_row(t)
        t += 1
    return U, A, V, Vinv


def diagonal(D):
    return [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0))]


def test_smith_normal_form_properties():
    rng = random.Random(11)
    for trial in range(200):
        m = rng.randrange(1, 6)
        n = rng.randrange(1, 6)
        A = random_matrix(rng, m, n)
        divisors, V, Vinv = la.smith_normal_form(A)
        U, D, V_ref, Vinv_ref = smith_with_transforms(A)
        assert (divisors, V, Vinv) == (diagonal(D), V_ref, Vinv_ref)
        assert la.mat_eq(la.mat_mul(la.mat_mul(U, A), V), D)
        assert abs(la.det_rational(U)) == 1
        assert abs(la.det_rational(V)) == 1
        assert la.mat_eq(la.mat_mul(V, Vinv), la.identity_matrix(n))
        assert la.mat_eq(la.mat_mul(Vinv, V), la.identity_matrix(n))
        # off-diagonal zero, nonnegative divisor chain
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert D[i][j] == 0
        for a, b in zip(divisors, divisors[1:]):
            assert a >= 0
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0


def test_mat_mul_refuses_mismatched_shapes():
    with pytest.raises(DomainError, match="rows of length 3$"):
        la.mat_mul([[1, 2]], [[1], [2], [3]])


def test_smith_normal_form_fixed_example():
    # worked by hand: gcd of entries 2, |det| = 8, so divisors 2 and 4
    divisors, V, Vinv = la.smith_normal_form([[2, 4], [6, 8]])
    assert divisors == [2, 4]


def test_rank_of_rational_entries():
    A = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(2)]]
    assert la.rank_rational(A) == 2
    B = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(2)],
         [Fraction(2), Fraction(4, 3)]]
    assert la.rank_rational(B) == 2
    # a genuinely dependent pair collapses to rank one
    C = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)]]
    assert la.rank_rational(C) == 1


def echelon_test_matrices():
    """Seeded integer matrices with the empty, zero and singular cases:
    random shapes up to 6 x 10, rows repeated or combined, and column
    blocks of zeros."""
    rng = random.Random(83)
    matrices = [[], [[]], [[0]], [[0, 0, 0], [0, 0, 0]], [[1, 2], [2, 4]],
                [[5]], [[-3, 6, 9]], [[0, 4], [0, 6]]]
    for trial in range(300):
        m, n = rng.randrange(1, 7), rng.randrange(1, 11)
        A = random_matrix(rng, m, n, -5, 6)
        if m > 1 and rng.random() < 0.3:
            i, j = rng.sample(range(m), 2)
            k = rng.randrange(-3, 4)
            A[i] = [k * x + y for x, y in zip(A[j], A[rng.randrange(m)])]
        if rng.random() < 0.2:
            c = rng.randrange(n)
            for row in A:
                row[c] = 0
        matrices.append(A)
    return matrices


def test_integer_rows_echelon_as_their_fraction_copies():
    singular = 0
    for A in echelon_test_matrices():
        before = [list(row) for row in A]
        R, pivots, det = la._echelon(A)
        assert A == before
        F = [[Fraction(x) for x in row] for row in A]
        assert (R, pivots, det) == la._echelon(F), A
        assert type(det) is Fraction
        # tuple rows come back as lists too
        assert la._echelon([tuple(row) for row in A]) == (R, pivots, det)
        assert all(type(row) is list for row in R)
        if len(A) == len(A[0] if A else ()) and det == 0:
            singular += 1
        # scaling row i by 1/k_i scales the leading determinant the
        # same way and leaves the primitive rows alone
        ks = [(i % 3) + 2 for i in range(len(A))]
        G = [[Fraction(x, k) for x in row] for row, k in zip(A, ks)]
        Rg, pg, dg = la._echelon(G)
        assert (Rg, pg, dg) == (R, pivots, det / math.prod(ks))
    assert singular >= 10


def test_kernel_agrees_with_reference_gauss_jordan():
    rng = random.Random(17)
    for A in oracle_matrices(rng):
        m, n = len(A), len(A[0])
        R, pivots, det = gauss_jordan(A)
        assert la.rank_rational(A) == len(pivots)
        free = [c for c in range(n) if c not in pivots]
        ker = la.kernel_rational(A)
        assert len(ker) == len(free)
        for fc, k in zip(free, ker):
            v = [Fraction(0)] * n
            v[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = -R[r][fc]
            # k is the primitive integer multiple of v, first entry > 0
            assert all(type(x) is int for x in k)
            assert k == [k[fc] * x for x in v]
            assert gcd(*k) == 1
            assert next(x for x in k if x) > 0
        if m == n:
            assert la.det_rational(A) == det
            if det == 0:
                with pytest.raises(ValueError):
                    la._adjugate(A)
            elif all(type(x) is int for row in A for x in row):
                R, _, _ = gauss_jordan([row + [int(i == j) for j in range(n)]
                                        for i, row in enumerate(A)])
                adj, d = la._adjugate(A)
                assert d == det
                assert [[Fraction(x, d) for x in row] for row in adj] == \
                    [row[n:] for row in R]


def leibniz_det(M):
    n = len(M)
    total = 0
    for p in permutations(range(n)):
        inversions = sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= M[i][p[i]]
        total += term
    return total


def test_smith_form_matches_gcd_of_minors():
    # invariant factor k is d_k / d_(k-1), where d_k is the gcd of all
    # k x k minors (d_0 = 1; a factor is 0 once d_k vanishes)
    rng = random.Random(19)
    for trial in range(150):
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        A = random_matrix(rng, m, n, -4, 5)
        if trial % 3 == 0 and min(m, n) > 1:
            A[1] = [2 * x for x in A[0]]
        factors, prev = [], 1
        for k in range(1, min(m, n) + 1):
            dk = 0
            for rows in combinations(range(m), k):
                for cols in combinations(range(n), k):
                    dk = gcd(dk, leibniz_det([[A[i][j] for j in cols]
                                              for i in rows]))
            factors.append(dk // prev if prev else 0)
            prev = dk
        assert la.smith_normal_form(A)[0] == factors


def _full_scan_pivot(A, t):
    """The pivot search as a full scan of the block: the first nonzero
    entry of least absolute value in row-major order."""
    pivot, best = None, None
    for i in range(t, len(A)):
        for j in range(t, len(A[i])):
            if A[i][j] != 0 and (best is None or abs(A[i][j]) < best):
                pivot, best = (i, j), abs(A[i][j])
    return pivot


def smith_test_matrices(squares):
    """300 seeded random matrices, then the face boundaries of
    `pillowcase_origami(n, (1, 1, 1, n - 3))` in non-tree coordinates,
    every divisor 1, at the given numbers of squares 2n."""
    from minfol.homology import _chain_complex
    from minfol.origami import pillowcase_origami

    rng = random.Random(29)
    matrices = [random_matrix(rng, rng.randrange(1, 8), rng.randrange(1, 8),
                              -4, 5) for _ in range(300)]
    return matrices + [
        _chain_complex(pillowcase_origami(s // 2, (1, 1, 1, s // 2 - 3))).B
        for s in squares]


def test_smith_pivot_scan_stopping_at_a_unit_gives_the_same_forms(
        monkeypatch):
    matrices = smith_test_matrices((64, 128, 256))
    early = [la.smith_normal_form(A) for A in matrices]
    monkeypatch.setattr(la, "_min_pivot", _full_scan_pivot)
    for A, forms in zip(matrices, early):
        assert la.smith_normal_form(A) == forms


def test_smith_normal_form_matches_the_full_transform_reference():
    # the divisors, V and V^-1 are those of the reference that builds U
    # and the dense D as well: dropping them changes no operation
    for A in smith_test_matrices((8, 16, 32, 64, 128)):
        U, D, V, Vinv = smith_with_transforms(A)
        assert la.mat_eq(la.mat_mul(la.mat_mul(U, A), V), D)
        assert la.smith_normal_form(A) == (diagonal(D), V, Vinv)
