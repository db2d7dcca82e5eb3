"""Exact linear algebra over Z and Q on plain lists of lists.

Everything here is integer or Fraction arithmetic; no floats.  Matrices
are small throughout the package (a homology basis for a d-square
surface needs 2d x 2d at worst), so clarity beats asymptotics.
"""

from fractions import Fraction
from math import gcd


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    n, k = len(A), len(B)
    assert all(len(row) == k for row in A)
    p = len(B[0]) if B else 0
    out = [[0] * p for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        for t in range(k):
            a = Ai[t]
            if a == 0:
                continue
            Bt = B[t]
            Oi = out[i]
            for j in range(p):
                Oi[j] += a * Bt[j]
    return out


def mat_vec(A, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def transpose(A):
    return [list(col) for col in zip(*A)]


def mat_eq(A, B):
    return len(A) == len(B) and all(list(r) == list(s) for r, s in zip(A, B))


def mat_neg(A):
    return [[-x for x in row] for row in A]


def _rref(M):
    """Reduced row echelon form over Q.  Returns (rows, pivot columns)."""
    R = [[Fraction(x) for x in row] for row in M]
    m = len(R)
    n = len(R[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if R[i][c] != 0), None)
        if pivot is None:
            continue
        R[r], R[pivot] = R[pivot], R[r]
        pv = R[r][c]
        R[r] = [x / pv for x in R[r]]
        for i in range(m):
            if i != r and R[i][c] != 0:
                f = R[i][c]
                R[i] = [x - f * y for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return R, pivots


def rank_rational(M):
    if not M or not M[0]:
        return 0
    return len(_rref(M)[1])


def kernel_rational(M):
    """Basis of the rational kernel of M, as primitive integer vectors."""
    if not M:
        return []
    n = len(M[0])
    R, pivots = _rref(M)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -R[r][fc]
        basis.append(_primitive(v))
    return basis


def solve_rational(A, b):
    """One rational solution x of A x = b, or None.  x is a Fraction list."""
    m = len(A)
    n = len(A[0]) if m else 0
    aug = [[Fraction(x) for x in row] + [Fraction(bb)] for row, bb in zip(A, b)]
    R, pivots = _rref(aug)
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for r, pc in enumerate(pivots):
        x[pc] = R[r][n]
    return x


def _primitive(v):
    """Scale a rational vector to a primitive integer vector."""
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    w = [int(x * den) for x in v]
    g = 0
    for x in w:
        g = gcd(g, x)
    if g > 1:
        w = [x // g for x in w]
    for x in w:
        if x != 0:
            if x < 0:
                w = [-y for y in w]
            break
    return w


def det_rational(M):
    n = len(M)
    R = [[Fraction(x) for x in row] for row in M]
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if R[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            R[c], R[pivot] = R[pivot], R[c]
            det = -det
        det *= R[c][c]
        inv = 1 / R[c][c]
        for i in range(c + 1, n):
            if R[i][c] != 0:
                f = R[i][c] * inv
                R[i] = [x - f * y for x, y in zip(R[i], R[c])]
    return det


def mat_inverse_rational(M):
    """Exact inverse of a square matrix, as Fraction entries.

    Callers in this package only invert unimodular transforms, so the
    entries come out integral; singular input raises ValueError.
    """
    n = len(M)
    aug = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0)
                                         for j in range(n)]
           for i, row in enumerate(M)]
    R, pivots = _rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in R[:n]]


def smith_normal_form(M):
    """Smith normal form with transforms: returns (U, D, V), U*M*V = D.

    U and V are unimodular; D is diagonal with d1 | d2 | ... and
    nonnegative entries.
    """
    A = [list(row) for row in M]
    m = len(A)
    n = len(A[0]) if m else 0
    U = identity_matrix(m)
    V = identity_matrix(n)

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, k):
        A[dst] = [x + k * y for x, y in zip(A[dst], A[src])]
        U[dst] = [x + k * y for x, y in zip(U[dst], U[src])]

    def add_col(dst, src, k):
        for row in A:
            row[dst] += k * row[src]
        for row in V:
            row[dst] += k * row[src]

    def negate_row(i):
        A[i] = [-x for x in A[i]]
        U[i] = [-x for x in U[i]]

    t = 0
    while t < min(m, n):
        # move a nonzero entry of minimal absolute value to (t, t)
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] != 0 and (best is None or abs(A[i][j]) < best):
                    best = abs(A[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        if i != t:
            swap_rows(i, t)
        if j != t:
            swap_cols(j, t)
        # clear row and column t; restart if a remainder shrinks the pivot
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
        # divisibility: fold any non-multiple into row t and retry
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
    return U, A, V


def diagonal_of(D):
    return [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0))]
