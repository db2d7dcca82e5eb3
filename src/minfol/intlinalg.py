"""Exact linear algebra over Z and Q on plain lists of lists.

Everything here is integer or Fraction arithmetic; no floats.  Rank,
kernel, determinant and adjugate share one elimination kernel:
fraction-free Gauss-Jordan over Z with gcd row multipliers and content
division, after Bareiss (Math. Comp. 1968), as a forward pass
`_echelon` and a back-substitution `_rref` on top of it.  Integer rows
go in unscaled, with no pass over their denominators; rational input
is scaled to integer rows first, and a Fraction is made only for an
output entry that needs one.  The Smith normal form has its own integer
elimination, since it needs a unimodular column transform; it returns
the divisors, not the dense diagonal matrix, and builds no row
transform, which no caller reads.
"""

from fractions import Fraction
from math import gcd, lcm, prod

from .errors import DomainError


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    n, k = len(A), len(B)
    if any(len(row) != k for row in A):
        raise DomainError("the left factor of a product needs rows of "
                          "length %d" % k)
    p = len(B[0]) if B else 0
    out = [[0] * p for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        for t in range(k):
            a = Ai[t]
            if a == 0:
                continue
            out[i] = [x + a * y for x, y in zip(out[i], B[t])]
    return out


def transpose(A):
    return [list(col) for col in zip(*A)]


def mat_eq(A, B):
    return len(A) == len(B) and all(list(r) == list(s) for r, s in zip(A, B))


def _eliminate(row, prow, c):
    """row with its entry in column c cleared by the pivot row prow (a
    gcd multiple of each) and divided by its content.  Returns the new
    row, the multiplier of row and the content divided out."""
    pv, f = prow[c], row[c]
    g = gcd(pv, f)
    a, b = pv // g, f // g
    row = [a * x - b * y for x, y in zip(row, prow)]
    g = gcd(*row)
    if g > 1:
        row = [x // g for x in row]
    return row, a, g or 1


# the entry types of a row that `_echelon` takes unscaled, and the det
# it returns for a singular block, made once
_INT = {int}
_ZERO = Fraction(0)


def _echelon(M):
    """Row echelon form over Q, computed over Z: the forward pass.

    Returns (rows, pivots, det).  Row r < len(pivots) is a primitive
    integer vector with a positive entry at its pivot column pivots[r]
    and zeros to the left of it; the other rows are zero.  A row of
    int entries goes in as it is; a row with Fraction entries is first
    scaled by the lcm of its denominators.  Rows below a pivot are
    cleared with gcd multipliers and divided by their content, so no
    Fraction arises and entries stay small.  det is the determinant of
    the leading square block of M (0 when its columns are not all
    pivots), read off the row operations as a Fraction.
    """
    R = []
    num, den = 1, 1  # det of the leading block of R over that of M
    for row in M:
        if set(map(type, row)) <= _INT:
            row = list(row)
        else:
            scale = lcm(*[x.denominator for x in row])
            if scale == 1:
                row = list(map(int, row))
            else:
                row = [x.numerator * (scale // x.denominator) for x in row]
                num *= scale
        g = gcd(*row)
        if g > 1:
            row = [x // g for x in row]
        R.append(row)
        den *= g or 1
    m = len(R)
    n = len(R[0]) if m else 0
    pivots = []
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        p = next((i for i in range(r, m) if R[i][c]), None)
        if p is None:
            continue
        if p != r:
            R[r], R[p] = R[p], R[r]
            num = -num
        prow = R[r]
        if prow[c] < 0:
            prow = R[r] = [-x for x in prow]
            num = -num
        for i in range(p + 1, m):
            if R[i][c]:
                R[i], a, g = _eliminate(R[i], prow, c)
                num *= a
                den *= g
        pivots.append(c)
    det = _ZERO
    if pivots == list(range(m)):
        # the leading block of R is upper triangular: its determinant
        # is the product of the pivots
        det = Fraction(prod(row[i] for i, row in enumerate(R)) * den, num)
    return R, pivots, det


def _rref(M):
    """Reduced row echelon form over Q, computed over Z.

    Returns (rows, pivots, det) as `_echelon` does, with every row
    cleared above its pivot as well: row r < len(pivots) is the unique
    reduced echelon row scaled to a primitive integer vector with a
    positive pivot entry.  This back-substitution is what kernel and
    adjugate need; rank and det stop after the forward pass.
    """
    R, pivots, det = _echelon(M)
    for r in range(len(pivots) - 1, 0, -1):
        c, prow = pivots[r], R[r]
        for i in range(r):
            if R[i][c]:
                R[i] = _eliminate(R[i], prow, c)[0]
    return R, pivots, det


def rank_rational(M):
    if not M or not M[0]:
        return 0
    return len(_echelon(M)[1])


def kernel_rational(M):
    """Basis of the rational kernel of M, as primitive integer vectors
    whose first nonzero entry is positive.  There is one vector per
    non-pivot column c of the reduced echelon form, in the order of c;
    its last nonzero entry is at c, and it is 0 at the other non-pivot
    columns."""
    if not M:
        return []
    n = len(M[0])
    R, pivots, _ = _rref(M)
    scale = lcm(*[row[pc] for row, pc in zip(R, pivots)])
    basis = []
    for fc in sorted(set(range(n)) - set(pivots)):
        v = [0] * n
        v[fc] = scale
        for row, pc in zip(R, pivots):
            v[pc] = -row[fc] * (scale // row[pc])
        g = gcd(*v)
        if next(x for x in v if x) < 0:
            g = -g
        basis.append([x // g for x in v])
    return basis


def det_rational(M):
    return _echelon(M)[2]


def _adjugate(M):
    """(adj(M), det(M)) of a nonsingular integer matrix, both integral,
    so that M^-1 = adj(M) / det(M); singular M raises ValueError.

    Row i of the reduced form of [M | I] is a positive multiple of row
    i of [I | M^-1].
    """
    n = len(M)
    R, _, det = _rref([list(row) + [int(i == j) for j in range(n)]
                       for i, row in enumerate(M)])
    if det == 0:
        raise ValueError("matrix is singular")
    det = int(det)
    return [[x * det // row[i] for x in row[n:]]
            for i, row in enumerate(R)], det


def _min_pivot(A, t):
    """(i, j) of the first nonzero entry of least absolute value in the
    block A[t:][t:], in row-major order; None if the block is zero.  No
    entry beats a unit, so the scan stops at the first one."""
    pivot, best = None, 0
    for i in range(t, len(A)):
        row = A[i]
        for j in range(t, len(row)):
            x = row[j]
            if x and (not best or abs(x) < best):
                pivot, best = (i, j), abs(x)
                if best == 1:
                    return pivot
    return pivot


def smith_normal_form(M):
    """Smith normal form of an integer matrix M, with its column
    transform: returns (divisors, V, Vinv).

    divisors are the min(m, n) diagonal entries d1 | d2 | ... of the
    Smith form D = U M V, all nonnegative; V is unimodular and Vinv is
    its inverse.  Each column operation on V is matched by its inverse
    row operation on Vinv, so Vinv is integral by construction.  No
    caller reads the row transform U, so the row operations act on M
    alone and U is not built.
    """
    A = [list(row) for row in M]
    m = len(A)
    n = len(A[0]) if m else 0
    V = identity_matrix(n)
    Vinv = identity_matrix(n)

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def add_col(dst, src, k):
        for row in A:
            row[dst] += k * row[src]
        for row in V:
            row[dst] += k * row[src]
        Vinv[src] = [x - k * y for x, y in zip(Vinv[src], Vinv[dst])]

    t = 0
    while t < min(m, n):
        # move a nonzero entry of minimal absolute value to (t, t)
        pivot = _min_pivot(A, t)
        if pivot is None:
            break
        i, j = pivot
        if i != t:
            A[i], A[t] = A[t], A[i]
        if j != t:
            swap_cols(j, t)
        # clear row and column t; restart if a remainder shrinks the pivot
        p, prow = A[t][t], A[t]
        dirty = False
        for i in range(t + 1, m):
            if A[i][t] != 0:
                q = A[i][t] // p
                A[i] = [x - q * y for x, y in zip(A[i], prow)]
                if A[i][t] != 0:
                    dirty = True
        for j in range(t + 1, n):
            if prow[j] != 0:
                add_col(j, t, -(prow[j] // p))
                if prow[j] != 0:
                    dirty = True
        if dirty:
            continue
        # divisibility: fold any non-multiple into row t and retry; a
        # unit pivot divides everything
        if abs(p) != 1:
            offender = next((i for i in range(t + 1, m)
                             if any(x % p for x in A[i][t + 1:])), None)
            if offender is not None:
                A[t] = [x + y for x, y in zip(A[t], A[offender])]
                continue
        t += 1
    # a finished row t is zero off its pivot, so the divisors are the
    # pivots up to sign
    return [abs(A[t][t]) for t in range(min(m, n))], V, Vinv
