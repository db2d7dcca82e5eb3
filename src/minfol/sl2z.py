"""Integer 2x2 matrices of determinant one, exactly.

The trace sorts these into three dynamical classes: finite order
(|tr| < 2, together with +-identity), a shear up to conjugacy
(|tr| = 2), and hyperbolic toral automorphisms (|tr| > 2).  The
hyperbolic case carries a stretch factor lambda > 1 with
lambda + 1/lambda = |tr| and a pair of irrational eigendirections;
both are kept as exact quadratic irrationals, never floats.

Conventions: matrices act on column vectors; products read left to
right as usual matrix products; S = (0 -1; 1 0) and T = (1 1; 0 1)
generate the group together with -I.
"""

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from .errors import DomainError, InternalError
from .intlinalg import smith_normal_form


@dataclass(frozen=True)
class IntMatrix2:
    a: int
    b: int
    c: int
    d: int

    @staticmethod
    def identity():
        return IntMatrix2(1, 0, 0, 1)

    @staticmethod
    def from_string(text):
        """Parse "a b c d" (row major; commas allowed)."""
        parts = [s for s in text.replace(",", " ").split() if s]
        if len(parts) != 4:
            raise DomainError("matrix needs four integers, got %r" % text)
        try:
            a, b, c, d = (int(s) for s in parts)
        except ValueError:
            raise DomainError("matrix entries must be integers: %r" % text)
        return IntMatrix2(a, b, c, d)

    def det(self):
        return self.a * self.d - self.b * self.c

    def trace(self):
        return self.a + self.d

    def __mul__(self, other):
        return IntMatrix2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self):
        return IntMatrix2(-self.a, -self.b, -self.c, -self.d)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = IntMatrix2.identity()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self):
        if self.det() != 1:
            raise DomainError("inverse needs determinant 1")
        return IntMatrix2(self.d, -self.b, -self.c, self.a)

    def rows(self):
        return [[self.a, self.b], [self.c, self.d]]

    def apply(self, v):
        """Image of a column vector (pair)."""
        x, y = v
        return (self.a * x + self.b * y, self.c * x + self.d * y)

    def __str__(self):
        return "(%d %d; %d %d)" % (self.a, self.b, self.c, self.d)


S_MAT = IntMatrix2(0, -1, 1, 0)
T_MAT = IntMatrix2(1, 1, 0, 1)


# _split_square tries divisors up to this one; a radicand that needs a
# larger one is refused, before that divisor is tried
MAX_TRIAL_DIVISOR = 10 ** 5


# every QuadraticIrrational built from another reduces the same root
# again, so the few roots of one classification are each split once
@lru_cache(maxsize=64)
def _split_square(n):
    """n = s*s*r with r squarefree; returns (s, r).  Trial division stops
    at d**3 > n, leaving 1, p, p*q or p*p; isqrt tells p*p apart.  A
    divisor past MAX_TRIAL_DIVISOR is refused before it is tried."""
    s, r, d, bits = 1, 1, 2, n.bit_length()
    while d * d * d <= n:
        if d > MAX_TRIAL_DIVISOR:
            raise DomainError("the square-free part of a %d-bit radicand "
                              "needs trial division past the %d that "
                              "QuadraticIrrational tries"
                              % (bits, MAX_TRIAL_DIVISOR))
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        s *= d ** (e // 2)
        if e % 2:
            r *= d
        d += 1
    p = isqrt(n)
    return (s * p, r) if p * p == n else (s, r * n)


class QuadraticIrrational:
    """Exact number (p + q*sqrt(root))/den with integers p, q, den > 0.

    root is kept squarefree; rationals are the root = 0, q = 0 case.
    Supports enough arithmetic for stretch factors and eigendirection
    slopes: +, -, *, /, reciprocal, exact comparison, conjugation.
    """

    __slots__ = ("p", "q", "root", "den")

    def __init__(self, p, q=0, root=0, den=1):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if root < 0:
            raise DomainError("negative discriminant")
        if q == 0 or root == 0:
            q, root = 0, 0
        else:
            s, r = _split_square(root)
            if r == 1:
                p, q, root = p + q * s, 0, 0
            else:
                q, root = q * s, r
        if den < 0:
            p, q, den = -p, -q, -den
        g = gcd(gcd(abs(p), abs(q)), den)
        if g > 1:
            p, q, den = p // g, q // g, den // g
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *args):
        raise AttributeError("immutable")

    @staticmethod
    def _coerce(x):
        if isinstance(x, QuadraticIrrational):
            return x
        f = Fraction(x)
        return QuadraticIrrational(f.numerator, 0, 0, f.denominator)

    def _pair(self, other):
        other = self._coerce(other)
        if self.root and other.root and self.root != other.root:
            raise DomainError("incompatible radicals %d and %d"
                              % (self.root, other.root))
        return other, self.root or other.root

    def __add__(self, other):
        o, root = self._pair(other)
        return QuadraticIrrational(
            self.p * o.den + o.p * self.den,
            self.q * o.den + o.q * self.den,
            root, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return QuadraticIrrational(-self.p, -self.q, self.root, self.den)

    def __sub__(self, other):
        o, _ = self._pair(other)
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o, root = self._pair(other)
        return QuadraticIrrational(
            self.p * o.p + self.q * o.q * root,
            self.p * o.q + self.q * o.p,
            root, self.den * o.den)

    __rmul__ = __mul__

    def reciprocal(self):
        norm = self.p * self.p - self.q * self.q * self.root
        if norm == 0:
            raise ZeroDivisionError("reciprocal of zero")
        return QuadraticIrrational(
            self.den * self.p, -self.den * self.q, self.root, norm)

    def __truediv__(self, other):
        o, _ = self._pair(other)
        return self * o.reciprocal()

    def __rtruediv__(self, other):
        o, _ = self._pair(other)
        return o * self.reciprocal()

    def conjugate(self):
        return QuadraticIrrational(self.p, -self.q, self.root, self.den)

    def sign(self):
        p, q = self.p, self.q
        if q == 0:
            return (p > 0) - (p < 0)
        if p == 0:
            return (q > 0) - (q < 0)
        if p > 0 and q > 0:
            return 1
        if p < 0 and q < 0:
            return -1
        # mixed signs: compare p^2 against q^2 * root on the positive side
        lhs, rhs = p * p, q * q * self.root
        if p > 0:
            return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
        return -1 if lhs > rhs else (1 if lhs < rhs else 0)

    def is_rational(self):
        return self.q == 0

    def as_fraction(self):
        if not self.is_rational():
            raise DomainError("not rational: %s" % self)
        return Fraction(self.p, self.den)

    def __eq__(self, other):
        try:
            o, root = self._pair(other)
        except (TypeError, ValueError):
            return NotImplemented
        return (self.p * o.den == o.p * self.den
                and self.q * o.den == o.q * self.den)

    def __hash__(self):
        return hash((self.p, self.q, self.root, self.den))

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __float__(self):
        return (self.p + self.q * isqrt(self.root * 10**24) / 10**12) / self.den

    def __str__(self):
        if self.q == 0:
            return str(Fraction(self.p, self.den))
        core = "%d%+d*sqrt(%d)" % (self.p, self.q, self.root)
        if self.p == 0:
            core = "%d*sqrt(%d)" % (self.q, self.root)
        return core if self.den == 1 else "(%s)/%d" % (core, self.den)

    def __repr__(self):
        return ("QuadraticIrrational(%d, %d, %d, %d)"
                % (self.p, self.q, self.root, self.den))

    def to_json(self):
        return {"p": self.p, "q": self.q, "root": self.root,
                "den": self.den, "decimal": float(self), "exact": True}


@dataclass(frozen=True)
class Periodic:
    """Finite order; the order divides 12."""
    order: int

    def to_json(self):
        return {"kind": "periodic", "order": self.order}


@dataclass(frozen=True)
class Parabolic:
    """sign * A is conjugate in the group to the shear (1 n; 0 1)."""
    n: int
    sign: int

    def to_json(self):
        return {"kind": "parabolic", "n": self.n, "sign": self.sign}


@dataclass(frozen=True)
class Anosov:
    """Hyperbolic: stretch > 1, expanding/contracting direction slopes."""
    stretch: QuadraticIrrational
    u_plus: QuadraticIrrational
    u_minus: QuadraticIrrational

    def to_json(self):
        return {"kind": "anosov", "stretch": self.stretch.to_json(),
                "u_plus": self.u_plus.to_json(),
                "u_minus": self.u_minus.to_json()}


def _check_sl2z(A):
    if A.det() != 1:
        raise DomainError("determinant is %d, need 1" % A.det())


def classify(A):
    """Trace trichotomy for a determinant-one integer matrix.

    |tr| < 2 (and +-I) give Periodic with order in {1, 2, 3, 4, 6};
    |tr| = 2 otherwise gives Parabolic with its shear parameter;
    |tr| > 2 gives Anosov with exact stretch factor and eigendirection
    slopes.
    """
    _check_sl2z(A)
    t = A.trace()
    if abs(t) < 2:
        return Periodic({-1: 3, 0: 4, 1: 6}[t])
    if abs(t) == 2:
        if A == IntMatrix2.identity():
            return Periodic(1)
        if A == -IntMatrix2.identity():
            return Periodic(2)
        sign = 1 if t == 2 else -1
        n, _ = parabolic_normal_form(A if sign == 1 else -A)
        return Parabolic(n=n, sign=sign)
    disc = t * t - 4
    stretch = QuadraticIrrational(abs(t), 1, disc, 2)
    eps = 1 if t > 0 else -1
    mu_plus = QuadraticIrrational(t, eps, disc, 2)
    mu_minus = QuadraticIrrational(t, -eps, disc, 2)
    # b = 0 with det 1 forces a = d = +-1, so |tr| = 2; hyperbolic
    # matrices always have b != 0 and finite slopes.
    if A.b == 0:
        raise InternalError("the hyperbolic matrix %s has b = 0" % A)
    u_plus = (mu_plus - A.a) / Fraction(A.b)
    u_minus = (mu_minus - A.a) / Fraction(A.b)
    return Anosov(stretch=stretch, u_plus=u_plus, u_minus=u_minus)


def parabolic_normal_form(A):
    """For trace 2, A != I: returns (n, P) with P in the group and
    P^-1 A P = (1 n; 0 1).

    The fixed direction of A is an integer eigenvector; completing it
    to a unimodular basis conjugates A into the shear."""
    _check_sl2z(A)
    if A.trace() != 2 or A == IntMatrix2.identity():
        raise DomainError("normal form needs trace 2 and A != I")
    # primitive integer vector with (A - I) w = 0
    if A.b != 0 or A.a != 1:
        w = (A.b, 1 - A.a)
    else:
        w = (A.d - 1, -A.c)
    g = gcd(abs(w[0]), abs(w[1]))
    w = (w[0] // g, w[1] // g)
    if w[0] < 0 or (w[0] == 0 and w[1] < 0):
        w = (-w[0], -w[1])
    u = _complete_unimodular(w)
    P = IntMatrix2(w[0], u[0], w[1], u[1])
    N = P.inverse() * A * P
    if (N.a, N.c, N.d) != (1, 0, 1) or N.b == 0:
        raise InternalError("conjugating %s by %s gives %s, not a shear"
                            % (A, P, N))
    return N.b, P


def _complete_unimodular(w):
    """u with w[0]*u[1] - w[1]*u[0] = 1 (w primitive)."""
    x, y = w
    # extended gcd on (x, y)
    old_r, r = x, y
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        qq = old_r // r
        old_r, r = r, old_r - qq * r
        old_s, s = s, old_s - qq * s
        old_t, t = t, old_t - qq * t
    if old_r not in (1, -1):
        raise InternalError("%r is not primitive: gcd %d" % (w, abs(old_r)))
    # old_s * x + old_t * y = old_r
    if old_r == 1:
        return (-old_t, old_s)
    return (old_t, -old_s)


# periodic_points lists at most this many points; |det(A^n - I)| grows
# like lambda^n, so (cat, 11) with 39,601 points passes and (cat, 12)
# with 103,680 is refused
MAX_PERIODIC_POINTS = 100000
# a count that may have more bits than this is refused before A^n is
# built: it is far above MAX_PERIODIC_POINTS, A^n would take long to
# build, and the count could have more digits than a str may hold
MAX_COUNT_BITS = 10000


def periodic_points(A, n):
    """Points of the torus (Q/Z)^2 fixed by A^n, for Anosov A.

    Returns (count, points) with count = |det(A^n - I)| and points a
    sorted list of Fraction pairs in [0, 1).  Solved exactly through
    the Smith normal form of A^n - I: with D = diag(d1, d2) and A^n - I
    = U^-1 D V^-1, the points are V (i/d1, j/d2) mod 1.  They are
    enumerated as integer numerators over the common denominator
    count = d1 d2, and a count above MAX_PERIODIC_POINTS is refused
    before any is listed.  The count is below |tr A|^n + 3, and n times
    the bits of |tr A| above MAX_COUNT_BITS is refused before A^n is
    built.
    """
    _check_sl2z(A)
    if n < 1:
        raise DomainError("period must be at least 1")
    if not isinstance(classify(A), Anosov):
        raise DomainError("periodic point counting needs an Anosov matrix; "
                          "det(A^n - I) vanishes in the other classes")
    # the count is at least lambda^n - 3 with lambda >= (3 + sqrt 5)/2,
    # so past this it is far above MAX_PERIODIC_POINTS
    if n * abs(A.trace()).bit_length() > MAX_COUNT_BITS:
        raise DomainError("A^%d has far more than the %d fixed points "
                          "that periodic_points lists: n times the bits "
                          "of |tr A| is more than %d"
                          % (n, MAX_PERIODIC_POINTS, MAX_COUNT_BITS))
    An = A ** n
    B = [[An.a - 1, An.b], [An.c, An.d - 1]]
    det = B[0][0] * B[1][1] - B[0][1] * B[1][0]
    count = abs(det)
    if count == 0:
        raise InternalError("det(A^%d - I) vanishes for the Anosov matrix %s"
                            % (n, A))
    if count > MAX_PERIODIC_POINTS:
        raise DomainError("A^%d has %d fixed points, more than the %d that "
                          "periodic_points lists" % (n, count,
                                                     MAX_PERIODIC_POINTS))
    (d1, d2), V, _ = smith_normal_form(B)
    if d1 * d2 != count:
        raise InternalError("Smith divisors %d and %d of A^%d - I do not "
                            "multiply to |det| = %d" % (d1, d2, n, count))
    # numerators over count of V (i/d1, j/d2): i/d1 = i d2/count, and
    # j/d2 = j d1/count
    a0, a1 = V[0][0] * d2 % count, V[1][0] * d2 % count
    b0, b1 = V[0][1] * d1 % count, V[1][1] * d1 % count
    points = {((a0 * i + b0 * j) % count, (a1 * i + b1 * j) % count)
              for i in range(d1) for j in range(d2)}
    if len(points) != count:
        raise InternalError("%d distinct points fixed by A^%d, not |det| = %d"
                            % (len(points), n, count))
    # one Fraction per numerator; equal denominators sort as numerators
    frac = [Fraction(v, count) for v in range(count)]
    return count, [(frac[u], frac[v]) for u, v in sorted(points)]


class GenToken(Enum):
    """Word letters over the standard generators."""
    S = "S"
    T = "T"
    T_INV = "T^-1"
    NEG_I = "-I"

    @property
    def matrix(self):
        return _TOKEN_MATRIX[self]

    def __str__(self):
        return self.value


_TOKEN_MATRIX = {
    GenToken.S: S_MAT,
    GenToken.T: T_MAT,
    GenToken.T_INV: T_MAT.inverse(),
    GenToken.NEG_I: -IntMatrix2.identity(),
}


def word_matrix(word):
    """Product of the tokens, read left to right."""
    M = IntMatrix2.identity()
    for tok in word:
        M = M * tok.matrix
    return M


# decompose_st writes at most this many tokens; the word of A has one
# T or T^-1 per unit of each Euclidean quotient, so its length is known
# before it is built
MAX_WORD_TOKENS = 10 ** 5


def decompose_st(A):
    """Write A as a word in S, T, T^-1 and -I, exactly.

    Euclidean reduction on the first column: shear with a T power
    until the corner entry is a remainder, then one S, repeat.  The
    result multiplies back to A on the nose and is deterministic.  The
    word is first found as runs token^k, and one longer than
    MAX_WORD_TOKENS is refused before it is written out.
    """
    _check_sl2z(A)
    # A = +-word * M throughout: undoing T^-q appends T^q, and undoing
    # S appends S = -S^-1, the central -I collected in the sign
    sign = 1
    runs = []
    M = A
    while M.c != 0:
        if M.c > 0:
            q = M.a // M.c
        else:
            q = -(M.a // -M.c)
        if q != 0:
            M = (T_MAT ** (-q)) * M
            runs.append((GenToken.T if q > 0 else GenToken.T_INV, abs(q)))
        M = S_MAT * M
        runs.append((GenToken.S, 1))
        sign = -sign
    # M is now (+-1, b; 0, +-1)
    if M.a == 1:
        shift = M.b
    else:
        sign = -sign
        shift = -M.b
    runs.append((GenToken.T if shift > 0 else GenToken.T_INV, abs(shift)))
    if sign < 0:
        runs.insert(0, (GenToken.NEG_I, 1))
    length = sum(k for _, k in runs)
    if length > MAX_WORD_TOKENS:
        raise DomainError("%d tokens is more than the %d that decompose_st "
                          "writes" % (length, MAX_WORD_TOKENS))
    word = []
    for tok, k in runs:
        word += [tok] * k
    if word_matrix(word) != A:
        raise InternalError("the S/T word of %s multiplies back to %s"
                            % (A, word_matrix(word)))
    return word
