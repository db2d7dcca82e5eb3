"""Simulation of transverse circle and line dynamics.

The circle is R/Z throughout.  Boundary maps of the hyperbolic plane
are det-1 matrices acting on the projective line under the chart
x -> [cos(pi x) : sin(pi x)], so the matrix that rotates the plane by
psi shifts the chart coordinate by psi/pi.  The surgered pseudogroup
is modeled by affine maps of the real line whose linear part is an
integer power of 2; their k-arithmetic is exact, and translation
parts are kept as Fractions so fixed-point equations can be solved in
closed form.

Word sampling is reproducible across platforms: a 64-bit linear
congruential generator with state update

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2^64

picks generator index (state >> 33) mod len(gens) at every step.
orbit_density draws these states _DRAW_LANES at a time by jump ahead:
K updates take a state s to a^K s + c (a^K - 1)/(a - 1) mod 2^64, for
a and c the multiplier and increment above, so one big-int multiply-add
moves a block of states, one per lane of an int, on to the next block.
The protocol, and so every orbit, is unchanged by it.

stabilizer_search builds the ball of group elements within max_len
letters once per (generators, max_len, MAX_SEARCH_MAPS) and keeps the
one ball last built, about 26 MB after a BS(1,2) search at max_len 16;
each point is then one scan of it.  A first search, or one with other
generators, costs what building the ball costs.

Fixed points are accepted within 1e-9; map identities are accepted
within 1e-6 on a 1024-point grid.  Both tolerances are quoted in the
reports they decide.
"""

import functools
import math
import operator
import re
import struct
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .errors import DomainError

FIXED_POINT_TOL = 1e-9
IDENTITY_TOL = 1e-6
GRID = 1024

_LCG_MUL = 6364136223846793005
_LCG_ADD = 1442695040888963407
_LCG_MASK = (1 << 64) - 1
# orbit_density draws this many LCG states per block, each in a 128-bit
# lane of one int that a single multiply-add moves this many steps
# ahead; a power of two, since the first block doubles up to it
_DRAW_LANES = 1024


@dataclass(frozen=True)
class Rotation:
    angle: float

    def __post_init__(self):
        angle = float(self.angle)
        if not math.isfinite(angle):
            raise DomainError("rotation angle must be finite, got %r" % angle)
        object.__setattr__(self, "angle", angle % 1.0)

    def apply(self, x):
        return (x + self.angle) % 1.0


@dataclass(frozen=True)
class Doubling:
    def apply(self, x):
        return (2.0 * x) % 1.0


@dataclass(frozen=True)
class Mobius:
    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.a, self.b, self.c, self.d))):
            raise DomainError("matrix entries must be finite")
        det = self.a * self.d - self.b * self.c
        if not math.isfinite(det):
            raise DomainError("matrix determinant must be finite, got %r "
                              "(the entries overflow)" % det)
        if det <= 0:
            raise DomainError("matrix must have positive determinant")
        s = math.sqrt(det)
        if abs(det - 1.0) > 1e-12:
            for name in "abcd":
                object.__setattr__(self, name, getattr(self, name) / s)

    def apply(self, x):
        return _circle_step(self)(x)

    def inverse(self):
        return Mobius(self.d, -self.b, -self.c, self.a)

    def matmul(self, other):
        return Mobius(self.a * other.a + self.b * other.c,
                      self.a * other.b + self.b * other.d,
                      self.c * other.a + self.d * other.c,
                      self.c * other.b + self.d * other.d)


def _times_power_of_two(q, k):
    """2^k q as a Fraction, for an int or Fraction q, by shifting."""
    if k >= 0:
        return Fraction(q.numerator << k, q.denominator)
    return Fraction(q.numerator, q.denominator << -k)


@dataclass(frozen=True)
class AffineLine:
    """x -> 2^k x + b on the real line; k exact, b an exact Fraction."""
    k: int
    b: Fraction

    def __post_init__(self):
        if not isinstance(self.k, int):
            raise DomainError("exponent must be an integer")
        if not isinstance(self.b, Fraction):
            object.__setattr__(self, "b", Fraction(self.b))

    def scale(self):
        return Fraction(2) ** self.k

    def apply(self, x):
        if isinstance(x, (int, Fraction)):
            return _times_power_of_two(x, self.k) + self.b
        return float(self.scale()) * x + float(self.b)

    def _circle_parts(self):
        """(2^k, b) as floats, the map's action on R/Z.

        Only integral linear parts descend to R/Z.  Both parts must be
        finite and 2^k + |b| too, so that 2^k x + b stays finite for
        every x in [0, 1).
        """
        if self.k < 0:
            raise DomainError(
                "affine maps with linear part below 1 do not act on R/Z")
        try:
            # ldexp raises past 2^1023 without building 2^k
            scale, shift = math.ldexp(1.0, self.k), float(self.b)
        except OverflowError:
            scale = shift = math.inf
        if not math.isfinite(scale + abs(shift)):
            raise DomainError("affine map with k=%d overflows floating point "
                              "on R/Z: 2^k + |b| must stay below 2^1024"
                              % self.k)
        return scale, shift

    def circle_apply(self, x):
        return _circle_step(self)(x)

    def compose(self, other):
        # 2^k b' + b over the denominator d' d (d' shifted when k < 0),
        # as one Fraction rather than a product and a sum
        k, b = self.k, self.b
        n, d = other.b.numerator, other.b.denominator
        if k >= 0:
            n <<= k
        else:
            d <<= -k
        return AffineLine(k + other.k,
                          Fraction(n * b.denominator + b.numerator * d,
                                   d * b.denominator))

    def inverse(self):
        return AffineLine(-self.k, _times_power_of_two(-self.b, -self.k))

    def is_identity(self):
        return self.k == 0 and self.b == 0

    def fixed_point(self):
        """Exact fixed point, or None for nontrivial translations."""
        if self.k == 0:
            return None
        return self.b / (1 - self.scale())


# Fraction builds 10^e for a decimal exponent e, so one beyond this is
# refused first; it is Python's limit on the digits of an int in a str
MAX_DECIMAL_EXPONENT = 4300
# int() refuses a str of more digits than this in Python's own words, so
# a longer run of digits is refused first, underscores counted with them
MAX_LITERAL_DIGITS = 4300


def _check_digit_runs(text, reader):
    """Refuse text with a run of digits and underscores longer than
    MAX_LITERAL_DIGITS, before int() or Fraction reads it."""
    if len(text) <= MAX_LITERAL_DIGITS:
        return
    run = max(map(len, re.findall(r"[\d_]+", text)), default=0)
    if run > MAX_LITERAL_DIGITS:
        raise DomainError("a run of %d digits or underscores is more than "
                          "the %d that %s reads"
                          % (run, MAX_LITERAL_DIGITS, reader))


def parse_rational(text):
    """An exact rational from "3/7", "-1", "0.5" or "2.5e-3".

    A zero denominator, a run of more than MAX_LITERAL_DIGITS digits
    anywhere in the text, or a decimal exponent beyond
    MAX_DECIMAL_EXPONENT either way, is a DomainError; other malformed
    text raises the ValueError that Fraction gives.
    """
    _check_digit_runs(text, "parse_rational")
    _, e, exponent = text.lower().partition("e")
    if e:
        try:
            exponent = int(exponent)
        except ValueError:
            exponent = 0     # not an exponent; Fraction refuses the text
        if abs(exponent) > MAX_DECIMAL_EXPONENT:
            raise DomainError("decimal exponent %d is beyond the +-%d that "
                              "parse_rational reads"
                              % (exponent, MAX_DECIMAL_EXPONENT))
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise DomainError("zero denominator in %r" % text)


def parse_generator(text):
    """One generator from its compact spec string.

    Forms: "rot:0.25", "dbl", "aff:k=1,b=0.5", "mob:a,b,c,d".  Affine
    translation parts parse as exact fractions ("1/3" or "0.5" both
    work); the rest are floats, and a NaN or infinite one is a
    DomainError.
    """
    text = text.strip()
    if text == "dbl":
        return Doubling()
    if text.startswith("rot:"):
        return Rotation(float(text[4:]))
    if text.startswith("mob:"):
        parts = text[4:].split(",")
        if len(parts) != 4:
            raise DomainError("mob: needs four entries: %r" % text)
        return Mobius(*(float(p) for p in parts))
    if text.startswith("aff:"):
        k = None
        b = None
        for piece in text[4:].split(","):
            key, _, val = piece.partition("=")
            if key.strip() == "k":
                _check_digit_runs(val, "parse_generator")
                k = int(val)
            elif key.strip() == "b":
                b = parse_rational(val.strip())
            else:
                raise DomainError("unknown affine field %r" % key)
        if k is None or b is None:
            raise DomainError("aff: needs both k= and b=: %r" % text)
        return AffineLine(k, b)
    raise DomainError("unrecognized generator spec %r" % text)


def _circle_step(gen):
    """x -> gen(x) on R/Z as one plain function, built once per orbit
    or lift rather than dispatched on the generator type at every step.

    Affine and Mobius steps hold their coefficients as locals, and
    AffineLine.circle_apply and Mobius.apply are one call of them.
    Other generators step through their own apply.
    """
    if isinstance(gen, AffineLine):
        scale, shift = gen._circle_parts()
        return lambda x: (scale * x + shift) % 1.0
    if isinstance(gen, Mobius):
        a, b, c, d = gen.a, gen.b, gen.c, gen.d
        if b == 0.0 and c == 0.0 and a == d:
            return lambda x: x % 1.0  # scalar matrices act as the identity
        cos, sin, atan2, pi = math.cos, math.sin, math.atan2, math.pi

        def step(x):
            # the chart point [cos(pi x) : sin(pi x)], mapped and read back
            u0 = cos(pi * x)
            u1 = sin(pi * x)
            return (atan2(c * u0 + d * u1, a * u0 + b * u1) / pi) % 1.0
        return step
    return gen.apply


def _jump(steps):
    """(A, C) with A s + C mod 2^64 the LCG state `steps` updates after s.

    A = a^steps and C = c (a^steps - 1) / (a - 1), both mod 2^64.  The
    power is taken mod (a - 1) 2^64, so it is still 1 mod a - 1 and the
    division by a - 1 is exact.
    """
    p = pow(_LCG_MUL, steps, (_LCG_MUL - 1) << 64)
    return p & _LCG_MASK, _LCG_ADD * ((p - 1) // (_LCG_MUL - 1)) & _LCG_MASK


def _draws(seed, n):
    """state >> 33 for the n LCG states after seed, one block at a time.

    A block of consecutive states sits in one int x, a state per 128-bit
    lane, the earliest in the lowest lane.  (A x + C ones) & lanes then
    moves every lane the block's width ahead at once (ones has a 1 in
    each lane, lanes 2^64 - 1): A s + C < 2^128 for s, A, C < 2^64, so
    no lane carries into the next.  x >> 33 leaves s >> 33 in the low
    64 bits of each lane, which a little-endian decode reads, skipping
    the high 64.  The first block starts with one lane and doubles to
    n or _DRAW_LANES lanes, so a short draw costs a few int operations
    and a long one holds O(_DRAW_LANES) ints at a time.
    """
    if n < 1:
        return
    x = (_LCG_MUL * (seed & _LCG_MASK) + _LCG_ADD) & _LCG_MASK
    ones = width = 1
    while width < n and width < _DRAW_LANES:
        a, c = _jump(width)
        x |= ((a * x + c * ones) & ones * _LCG_MASK) << 128 * width
        ones |= ones << 128 * width
        width *= 2
    decode = struct.Struct("<" + "Q8x" * width).unpack
    size = 16 * width
    a, c = _jump(width)
    add, lanes = c * ones, ones * _LCG_MASK
    while n > width:
        yield decode((x >> 33).to_bytes(size, "little"))
        n -= width
        x = (a * x + add) & lanes
    yield decode((x >> 33).to_bytes(size, "little"))[:n]


@dataclass(frozen=True)
class OrbitStats:
    n_steps: int
    max_gap: float
    epsilon: float
    epsilon_dense: bool

    def to_json(self):
        return {
            "n_steps": self.n_steps,
            "max_gap": self.max_gap,
            "epsilon": self.epsilon,
            "epsilon_dense": self.epsilon_dense,
        }


# orbit_density runs at most this many steps, keeping every point at
# about 32 bytes; rotation_number applies at most this many letters
MAX_ORBIT_STEPS = 10 ** 7


def orbit_density(gens, start, n, epsilon, seed):
    """Gap statistics of a random-word orbit segment on the circle.

    Applies n generators chosen by the seeded congruential protocol to
    the start point and reports the largest circular gap left by the
    visited points.  Deterministic for a fixed (gens, start, n, seed).
    The generator choices are the protocol's, drawn _DRAW_LANES at a
    time by jump ahead (_draws), so the draws held at any time are one
    block, not n.  n above MAX_ORBIT_STEPS is refused before any step
    is taken.
    """
    gens = list(gens)
    if not gens:
        raise DomainError("no generators given")
    if n < 1:
        raise DomainError("need at least one step")
    if n > MAX_ORBIT_STEPS:
        raise DomainError("%d steps is more than the %d that orbit_density "
                          "runs" % (n, MAX_ORBIT_STEPS))
    if not 0 < epsilon < 1:
        raise DomainError("epsilon must lie strictly between 0 and 1")
    if not math.isfinite(start):
        raise DomainError("start point must be finite, got %r" % start)
    steps = [_circle_step(g) for g in gens]
    m = len(steps)
    x = float(start) % 1.0
    points = [x]
    append = points.append
    for block in _draws(seed, n):
        for v in block:
            x = steps[v % m](x)
            append(x)
    points.sort()
    # the wrap-around gap, then the largest gap between neighbours
    max_gap = max(1.0 - points[-1] + points[0],
                  max(map(operator.sub, islice(points, 1, None), points)))
    return OrbitStats(n_steps=n, max_gap=max_gap, epsilon=epsilon,
                      epsilon_dense=max_gap < epsilon)


@dataclass(frozen=True)
class PseudogroupWord:
    """Reduced word in the generators, rightmost letter applied first.

    letters are (generator index, +1 or -1) pairs; composite is the
    exact affine composition of the word.
    """
    letters: tuple
    composite: AffineLine

    def __str__(self):
        if not self.letters:
            return "id"
        bits = []
        for idx, power in self.letters:
            bits.append("g%d" % idx if power == 1 else "g%d^-1" % idx)
        return "*".join(bits)

    def to_json(self):
        return {
            "word": str(self),
            "k": self.composite.k,
            "b": str(self.composite.b),
        }


def _word_power(word, m):
    """m-th power of the word composite, m any integer."""
    base = word.composite if m >= 0 else word.composite.inverse()
    out = AffineLine(0, 0)
    for _ in range(abs(m)):
        out = base.compose(out)
    return out


@dataclass(frozen=True)
class StabilizerReport:
    witnesses: tuple
    structure: str          # "trivial" or "cyclic"
    primitive: object       # PseudogroupWord or None
    counterexample: object  # PseudogroupWord or None
    residual: float

    def to_json(self):
        out = {
            "structure": self.structure,
            "witnesses": [w.to_json() for w in self.witnesses],
            "tolerance": FIXED_POINT_TOL,
            "residual": self.residual,
        }
        if self.primitive is not None:
            out["primitive"] = self.primitive.to_json()
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample.to_json()
        return out


# the ball searched by stabilizer_search grows exponentially in the word
# length (about 1.75-fold per letter for BS(1,2); building it takes about
# 0.01 s at length 11 and 0.2 s at length 16 on a 2-vCPU Xeon), so longer
# words are refused
MAX_WORD_LENGTH = 16
# with more generators the ball grows faster (about 2.7-fold per letter
# for three of them), so the maps held are bounded too, at about 80 MB;
# BS(1,2) holds 123,005 maps at length 16
MAX_SEARCH_MAPS = 250_000
# a map within max_len letters is x -> 2^k x + n/d with |k| at most the
# largest generator |k| times max_len, and each letter shifts n or d by
# its own |k| bits, so that product bounds the size of the search's ints
# (with x -> 2^1000000 x + 1 the search took 25 s at max_len 3); BS(1,2)
# reaches 16 at MAX_WORD_LENGTH
MAX_SEARCH_EXPONENT = 1024


@functools.lru_cache(maxsize=1)
def _ball(gens, max_len, limit):
    """(ball, tripped): the maps within max_len letters of the tuple of
    generators gens, in breadth-first order, and whether the ball holds
    more than limit maps.

    ball is a dict from each map's reduced triple (k, n, d) to the first
    word that reaches it, identity first; stabilizer_search describes
    the order and the words.  The count is checked before each word is
    extended, and the search stops at the first check over the limit,
    so the dict then holds the maps found up to that point.  The one
    ball held is shared by every search with the same generators, word
    length and limit, which must not change it.
    """
    gcd = math.gcd
    # letter i is (i, k, n, d); letters i and i ^ 1 are mutually inverse
    letters = [(i, f.k, f.b.numerator, f.b.denominator)
               for i, f in enumerate(h for g in gens
                                     for h in (g, g.inverse()))]
    # a word is (letter index, rest of the word) from the left, () for
    # the empty word; the frontier holds the keys of the newest level
    ball = {(0, 0, 1): ()}
    frontier = [(0, 0, 1)]
    for _ in range(max_len):
        nxt = []
        for k0, n0, d0 in frontier:
            if len(ball) > limit:
                return ball, True
            word = ball[k0, n0, d0]
            cancel = word[0] ^ 1 if word else -1
            for i, k1, n1, d1 in letters:
                if i == cancel:
                    continue  # immediate cancellation
                # the new letter acts after the present word, so it
                # lands on the left: 2^k1 n0/d0 + n1/d1
                if k1 >= 0:
                    n, d = (n0 << k1) * d1 + n1 * d0, d0 * d1
                else:
                    n, d = n0 * d1 + (n1 * d0 << -k1), (d0 << -k1) * d1
                g = gcd(n, d)
                if g != 1:
                    n //= g
                    d //= g
                k = k0 + k1
                key = (k, n, d)
                if key in ball:
                    continue
                ball[key] = (i, word)
                nxt.append(key)
        frontier = nxt
    return ball, len(ball) > limit


def stabilizer_search(gens, x, max_len):
    """The affine maps within max_len letters that fix x, each named by
    the first word that reaches it, with evidence that the stabilizer
    they generate is trivial or cyclic.

    The search is breadth first over the ball of radius max_len in the
    group the generators generate, not over free words: a word is
    extended only if it was the first to reach its map, in level order
    with the new letter on the left and letters in the order g0, g0^-1,
    g1, g1^-1, ...  This keeps exactly the words that enumerating every
    reduced word would keep, since the first word to reach a map always
    extends a first visitor one letter shorter.  For x -> 2x and
    x -> x + 1, which generate BS(1,2), the ball grows about 1.75-fold
    per letter where the reduced words grow 3-fold.  Witnesses are
    listed in the order they are found.

    Each explored map x -> 2^k x + n/d is held as the reduced integer
    triple (k, n, d), with d > 0 and (k, 0, 1) for n = 0, as Fraction
    keeps n/d; a letter acts on a triple by shifts, products and one
    gcd.  A word is kept as a chain of letter indices, and the
    PseudogroupWord and AffineLine of a map are built only for
    witnesses.

    The ball depends only on the generators, so it is built once per
    (generators, max_len, MAX_SEARCH_MAPS) by _ball, and each x is then
    one scan of it in breadth-first order.  One ball is held between
    calls, about 26 MB after a BS(1,2) search at max_len 16; a search
    with other generators, length or limit replaces it, and costs what
    building the ball costs, as a first search does.

    x is handled exactly (floats convert to their exact binary
    fraction); a word counts as a witness when |w(x) - x| < 1e-9, and
    the residual of the worst accepted witness is reported.  An affine
    map fixing x exactly is determined by its linear part, so two
    witnesses with equal linear part are distinct maps the tolerance
    cannot tell apart, and the search refuses them with DomainError.
    Cyclic evidence means every witness is an exact integer power of a
    shortest primitive witness.  max_len above MAX_WORD_LENGTH, and the
    largest |k| among the generators times max_len above
    MAX_SEARCH_EXPONENT, are refused before the search starts.  A ball
    of more than MAX_SEARCH_MAPS maps is refused once the search holds
    that many and one more; the count is checked before each word is
    extended, so the search never holds more than 2 len(gens) - 1 maps
    past the limit.  The maps found before that refusal are scanned
    first, so two equal-linear-part witnesses among them are refused as
    such, as a search that tests each map as it finds it would.
    """
    gens = tuple(gens)
    for g in gens:
        if not isinstance(g, AffineLine):
            raise DomainError("stabilizer search runs in the affine model")
    if max_len < 1:
        raise DomainError("need positive word length")
    if max_len > MAX_WORD_LENGTH:
        raise DomainError("word length %d is more than the %d that "
                          "stabilizer_search explores"
                          % (max_len, MAX_WORD_LENGTH))
    top = max((abs(g.k) for g in gens), default=0)
    if top * max_len > MAX_SEARCH_EXPONENT:
        raise DomainError("exponent %d times word length %d is %d, more "
                          "than the %d that stabilizer_search explores"
                          % (top, max_len, top * max_len,
                             MAX_SEARCH_EXPONENT))
    x = Fraction(x)
    ball, tripped = _ball(gens, max_len, MAX_SEARCH_MAPS)
    p, q = x.numerator, x.denominator
    # the test |w(x) - x| < tol runs in integers: with w(x) = 2^k x + n/d
    # and tol = tn/td, it reads |e| td < tn f for w(x) - x = e/f
    tol = Fraction(FIXED_POINT_TOL)
    tn, td = tol.numerator, tol.denominator
    names = [(idx, power) for idx in range(len(gens)) for power in (1, -1)]
    witnesses = []
    residual = 0.0
    for (k, n, d), word in islice(ball.items(), 1, None):  # skip identity
        if k >= 0:
            e, f = ((p << k) - p) * d + n * q, q * d
        else:
            e, f = (p - (p << -k)) * d + (n * q << -k), q * d << -k
        if abs(e) * td < tn * f:
            # a translation witness meets its inverse, of equal length
            # and residual, so no primitive has k = 0
            if any(w.composite.k == k for w in witnesses):
                raise DomainError(
                    "two distinct affine maps with equal linear part fix x "
                    "within the tolerance %r, which cannot tell them apart"
                    % FIXED_POINT_TOL)
            spelled = []
            while word:
                spelled.append(names[word[0]])
                word = word[1]
            witnesses.append(PseudogroupWord(
                tuple(spelled), AffineLine(k, Fraction(n, d))))
            # int / int rounds correctly, as float(Fraction) does
            residual = max(residual, abs(e) / f)
    if tripped:
        raise DomainError("words of length %d reach more than the %d maps "
                          "that stabilizer_search explores"
                          % (max_len, MAX_SEARCH_MAPS))

    if not witnesses:
        return StabilizerReport((), "trivial", None, None, 0.0)

    def word_key(w):
        return (abs(w.composite.k), 0 if w.composite.k > 0 else 1,
                len(w.letters))

    primitive = min(witnesses, key=word_key)
    counterexample = None
    k0 = primitive.composite.k
    for w in witnesses:
        k = w.composite.k
        if k % k0 != 0 or _word_power(primitive, k // k0) != w.composite:
            counterexample = w
            break
    structure = "cyclic" if counterexample is None else "not-cyclic"
    return StabilizerReport(tuple(witnesses), structure, primitive,
                            counterexample, residual)


def _lift_factory(gen):
    """Canonical lift of one orientation-preserving circle generator."""
    if isinstance(gen, Doubling):
        raise DomainError("the doubling map has no rotation number")
    if isinstance(gen, AffineLine):
        if gen.k != 0:
            raise DomainError(
                "affine maps with linear part not 1 are not circle "
                "homeomorphisms")
        shift = gen._circle_parts()[1] % 1.0
        return lambda x: x + shift
    if isinstance(gen, Rotation):
        shift = gen.angle
        return lambda x: x + shift
    if isinstance(gen, Mobius):
        apply, floor = _circle_step(gen), math.floor
        f0 = apply(0.0)

        def lift(x):
            n = floor(x)
            t = x - n
            y = apply(t)
            if y < f0:
                y += 1.0
            return y + n
        return lift
    raise DomainError("unsupported generator %r" % (gen,))


@dataclass(frozen=True)
class RotationNumberReport:
    value: float
    error: float
    n: int

    def to_json(self):
        return {"value": self.value, "error": self.error, "n": self.n}


def rotation_number(word, n):
    """Birkhoff estimate of the rotation number of a circle word.

    word is one generator or a sequence applied rightmost first; every
    letter must be an orientation-preserving homeomorphism.  Returns
    the average displacement of a canonical lift over n steps, which
    approximates the rotation number within 1/n.  More than
    MAX_ORBIT_STEPS letter applications are refused before any is made.
    """
    if n < 100:
        raise DomainError("need at least 100 iterations")
    gens = list(word) if isinstance(word, (list, tuple)) else [word]
    if not gens:
        raise DomainError("empty word")
    if n * len(gens) > MAX_ORBIT_STEPS:
        raise DomainError("%d steps is more than the %d that rotation_number "
                          "runs" % (n * len(gens), MAX_ORBIT_STEPS))
    lifts = [_lift_factory(g) for g in reversed(gens)]  # rightmost first
    x = 0.0
    for _ in range(n):
        for lift in lifts:
            x = lift(x)
    return RotationNumberReport(value=(x / n) % 1.0, error=1.0 / n, n=n)


@dataclass(frozen=True)
class CommutatorCheck:
    max_deviation: float
    ok: bool
    tolerance: float = IDENTITY_TOL

    def to_json(self):
        return {
            "max_deviation": self.max_deviation,
            "ok": self.ok,
            "tolerance": self.tolerance,
        }


def circular_distance(x, y):
    d = abs(x - y) % 1.0
    return min(d, 1.0 - d)


def verify_commutator_product(pairs, target):
    """Compare a product of boundary-map commutators with a rotation.

    pairs is a list of (f, h) Mobius generators; the product
    [f1,h1]*...*[fg,hg] is evaluated against the target rotation on a
    1024-point grid and the largest circular deviation is reported.
    ok means deviation below 1e-6.  The empty product is the identity.
    """
    if isinstance(target, Rotation):
        theta = target.angle
    else:
        theta = float(target)
        if not math.isfinite(theta):
            raise DomainError("target angle must be finite, got %r" % theta)
        theta %= 1.0
    prod = Mobius(1.0, 0.0, 0.0, 1.0)
    for f, h in pairs:
        if not isinstance(f, Mobius) or not isinstance(h, Mobius):
            raise DomainError("commutator entries must be boundary maps")
        comm = f.matmul(h).matmul(f.inverse()).matmul(h.inverse())
        prod = prod.matmul(comm)
    worst = 0.0
    prod_step = _circle_step(prod)
    for j in range(GRID):
        xj = j / GRID
        dev = circular_distance(prod_step(xj), (xj + theta) % 1.0)
        if dev > worst:
            worst = dev
    return CommutatorCheck(max_deviation=worst, ok=worst < IDENTITY_TOL)
