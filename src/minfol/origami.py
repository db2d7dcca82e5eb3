"""Square-tiled surfaces given by a pair of gluing permutations.

Squares are labeled 0..d-1.  sigma_h(i) is the square to the right of
i, sigma_v(i) the square above i.  All products of permutations are
function composition, rightmost factor applied first.

Going once counterclockwise around the corner vertex of a square
traces the commutator c = sigma_h . sigma_v . sigma_h^-1 . sigma_v^-1;
its cycles are the vertices of the glued surface, and a cycle of
length l is a cone point of angle 2*pi*l.  With d squares, 2d edges
and d faces this gives genus = 1 + (d - V)/2 for V cycles.  The walk
is filled in one pass over the squares, c(sigma_v(sigma_h(x))) =
sigma_h(sigma_v(x)), with no inverse built.  Its cycles are stored
in the instance dict on first read and shared by genus, stratum and
homology; a plain dict entry takes no lock, where
functools.cached_property takes one on Python 3.10 and 3.11.

The group generated by S and T acts on origamis, and this module is
the one home of that token geometry: `_walk` runs a word through the
gluings and the edge vectors of the square complex.  It takes each run
T^m or T^-m of the word in one step, `_shear_run`: T fixes sigma_h, so
a run moves sigma_v to sigma_v . sigma_h^-m and each vector by one
windowed sum along the cycles of sigma_h, in O(d) for any m.  S and -I
go token by token, `_turn` moving the gluings and the vectors together.
The formulas are validated by the invariance of genus and stratum and
by the induced action on the homology of the one-square torus, where
the tokens must reproduce their own matrices.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from .errors import DomainError, InternalError
from . import permutations as perms
from .cover import _pillowcase_check
from .sl2z import GenToken, IntMatrix2, Anosov, classify, decompose_st


@dataclass(frozen=True)
class Origami:
    d: int
    sigma_h: tuple
    sigma_v: tuple

    def __post_init__(self):
        d, sh, sv = self.d, self.sigma_h, self.sigma_v
        if type(sh) is not tuple:
            sh = tuple(sh)
            object.__setattr__(self, "sigma_h", sh)
        if type(sv) is not tuple:
            sv = tuple(sv)
            object.__setattr__(self, "sigma_v", sv)
        if d < 1:
            raise DomainError("need at least one square")
        squares = list(range(d))
        for name, p in (("sigma_h", sh), ("sigma_v", sv)):
            if len(p) != d or sorted(p) != squares:
                raise DomainError("%s is not a permutation of %d squares"
                                  % (name, d))
        k = perms.orbit_size([sh, sv], d)
        if k < d:
            raise DomainError("origami is not connected: square 1 reaches "
                              "%d of %d squares" % (k, d))

    def vertex_permutation(self):
        """The corner walk c = sigma_h . sigma_v . sigma_h^-1 . sigma_v^-1,
        filled in one pass: c(sigma_v(sigma_h(x))) = sigma_h(sigma_v(x))."""
        sh, sv = self.sigma_h, self.sigma_v
        c = [0] * self.d
        for x, y in enumerate(sh):
            c[sv[y]] = sh[sv[x]]
        return tuple(c)

    def vertex_cycles(self):
        """Cycles of the corner walk, one per vertex; computed once per
        origami and shared by genus, stratum and homology."""
        # kept in the instance dict, not a dataclass field, so ==, hash
        # and repr do not see it
        cyc = self.__dict__.get("_vertex_cycles")
        if cyc is None:
            cyc = self.__dict__["_vertex_cycles"] = tuple(
                perms.cycles(self.vertex_permutation(), include_fixed=True))
        return cyc

    def genus(self):
        v = len(self.vertex_cycles())
        if (self.d - v) % 2:
            raise InternalError("%d squares and %d vertices give an odd "
                                "Euler characteristic" % (self.d, v))
        return 1 + (self.d - v) // 2

    def stratum(self):
        """Cone angles as multiples of 2*pi, sorted descending."""
        return tuple(sorted((len(c) for c in self.vertex_cycles()),
                            reverse=True))

    def to_json(self):
        return {
            "d": self.d,
            "sigma_h": perms.format_cycles(self.sigma_h),
            "sigma_v": perms.format_cycles(self.sigma_v),
        }

    def __str__(self):
        return "Origami(d=%d, h=%s, v=%s)" % (
            self.d, perms.format_cycles(self.sigma_h),
            perms.format_cycles(self.sigma_v))


TORUS = Origami(1, (0,), (0,))

# Genus-3 staircase of two horizontal 4-cylinders: squares 1-4 in the
# bottom row, 5-8 in the top row, rows glued with a shift of two so
# that every vertex collects two squares (four cone angles 4*pi).
# Genus 3 and stratum (2, 2, 2, 2) are pinned by the tests.
WOLLMILCHSAU = Origami(
    8,
    perms.parse_cycles("(1 2 3 4)(5 6 7 8)"),
    perms.parse_cycles("(1 8 3 6)(2 7 4 5)"),
)

_NAMED = {"torus": TORUS, "wollmilchsau": WOLLMILCHSAU}


def named_origami(name):
    try:
        return _NAMED[name.lower()]
    except KeyError:
        raise DomainError("unknown origami %r (have: %s)"
                          % (name, ", ".join(sorted(_NAMED))))


def _turn(token, sh, sv, xs):
    """(sigma_h, sigma_v, images of the edge vectors xs) after one S or
    -I on the gluings (sh, sv); the shears go through `_shear_run`.

    S rotates a quarter turn: what was below comes to lie to the right,
    h_i -> v_(below) and v_i -> -h_i.  -I rotates half a turn,
    inverting both gluings: h_i -> -h_(below) and v_i -> -v_(left).
    An edge vector holds h_i at index i and v_i at d + i.
    """
    if token == GenToken.S:
        if xs:
            d = len(sh)
            xs = [[-b for b in x[d:]] + [x[j] for j in sv] for x in xs]
        return perms.inverse(sv), sh, xs
    if token == GenToken.NEG_I:
        if xs:
            d = len(sh)
            xs = [[-x[j] for j in sv] + [-x[d + j] for j in sh] for x in xs]
        return perms.inverse(sh), perms.inverse(sv), xs
    raise DomainError("unknown token %r" % (token,))


def _shear_run(token, m, sh, sv, xs):
    """(sigma_v, images of the edge vectors xs) after the run token^m
    of T or T^-1 on the gluings (sh, sv), in one step; equal to m
    single shears.

    T shears each square rightward, so sigma_v becomes
    sigma_v . sigma_h^-1, and T^-1 makes it sigma_v . sigma_h.  T fixes
    bottom edges and sends the left edge of square i to the diagonal,
    homotopic to bottom edge then right edge: h_i -> h_i and v_i -> h_i
    + v_(right of i); T^-1 sends v_i to -h_(left of i) + v_(left of i).
    T fixes sigma_h, so along a cycle c of sigma_h, T^m carries v at
    c_k to c_(k+m), and h at c_k gains the window v(c_k) + v(c_(k-1))
    + ... + v(c_(k-m+1)); T^-m carries v at c_(k+m) to c_k, and h at
    c_k loses v(c_(k+1)) + ... + v(c_(k+m)).  Each window is a
    difference of prefix sums over the cycle written twice, plus
    floor(m / len(c)) laps of the cycle total.
    """
    back = token == GenToken.T    # T^m reads v from m squares back
    # v at square x comes from src[x]: src = sigma_h^-m for T^m and
    # sigma_h^m for T^-m, by squaring along the bits of m
    src = step = perms.inverse(sh) if back else sh
    for bit in bin(m)[3:]:
        src = perms.compose(src, src)
        if bit == "1":
            src = perms.compose(src, step)
    sv = perms.compose(sv, src)
    if not xs:
        return sv, xs
    d = len(sh)
    cycles = perms.cycles(sh, include_fixed=True)
    # the window of square c_k is (lo, hi] in prefix sums over the
    # cycles written twice, one after another; laps are whole turns
    order, lo, hi, laps = [], [0] * d, [0] * d, []
    for c in cycles:
        n, base = len(c), len(order)
        order += c + c
        q, r = divmod(m, n)
        for k, x in enumerate(c):
            hi[x] = base + k + n + 1 if back else base + k + 1 + r
            lo[x] = hi[x] - r
        if q:
            laps.append((c, q, base))
    out = []
    for x in xs:
        h, v = x[:d], x[d:]
        P = list(accumulate([v[y] for y in order], initial=0))
        win = [P[b] - P[a] for a, b in zip(lo, hi)]
        for c, q, base in laps:
            t = q * (P[base + len(c)] - P[base])
            for y in c:
                win[y] += t
        if back:
            h = [a + b for a, b in zip(h, win)]
        else:
            h = [a - b for a, b in zip(h, win)]
        out.append(h + [v[y] for y in src])
    return sv, out


_SHEARS = (GenToken.T, GenToken.T_INV)


def _walk(word, o, xs=()):
    """(o moved by the word, images of the edge vectors xs), rightmost
    token first; each run of T or T^-1 is one `_shear_run`, S and -I
    one `_turn` each.  Vectors are pushed only when some are given, and
    the one Origami is built, and validated, at the end."""
    sh, sv = o.sigma_h, o.sigma_v
    run, m = None, 0              # the pending run: run^m
    for token in reversed(list(word)):
        if token is run:
            m += 1
            continue
        if m:
            sv, xs = _shear_run(run, m, sh, sv, xs)
            run, m = None, 0
        if token in _SHEARS:
            run, m = token, 1
            continue
        sh, sv, xs = _turn(token, sh, sv, xs)
    if m:
        sv, xs = _shear_run(run, m, sh, sv, xs)
    return Origami(o.d, sh, sv), xs


def sl2z_act(token, o):
    """Action of one generator token on an origami: a walk of the
    one-token word; see `_turn` and `_shear_run`."""
    return _walk((token,), o)[0]


def act_word(word, o):
    """Left action of a word: the rightmost token acts first."""
    return _walk(word, o)[0]


def relabel(o, r):
    """Rename square i to r(i)."""
    if not perms.is_perm(r, o.d):
        raise DomainError("relabeling is not a permutation of the squares")
    return Origami(o.d,
                   perms.conjugate(o.sigma_h, r),
                   perms.conjugate(o.sigma_v, r))


def canonical_form(o):
    """Canonical representative of the relabeling class.

    Breadth-first relabelings from every root square; the
    lexicographically least (sigma_h, sigma_v) wins, the first least
    root on ties.  Two origamis are isomorphic iff their canonical forms
    coincide.  Returns (canonical origami, relabeling r) with
    relabel(o, r) canonical.

    Entry i of the relabeled sigma_h is known once the BFS has expanded
    the square labeled i, so a root is abandoned as soon as that prefix
    exceeds the best sigma_h so far.
    """
    d, sh, sv = o.d, o.sigma_h, o.sigma_v
    best_h = best_v = best_r = None
    for root in range(d):
        new = [-1] * d
        new[root] = 0
        order = [root]
        count = 1
        cand_h = []
        tied = best_h is not None    # cand_h equals best_h so far
        for x in order:
            for y in (sh[x], sv[x]):
                if new[y] < 0:
                    new[y] = count
                    count += 1
                    order.append(y)
            h = new[sh[x]]
            if tied:
                b = best_h[len(cand_h)]
                if h > b:
                    break
                tied = h == b
            cand_h.append(h)
        else:
            if count != d:
                raise InternalError("the search from square %d reached %d "
                                    "of %d squares" % (root, count, d))
            cand_v = tuple(new[sv[x]] for x in order)
            if not tied or cand_v < best_v:
                best_h, best_v, best_r = tuple(cand_h), cand_v, tuple(new)
    return Origami(d, best_h, best_v), best_r


@dataclass(frozen=True)
class LiftWitness:
    """Certificate that a matrix word carries an origami back to itself
    after relabeling."""
    matrix: IntMatrix2
    word: tuple
    relabeling: tuple

    def verify(self, o):
        image = act_word(self.word, o)
        return relabel(image, self.relabeling) == o

    def to_json(self):
        return {
            "matrix": self.matrix.rows(),
            "word": [str(t) for t in self.word],
            "relabeling": perms.format_cycles(self.relabeling),
        }


@lru_cache(maxsize=64)
def _anosov_word(A):
    """Generator word of an Anosov matrix, computed once per matrix."""
    if not isinstance(classify(A), Anosov):
        raise DomainError("lifting is defined for Anosov matrices only")
    return tuple(decompose_st(A))


def lift_automorphism(A, o):
    """Combinatorial lift of a hyperbolic torus map to an origami.

    Decomposes A into generator tokens, pushes the origami through the
    word, and looks for a relabeling returning the original gluings.
    Returns a LiftWitness, checked as `LiftWitness.verify` checks it but
    on the image already in hand, or None when the orbit moved (no lift
    exists through this construction).

    A relabeling conjugates both gluings, so an image whose gluings
    differ from those of o in cycle type is rejected before either
    canonical form is computed; the rejection is exact.
    """
    word = _anosov_word(A)
    image = act_word(word, o)
    if (perms.cycle_lengths(image.sigma_h) != perms.cycle_lengths(o.sigma_h)
            or perms.cycle_lengths(image.sigma_v)
            != perms.cycle_lengths(o.sigma_v)):
        return None
    canon_o, r_o = canonical_form(o)
    canon_img, r_img = canonical_form(image)
    if canon_o != canon_img:
        return None
    r = perms.compose(perms.inverse(r_o), r_img)
    if relabel(image, r) != o:
        raise InternalError("lift witness for %s fails to verify" % (o,))
    return LiftWitness(matrix=A, word=word, relabeling=r)


def pillowcase_origami(d, a):
    """Square-tiled model of the degree-d cyclic pillowcase cover, for
    even d with all rotation numbers odd.

    The cover splits over the four-square torus (the orientation double
    cover of the flat sphere) into d/2 sheets; crossing a marked edge
    shifts the sheet by a fixed amount, chosen so that the walk around
    the four marked corners realizes the rotation numbers.  The result
    has 2d squares and the genus predicted by pillowcase_genus.  More
    than permutations.MAX_POINTS squares are refused.
    """
    if 2 * d > perms.MAX_POINTS:
        raise DomainError("%d squares is more than the %d that "
                          "pillowcase_origami builds"
                          % (2 * d, perms.MAX_POINTS))
    a = tuple(a)
    if d % 2 != 0:
        raise DomainError("square-tiled model needs even degree")
    if any(ai % 2 == 0 for ai in a):
        raise DomainError("square-tiled model needs odd rotation numbers")
    _pillowcase_check(d, a)
    m = d // 2
    pos = [(0, 0), (1, 0), (0, 1), (1, 1)]
    pos_index = {xy: i for i, xy in enumerate(pos)}
    a1, a2, a3 = a[0], a[1], a[2]
    hshift = {(1, 0): a1 % m, (0, 1): (a1 + a2 + a3) % m}
    vshift = {(1, 1): (-(a1 + a2)) % m}

    def idx(x, y, s):
        return pos_index[(x, y)] * m + s % m

    sh = [0] * (4 * m)
    sv = [0] * (4 * m)
    for (x, y) in pos:
        for s in range(m):
            sh[idx(x, y, s)] = idx((x + 1) % 2, y, s + hshift.get((x, y), 0))
            sv[idx(x, y, s)] = idx(x, (y + 1) % 2, s + vshift.get((x, y), 0))
    return Origami(2 * d, tuple(sh), tuple(sv))
