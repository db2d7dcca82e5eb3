import os
import pathlib
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import isqrt

import pytest

import minfol
from minfol import sl2z
from minfol.errors import DomainError, InternalError
from minfol.sl2z import (IntMatrix2, QuadraticIrrational, Periodic,
                         Parabolic, Anosov, classify, parabolic_normal_form,
                         periodic_points, GenToken, word_matrix,
                         decompose_st)

CAT = IntMatrix2(2, 1, 1, 1)
S = IntMatrix2(0, -1, 1, 0)
T = IntMatrix2(1, 1, 0, 1)


def shear(n):
    return IntMatrix2(1, n, 0, 1)


def random_word(rng, maxlen=20):
    toks = list(GenToken)
    return [rng.choice(toks) for _ in range(rng.randrange(0, maxlen + 1))]


# ------------------------------------------------------------ trichotomy


def test_classify_periodic_orders():
    assert classify(IntMatrix2.identity()) == Periodic(order=1)
    assert classify(-IntMatrix2.identity()) == Periodic(order=2)
    assert classify(S) == Periodic(order=4)
    # tr(ST) = 1 and tr(-ST) = -1
    assert classify(S * T) == Periodic(order=6)
    assert classify(-(S * T)) == Periodic(order=3)


def test_periodic_order_is_exact():
    rng = random.Random(11)
    seeds = [IntMatrix2.identity(), -IntMatrix2.identity(), S, -S,
             S * T, -(S * T), T * S, -(T * S)]
    for trial in range(200):
        P = word_matrix(random_word(rng, 10))
        A = P * rng.choice(seeds) * P.inverse()
        c = classify(A)
        assert isinstance(c, Periodic)
        assert A ** c.order == IntMatrix2.identity()
        for k in range(1, c.order):
            assert A ** k != IntMatrix2.identity()


def test_classify_parabolic():
    assert classify(T) == Parabolic(n=1, sign=1)
    assert classify(shear(-4)) == Parabolic(n=-4, sign=1)
    assert classify(-shear(3)) == Parabolic(n=3, sign=-1)
    c = classify(IntMatrix2(1, 0, 5, 1))
    assert isinstance(c, Parabolic) and c.sign == 1


def test_classify_anosov_cat_exact():
    c = classify(CAT)
    assert isinstance(c, Anosov)
    lam = c.stretch
    # the stretch satisfies x + 1/x = trace, exactly
    assert lam + lam.reciprocal() == 3
    assert lam > 1
    assert lam == QuadraticIrrational(3, 1, 5, 2)
    assert c.u_plus == QuadraticIrrational(-1, 1, 5, 2)
    assert c.u_minus == QuadraticIrrational(-1, -1, 5, 2)


def test_anosov_slopes_are_eigendirections():
    rng = random.Random(23)
    found = 0
    while found < 60:
        A = word_matrix(random_word(rng))
        if not isinstance(classify(A), Anosov):
            continue
        found += 1
        c = classify(A)
        sign = 1 if A.trace() > 0 else -1
        for u, mu in ((c.u_plus, c.stretch * sign),
                      (c.u_minus, c.stretch.reciprocal() * sign)):
            # A (1, u) = mu (1, u), coordinate by coordinate; for
            # negative traces the eigenvalues are -stretch, -1/stretch
            assert Fraction(A.a) + u * A.b == mu
            assert Fraction(A.c) + u * A.d == mu * u
        assert c.stretch > 1
        assert c.u_plus != c.u_minus


def test_classify_rejects_non_unimodular():
    with pytest.raises(DomainError):
        classify(IntMatrix2(2, 0, 0, 2))
    with pytest.raises(DomainError):
        classify(IntMatrix2(1, 0, 0, -1))


# ------------------------------------------------------- exact quadratics


def test_quadratic_irrational_arithmetic():
    lam = QuadraticIrrational(3, 1, 5, 2)
    assert (lam - Fraction(3, 2)) * (lam - Fraction(3, 2)) == Fraction(5, 4)
    assert lam * lam.conjugate() == 1
    assert (lam * lam.reciprocal()) == 1
    assert float(lam) == pytest.approx((3 + 5 ** 0.5) / 2)
    with pytest.raises(DomainError):
        lam.as_fraction()
    r = QuadraticIrrational(7, 0, 5, 3)
    assert r.is_rational() and r.as_fraction() == Fraction(7, 3)


def test_quadratic_irrational_ordering():
    lam = QuadraticIrrational(3, 1, 5, 2)
    assert 2 < lam < 3
    assert lam <= lam
    assert not (lam < lam)
    assert QuadraticIrrational(0, 1, 2) > Fraction(7, 5)
    assert QuadraticIrrational(0, 1, 2) < Fraction(3, 2)


def test_split_square_matches_brute_force():
    rng = random.Random(11)
    primes = (101, 1009, 10007)
    sweep = list(range(1, 3000)) + \
        [rng.randrange(1, 10 ** 7) for _ in range(200)] + \
        [p * p * q for p in primes for q in (1, 2, 3, 103)] + \
        [p * q for p in primes for q in primes] + [101 ** 3, 1009 ** 3]
    for n in sweep:
        s = max(k for k in range(1, isqrt(n) + 1) if n % (k * k) == 0)
        assert sl2z._split_square(n) == (s, n // (s * s)), n



def test_split_square_refuses_past_its_trial_divisor(monkeypatch):
    monkeypatch.setattr(sl2z, "MAX_TRIAL_DIVISOR", 100)
    sl2z._split_square.cache_clear()
    # 10007 * 10009 is left whole until d^3 > n, near d = 465
    with pytest.raises(DomainError, match="^the square-free part of a "
                       "27-bit radicand needs trial division past the 100 "
                       "that QuadraticIrrational tries$"):
        sl2z._split_square(10007 * 10009)
    # stopping at d = 22 < 100 is within the limit
    assert sl2z._split_square(3 * 101 ** 2) == (101, 3)
    sl2z._split_square.cache_clear()


def test_classify_splits_each_root_once():
    sl2z._split_square.cache_clear()
    classify(CAT)                                    # every root is 5
    info = sl2z._split_square.cache_info()
    assert (info.misses, info.hits) == (1, 6)
    sl2z._split_square.cache_clear()
    c = classify(IntMatrix2(5, 2, 2, 1))             # trace 6, root 32
    assert c.stretch == QuadraticIrrational(3, 2, 2)
    assert sl2z._split_square.cache_info().misses == 2   # 32, then 2


def test_classify_refuses_a_radicand_beyond_the_trial_divisor():
    # (T^1001 S)^8 has entries near 10^24; trial division to the cube
    # root of its t^2 - 4 would not end in any useful time
    A = (T ** 1001 * S) ** 8
    with pytest.raises(DomainError, match="160-bit radicand needs trial "
                       "division past the 100000 that"):
        classify(A)


# ----------------------------------------------------------- decomposing


def test_decompose_roundtrip_fuzz():
    rng = random.Random(4)
    for trial in range(1000):
        word = random_word(rng)
        A = word_matrix(word)
        back = decompose_st(A)
        assert word_matrix(back) == A


def test_decompose_generators_themselves():
    for A in (IntMatrix2.identity(), S, T, T.inverse(),
              -IntMatrix2.identity(), CAT, CAT.inverse()):
        assert word_matrix(decompose_st(A)) == A


def test_decompose_refuses_a_word_longer_than_the_limit(monkeypatch):
    assert sl2z.MAX_WORD_TOKENS >= 1000          # test words reach 123
    calls = [0]
    real = sl2z.word_matrix

    def counted(word):
        calls[0] += 1
        return real(word)

    monkeypatch.setattr(sl2z, "word_matrix", counted)
    monkeypatch.setattr(sl2z, "MAX_WORD_TOKENS", 5)
    assert decompose_st(T ** 5) == [GenToken.T] * 5       # at the limit
    # (7 1; 6 1) = -I T S T^-6 S, 10 tokens
    with pytest.raises(DomainError, match="^10 tokens is more than the 5 "
                       "that decompose_st writes$"):
        decompose_st(IntMatrix2(7, 1, 6, 1))
    # counted from the quotients: refused before any word is multiplied
    calls[0] = 0
    with pytest.raises(DomainError, match="^10000457 tokens is more"):
        decompose_st(IntMatrix2(10000454, 1, 10000453, 1))
    assert calls[0] == 0


# ------------------------------------------------------ parabolic shears


def test_parabolic_normal_form_fixed_examples():
    n, P = parabolic_normal_form(T)
    assert n == 1 and P.inverse() * T * P == shear(1)
    A = IntMatrix2(1, 0, -3, 1)
    n, P = parabolic_normal_form(A)
    assert P.inverse() * A * P == shear(n)


def test_parabolic_normal_form_conjugation_invariant():
    # n is a full conjugacy invariant, so the recovered shear matches
    # the one the matrix was built from
    rng = random.Random(5)
    for trial in range(300):
        n = rng.choice([x for x in range(-6, 7) if x != 0])
        P = word_matrix(random_word(rng, 12))
        A = P * shear(n) * P.inverse()
        m, Q = parabolic_normal_form(A)
        assert m == n
        assert Q.det() == 1
        assert Q.inverse() * A * Q == shear(m)


def test_parabolic_normal_form_rejects_wrong_trace():
    with pytest.raises(DomainError):
        parabolic_normal_form(IntMatrix2.identity())
    with pytest.raises(DomainError):
        parabolic_normal_form(-T)
    with pytest.raises(DomainError):
        parabolic_normal_form(CAT)


# -------------------------------------------------------- periodic points


def brute_force_periodic(A, n):
    """Every point fixed by A^n has denominator dividing
    N = |det(A^n - I)|, so the N x N rational lattice is exhaustive."""
    An = A ** n
    N = abs((An.a - 1) * (An.d - 1) - An.b * An.c)
    pts = set()
    for i in range(N):
        for j in range(N):
            x = (Fraction(i, N), Fraction(j, N))
            y = An.apply(x)
            if (y[0] - x[0]).denominator == 1 and \
               (y[1] - x[1]).denominator == 1:
                pts.add(x)
    return N, sorted(pts)


def test_periodic_points_cat_small_periods():
    count, pts = periodic_points(CAT, 1)
    assert count == 1 and pts == [(Fraction(0), Fraction(0))]
    count, pts = periodic_points(CAT, 2)
    assert count == 5
    assert pts == brute_force_periodic(CAT, 2)[1]


def test_periodic_points_match_brute_force():
    cases = [(CAT, 1), (CAT, 2), (CAT, 3), (CAT, 4),
             (IntMatrix2(3, 2, 1, 1), 1), (IntMatrix2(3, 2, 1, 1), 2),
             (IntMatrix2(2, 3, 1, 2), 1), (IntMatrix2(5, 2, 2, 1), 1)]
    for A, n in cases:
        count, pts = periodic_points(A, n)
        bn, bpts = brute_force_periodic(A, n)
        assert count == bn
        assert pts == bpts


def test_periodic_points_fixed_point_example():
    # (3 2; 1 1) fixes exactly (0, 0) and (0, 1/2)
    count, pts = periodic_points(IntMatrix2(3, 2, 1, 1), 1)
    assert count == 2
    assert pts == [(Fraction(0), Fraction(0)),
                   (Fraction(0), Fraction(1, 2))]


def test_periodic_point_count_is_lefschetz_number():
    for A in (CAT, IntMatrix2(3, 2, 1, 1), IntMatrix2(5, 2, 2, 1)):
        lam = float(classify(A).stretch)
        sign = 1 if A.trace() > 0 else -1
        for n in range(1, 7):
            count, pts = periodic_points(A, n)
            tr_n = (A ** n).trace()
            assert count == abs(2 - tr_n)
            if sign > 0:
                assert count == pytest.approx(lam ** n + lam ** -n - 2)
            assert len(pts) == count


def test_periodic_points_fixed_exactly_up_to_cat_10():
    """Independent of the Smith form: every point is fixed by A^n mod 1
    exactly, no point repeats, and the count is the Lefschetz number
    |tr(A^n) - 2|."""
    cases = [(CAT, 10), (IntMatrix2(3, 2, 1, 1), 6),
             (IntMatrix2(-2, -1, -1, -1), 6)]
    for A, top in cases:
        for n in range(1, top + 1):
            An = A ** n
            count, pts = periodic_points(A, n)
            assert count == abs(An.trace() - 2) == len(pts)
            assert len(set(pts)) == count
            for x, y in pts:
                assert 0 <= x < 1 and 0 <= y < 1
                assert (An.a * x + An.b * y - x).denominator == 1
                assert (An.c * x + An.d * y - y).denominator == 1


def test_periodic_points_refuses_more_than_the_limit(monkeypatch):
    assert sl2z.MAX_PERIODIC_POINTS >= 15125      # (cat, 10)
    with pytest.raises(DomainError, match="fixed points, more than"):
        periodic_points(CAT, 40)                  # about 5 * 10^16 points
    monkeypatch.setattr(sl2z, "MAX_PERIODIC_POINTS", 5)
    assert periodic_points(CAT, 2)[0] == 5        # at the limit: listed
    with pytest.raises(DomainError, match="more than the 5"):
        periodic_points(CAT, 3)                   # 16 points


def test_periodic_points_refuses_a_long_count_before_the_power(
        monkeypatch):
    def no_power(A, n):
        raise AssertionError("A^%d was built" % n)

    with monkeypatch.context() as m:
        m.setattr(IntMatrix2, "__pow__", no_power)
        for n in (5001, 10 ** 7, 10 ** 12):
            with pytest.raises(DomainError) as exc:
                periodic_points(CAT, n)
            assert str(exc.value) == (
                "A^%d has far more than the 100000 fixed points that "
                "periodic_points lists: n times the bits of |tr A| is more "
                "than 10000" % n)
    # cat has a 2-bit trace: n = 10 is within 20 bits, n = 11 is not
    monkeypatch.setattr(sl2z, "MAX_COUNT_BITS", 20)
    assert periodic_points(CAT, 10)[0] == 15125
    with pytest.raises(DomainError, match="more than 20$"):
        periodic_points(CAT, 11)


def test_periodic_points_certificate_checks(monkeypatch):
    # stand-ins for a broken Smith form and classifier make each count
    # check fail, as a defect in the library would
    I = [[1, 0], [0, 1]]
    monkeypatch.setattr(sl2z, "smith_normal_form", lambda B: ([1, 1], I, I))
    with pytest.raises(InternalError, match="do not multiply to .* 5$"):
        periodic_points(CAT, 2)
    monkeypatch.setattr(sl2z, "smith_normal_form",
                        lambda B: ([1, 5], [[0, 0], [0, 0]], I))
    with pytest.raises(InternalError, match="^1 distinct points"):
        periodic_points(CAT, 2)
    monkeypatch.setattr(sl2z, "classify",
                        lambda A: sl2z.Anosov(None, None, None))
    with pytest.raises(InternalError, match="vanishes"):
        periodic_points(T, 1)


def test_periodic_points_rejects_non_anosov():
    with pytest.raises(DomainError):
        periodic_points(T, 1)
    with pytest.raises(DomainError):
        periodic_points(S, 2)
    with pytest.raises(DomainError):
        periodic_points(CAT, 0)


def test_periodic_points_grow_along_divisors():
    # fixed points of A^m are fixed points of A^n whenever m | n
    for n in (2, 3, 4, 6):
        _, big = periodic_points(CAT, n)
        for m in (d for d in range(1, n) if n % d == 0):
            _, small = periodic_points(CAT, m)
            assert set(small) <= set(big)


# ------------------------------------------------------------- matrices


def test_matrix_parse_and_power():
    A = IntMatrix2.from_string("2 1 1 1")
    assert A == CAT
    assert A ** 0 == IntMatrix2.identity()
    assert A ** -2 == (A.inverse()) ** 2
    assert (A * A.inverse()) == IntMatrix2.identity()
    with pytest.raises(DomainError):
        IntMatrix2.from_string("1 2 3")


def test_word_matrix_composes_right_to_left():
    # leftmost token acts last: word (T, S) is the matrix T * S
    assert word_matrix([GenToken.T, GenToken.S]) == T * S
    assert word_matrix([]) == IntMatrix2.identity()


EXPECTED_CLASSIFY_REFUSALS = [
    "InternalError: the hyperbolic matrix (3 0; 0 1) has b = 0",
    "InternalError: conjugating (1 0; 1 1) by (0 -1; 1 0) gives "
    "(0 -1; 1 -1), not a shear",
    "InternalError: (2, 0) is not primitive: gcd 2",
]


def test_classify_checks_survive_python_O():
    # under -O every assert is stripped (the script's own assert False
    # passes), but the b != 0 check of classify, the shear check of
    # parabolic_normal_form and the unit gcd of _complete_unimodular
    # are explicit raises; each stand-in below breaks one of them
    script = textwrap.dedent("""
        assert False
        from minfol import sl2z
        from minfol.errors import InternalError
        from minfol.sl2z import IntMatrix2

        def refusal(f, *args):
            try:
                f(*args)
            except InternalError as e:
                return "InternalError: %s" % e
            return "accepted"

        check = sl2z._check_sl2z
        sl2z._check_sl2z = lambda A: None
        print(refusal(sl2z.classify, IntMatrix2(3, 0, 0, 1)))
        sl2z._check_sl2z = check
        inverse = IntMatrix2.inverse
        IntMatrix2.inverse = lambda self: IntMatrix2.identity()
        print(refusal(sl2z.parabolic_normal_form, IntMatrix2(1, 0, 1, 1)))
        IntMatrix2.inverse = inverse
        sl2z.gcd = lambda a, b: 1
        print(refusal(sl2z.parabolic_normal_form, IntMatrix2(1, 2, 0, 1)))
    """)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("MINFOL_", "PYTHONOPTIMIZE"))}
    env["PYTHONPATH"] = str(pathlib.Path(minfol.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == EXPECTED_CLASSIFY_REFUSALS
