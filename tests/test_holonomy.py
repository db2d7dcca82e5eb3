import math
import random
import re
import tracemalloc
from fractions import Fraction

import pytest

from minfol import holonomy
from minfol.errors import DomainError
from minfol.holonomy import (Rotation, Doubling, Mobius, AffineLine,
                             PseudogroupWord, StabilizerReport,
                             parse_generator, parse_rational,
                             orbit_density,
                             stabilizer_search, rotation_number,
                             verify_commutator_product, circular_distance,
                             FIXED_POINT_TOL)

SQRT2M1 = 2 ** 0.5 - 1


# -------------------------------------------------------------- generators


def test_rotation_and_doubling_apply():
    r = Rotation(1.25)
    assert r.angle == 0.25
    assert r.apply(0.9) == pytest.approx(0.15)
    d = Doubling()
    assert d.apply(0.3) == pytest.approx(0.6)
    assert d.apply(0.7) == pytest.approx(0.4)


def test_mobius_identity_is_exact():
    m = Mobius(3.0, 0.0, 0.0, 3.0)     # scalar: identity on the circle
    for x in (0.0, 0.123, 0.5, 0.999):
        assert m.apply(x) == x % 1.0


def test_mobius_determinant_and_inverse():
    with pytest.raises(DomainError):
        Mobius(1.0, 2.0, 2.0, 1.0)     # det < 0
    with pytest.raises(DomainError):
        Mobius(1.0, 1.0, 1.0, 1.0)     # det = 0
    m = Mobius(2.0, 1.0, 1.0, 1.0)
    mi = m.inverse()
    for x in (0.05, 0.3, 0.77):
        assert mi.apply(m.apply(x)) == pytest.approx(x % 1.0, abs=1e-9)


def test_mobius_rotation_matrix_rotates_chart():
    # a plane rotation by psi shifts the boundary chart by psi / pi
    psi = math.pi / 5
    m = Mobius(math.cos(psi), -math.sin(psi), math.sin(psi), math.cos(psi))
    for x in (0.0, 0.2, 0.81):
        assert circular_distance(m.apply(x), (x + 0.2) % 1.0) < 1e-12


def test_affine_line_exact_arithmetic():
    f = AffineLine(1, Fraction(1, 2))
    g = AffineLine(-2, Fraction(3))
    fg = f.compose(g)
    x = Fraction(5, 7)
    assert fg.apply(x) == f.apply(g.apply(x))
    assert f.compose(f.inverse()).is_identity()
    assert f.inverse().compose(f).is_identity()
    assert f.fixed_point() == Fraction(-1, 2)
    assert f.apply(f.fixed_point()) == f.fixed_point()
    assert AffineLine(0, Fraction(2)).fixed_point() is None
    with pytest.raises(DomainError):
        AffineLine(1.5, Fraction(0))


def test_affine_line_on_circle():
    f = AffineLine(1, Fraction(1, 4))
    assert f.circle_apply(0.5) == pytest.approx(0.25)
    with pytest.raises(DomainError):
        AffineLine(-1, Fraction(0)).circle_apply(0.5)


def test_affine_line_float_overflow_is_a_domain_error():
    # 2^1023 is the largest power of two a float holds; 2^k + |b| must
    # stay finite so that 2^k x + b does for every x in [0, 1)
    assert AffineLine(1023, Fraction(0)).circle_apply(0.5) == 0.0
    for f in (AffineLine(2000, Fraction(0)), AffineLine(1024, Fraction(0)),
              AffineLine(1023, Fraction(10) ** 308),
              AffineLine(0, Fraction(10) ** 400)):
        with pytest.raises(DomainError, match="overflows floating point"):
            f.circle_apply(0.5)
        with pytest.raises(DomainError, match="overflows floating point"):
            orbit_density([f], 0.25, 10, 0.1, 0)
    with pytest.raises(DomainError, match="overflows floating point"):
        rotation_number(AffineLine(0, Fraction(10) ** 400), 100)


def test_parse_rational_refuses_a_decimal_exponent_beyond_the_limit(
        monkeypatch):
    assert parse_rational("2.5e-3") == Fraction(1, 400)
    assert parse_rational("1e4300") == 10 ** 4300
    for text, e in (("1e10000000", 10000000), ("1e1_0000000", 10000000),
                    ("1E-4301", -4301), ("-3.5e+4301", 4301)):
        with pytest.raises(DomainError, match="^decimal exponent %d is "
                           "beyond the \\+-4300 that parse_rational reads$"
                           % e):
            parse_rational(text)
    with pytest.raises(ValueError):
        parse_rational("1ex")                       # Fraction's refusal
    monkeypatch.setattr(holonomy, "MAX_DECIMAL_EXPONENT", 3)
    assert parse_rational("1e3") == 1000
    with pytest.raises(DomainError, match="exponent 4 is beyond the \\+-3"):
        parse_rational("1e4")


def test_a_literal_longer_than_the_limit_is_refused_before_int_reads_it(
        monkeypatch):
    digits = "1" * 4301
    assert parse_rational(digits[1:]) == int(digits[1:])
    assert parse_rational("1" * 3000 + "." + "1" * 3000) > 10 ** 2999
    for text, run in ((digits, 4301), ("-3/" + digits, 4301),
                      ("1e" + "0" * 4301, 4301), ("1_" * 2200, 4400),
                      ("\u0663" * 4301, 4301)):
        with pytest.raises(DomainError, match="^a run of %d digits or "
                           "underscores is more than the 4300 that "
                           "parse_rational reads$" % run):
            parse_rational(text)
    with pytest.raises(DomainError, match="^a run of 4301 digits or "
                       "underscores is more than the 4300 that "
                       "parse_generator reads$"):
        parse_generator("aff:k=%s,b=0" % digits)
    with pytest.raises(DomainError, match="a run of 4301 digits .* "
                       "parse_rational reads$"):
        parse_generator("aff:k=1,b=%s" % digits)
    monkeypatch.setattr(holonomy, "MAX_LITERAL_DIGITS", 3)
    assert parse_rational("123/456") == Fraction(41, 152)
    assert parse_generator("aff:k=-12,b=0") == AffineLine(-12, Fraction(0))
    with pytest.raises(DomainError, match="run of 4 digits .* the 3 that"):
        parse_rational("1.2345")
    with pytest.raises(DomainError, match="run of 4 digits .* the 3 that"):
        parse_generator("aff:k=1000,b=0")


def test_circle_parts_refuse_a_huge_exponent_without_building_2_to_the_k():
    # 1 << 10^9 would be a 125 MB int
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="k=1000000000 overflows"):
            AffineLine(10 ** 9, 0).circle_apply(0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert AffineLine(1023, 1)._circle_parts() == (2.0 ** 1023, 1.0)
    with pytest.raises(DomainError, match="k=1024 overflows"):
        AffineLine(1024, 0).circle_apply(0.5)


def test_parse_generator_roundtrips():
    assert parse_generator("dbl") == Doubling()
    assert parse_generator("rot:0.25") == Rotation(0.25)
    f = parse_generator("aff:k=1,b=1/2")
    assert f == AffineLine(1, Fraction(1, 2))
    m = parse_generator("mob:2,1,1,1")
    assert isinstance(m, Mobius)
    for bad in ("spin:1", "mob:1,2,3", "aff:k=1", "aff:q=2,b=0",
                "aff:k=1,b=1/0", "rot:nan", "rot:inf", "rot:-inf",
                "mob:nan,1,1,1", "mob:2,1,1,inf"):
        with pytest.raises(DomainError):
            parse_generator(bad)
    # finite entries whose determinant overflows to inf (or inf - inf)
    for bad in ("mob:1e200,1,1,1e200", "mob:1e200,1e200,-1e200,1e200",
                "mob:1e200,1e200,1e200,1e200"):
        with pytest.raises(DomainError, match="determinant must be finite"):
            parse_generator(bad)


# ------------------------------------------------------------ orbit gaps


def test_irrational_rotation_orbit_fills_in():
    stats = orbit_density([Rotation(SQRT2M1)], 0.0, 2000, 0.05, 0)
    assert stats.epsilon_dense
    assert stats.max_gap < 0.005
    assert stats.n_steps == 2000


def test_rational_rotation_orbit_stalls():
    stats = orbit_density([Rotation(0.25)], 0.0, 3000, 0.1, 0)
    assert stats.max_gap == pytest.approx(0.25)
    assert not stats.epsilon_dense


def test_orbit_density_deterministic_per_seed():
    gens = [Doubling(), Rotation(SQRT2M1)]
    a = orbit_density(gens, 0.123, 4000, 0.01, 42)
    b = orbit_density(gens, 0.123, 4000, 0.01, 42)
    assert a == b


def test_orbit_gap_shrinks_with_more_steps():
    gens = [Doubling(), Rotation(SQRT2M1)]
    gaps = [orbit_density(gens, 0.123, n, 0.5, 7).max_gap
            for n in (200, 2000, 20000)]
    assert gaps[0] >= gaps[1] >= gaps[2]
    assert gaps[2] < 1e-3


def test_orbit_density_validation():
    with pytest.raises(DomainError):
        orbit_density([], 0.0, 100, 0.1, 0)
    with pytest.raises(DomainError):
        orbit_density([Doubling()], 0.0, 0, 0.1, 0)
    with pytest.raises(DomainError):
        orbit_density([Doubling()], 0.0, 100, 0.0, 0)
    with pytest.raises(DomainError):
        orbit_density([Doubling()], 0.0, 100, 1.0, 0)
    for start in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            orbit_density([Doubling()], start, 100, 0.1, 0)


def test_orbit_density_refuses_more_steps_than_the_limit(monkeypatch):
    assert holonomy.MAX_ORBIT_STEPS >= 10 ** 6    # the ROADMAP row
    monkeypatch.setattr(holonomy, "MAX_ORBIT_STEPS", 50)
    assert orbit_density([Rotation(0.25)], 0.0, 50, 0.5, 0).n_steps == 50
    # refused before the generators are even turned into steps
    monkeypatch.setattr(holonomy, "_circle_step", None)
    with pytest.raises(DomainError,
                       match="^51 steps is more than the 50 that "):
        orbit_density([Rotation(0.25)], 0.0, 51, 0.5, 0)


def _lcg_draws(seed, n):
    """state >> 33 for the n states after seed, one update at a time:
    the generator protocol of the module docstring."""
    state, out = seed & (2 ** 64 - 1), []
    for _ in range(n):
        state = (6364136223846793005 * state
                 + 1442695040888963407) % 2 ** 64
        out.append(state >> 33)
    return out


def _oracle_orbit(gens, start, n, epsilon, seed):
    """The orbit gap with one LCG update per step, as orbit_density ran
    before it drew its generator choices in blocks."""
    steps = [holonomy._circle_step(g) for g in gens]
    x = float(start) % 1.0
    points = [x]
    for v in _lcg_draws(seed, n):
        x = steps[v % len(steps)](x)
        points.append(x)
    points.sort()
    max_gap = max([1.0 - points[-1] + points[0]]
                  + [b - a for a, b in zip(points, points[1:])])
    return holonomy.OrbitStats(n_steps=n, max_gap=max_gap, epsilon=epsilon,
                               epsilon_dense=max_gap < epsilon)


def test_block_draws_equal_the_sequential_generator():
    K = holonomy._DRAW_LANES
    assert 512 <= K <= 2048
    seeds = [0, 1, 2 ** 64 - 1, 2 ** 64 + 5, -3,
             random.Random(23).randrange(2 ** 64)]
    for n in (0, 1, 2, 7, K - 1, K, K + 1, 3 * K + 5):
        for seed in seeds:
            blocks = list(holonomy._draws(seed, n))
            assert all(len(b) <= K for b in blocks)
            assert [v for b in blocks for v in b] == _lcg_draws(seed, n)


def test_orbit_density_equals_the_one_step_oracle():
    # every kind of generator the circle step dispatches on, the scalar
    # Mobius map among them, in sets of 1 to 4
    kinds = ["rot:0.41421356", "dbl", "aff:k=0,b=1/3", "aff:k=1,b=-2/7",
             "mob:2,1,1,1", "mob:0.6,-0.8,0.8,0.6", "mob:3,0,0,3"]
    K = holonomy._DRAW_LANES
    rng = random.Random(2023)
    sets = [[kind] for kind in kinds] + [
        rng.sample(kinds, rng.randrange(2, 5)) for _ in range(8)]
    for specs in sets:
        gens = [parse_generator(s) for s in specs]
        for n in (1, 7, K - 1, K, K + 1, 2 * K + 3):
            start, seed = rng.uniform(-3, 3), rng.randrange(2 ** 64)
            assert orbit_density(gens, start, n, 0.05, seed) == \
                _oracle_orbit(gens, start, n, 0.05, seed), (specs, n)


def test_orbit_density_draws_in_memory_bounded_by_a_block():
    # the orbit holds its n + 1 points; the draws add one block, and the
    # sort at most n / 2 pointers (0.8 MB here), where a list of all n
    # draws would add about 7 MB
    n = 200_000

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    orbit = peak(lambda: orbit_density([Doubling(), Rotation(SQRT2M1)],
                                       0.123, n, 0.5, 7))
    floats = peak(lambda: [i / n for i in range(n + 1)])
    assert orbit - floats < 1_000_000


# ------------------------------------------------------------- stabilizer


def test_stabilizer_doubling_translation_case():
    gens = [AffineLine(1, Fraction(0)), AffineLine(0, Fraction(1))]
    rep = stabilizer_search(gens, Fraction(-1), 4)
    assert rep.structure == "cyclic"
    assert rep.primitive is not None
    prim = rep.primitive.composite
    assert (prim.k, prim.b) == (1, Fraction(1))     # x -> 2x + 1
    assert prim.apply(Fraction(-1)) == Fraction(-1)
    assert rep.counterexample is None
    assert len(rep.witnesses) >= 2
    for w in rep.witnesses:
        assert w.composite.apply(Fraction(-1)) == Fraction(-1)


def test_stabilizer_search_deterministic():
    gens = [AffineLine(1, Fraction(0)), AffineLine(0, Fraction(1))]
    a = stabilizer_search(gens, Fraction(-1), 5)
    b = stabilizer_search(gens, Fraction(-1), 5)
    assert a.to_json() == b.to_json()


def test_stabilizer_trivial_for_free_translation():
    rep = stabilizer_search([AffineLine(0, Fraction(1))], Fraction(0), 6)
    assert rep.structure == "trivial"
    assert rep.witnesses == ()
    assert rep.primitive is None
    # residual tracks accepted witnesses only, so it stays at zero
    assert rep.residual == 0.0


def test_stabilizer_cyclic_evidence_depends_on_horizon():
    # scales 8x and 32x both fix 0; with only length-1 words the two
    # witnesses are not powers of one another, longer words close the
    # gap with a 2x composite
    gens = [AffineLine(3, Fraction(0)), AffineLine(5, Fraction(0))]
    short = stabilizer_search(gens, Fraction(0), 1)
    assert short.structure == "not-cyclic"
    assert short.counterexample is not None
    longer = stabilizer_search(gens, Fraction(0), 4)
    assert longer.structure == "cyclic"
    assert longer.primitive.composite.k == 1


def test_stabilizer_witnesses_are_exact():
    # fixed point of x -> 2x + 1/3 is -1/3
    gens = [AffineLine(1, Fraction(1, 3))]
    rep = stabilizer_search(gens, Fraction(-1, 3), 3)
    assert rep.structure == "cyclic"
    ks = sorted(w.composite.k for w in rep.witnesses)
    assert ks == [-3, -2, -1, 1, 2, 3]
    assert rep.residual == 0.0


def _ord2(n):
    """Multiplicative order of 2 modulo the odd part q of n (1 if q = 1)."""
    q = n
    while q % 2 == 0:
        q //= 2
    m = 1
    while pow(2, m, q) != 1 % q:
        m += 1
    return m


def _closed_form_xs():
    """The 245 rationals p / (2^e q) of the closed-form sweep, in order."""
    return sorted({Fraction(p, 2 ** e * q) for q in range(1, 16, 2)
                   for e in range(3) for p in range(-9, 10)})


def test_stabilizer_matches_closed_form_for_bs12():
    # x -> 2^k x + b with b in Z[1/2] fixes x = p / (2^e q), q odd, iff
    # q | 2^k - 1 and b = x (1 - 2^k), so Stab(x) is generated by
    # k = ord_q(2); a search long enough to find a witness finds it
    gens = [AffineLine(1, Fraction(0)), AffineLine(0, Fraction(1))]
    xs = _closed_form_xs()
    found = 0
    for x in xs:
        m = _ord2(x.denominator)
        rep = stabilizer_search(gens, x, 8)
        for w in rep.witnesses:
            k, b = w.composite.k, w.composite.b
            assert k % m == 0
            assert b == x * (1 - Fraction(2) ** k)
        if rep.witnesses:
            found += 1
            assert rep.structure == "cyclic"
            assert abs(rep.primitive.composite.k) == m
    assert (len(xs), found) == (245, 131)


def _count_gcd(monkeypatch):
    """Count calls of math.gcd: the search makes one per map it composes,
    and Fraction a few more for x and the witnesses."""
    calls = [0]
    gcd = math.gcd

    def counted(a, b):
        calls[0] += 1
        return gcd(a, b)

    monkeypatch.setattr(holonomy.math, "gcd", counted)
    return calls


def test_stabilizer_search_explores_distinct_maps_only(monkeypatch):
    # BS(1,2) has 7,667 elements within radius 11, against 354,292
    # reduced words, and the search composes only extensions of the
    # first word to reach each element; each of the 7,666 besides the
    # identity is composed at least once, in a cold search
    holonomy._ball.cache_clear()
    calls = _count_gcd(monkeypatch)
    gens = [AffineLine(1, Fraction(0)), AffineLine(0, Fraction(1))]
    rep = stabilizer_search(gens, Fraction(-1), 11)
    assert 7666 <= calls[0] <= 15000
    assert rep.structure == "cyclic"
    assert rep.primitive.composite == AffineLine(1, Fraction(1))


def test_stabilizer_refuses_longer_words_than_the_limit(monkeypatch):
    assert holonomy.MAX_WORD_LENGTH >= 11         # the ROADMAP row
    gens = [AffineLine(1, Fraction(0)), AffineLine(0, Fraction(1))]
    monkeypatch.setattr(holonomy, "MAX_WORD_LENGTH", 3)
    holonomy._ball.cache_clear()
    calls = _count_gcd(monkeypatch)
    assert stabilizer_search(gens, Fraction(-1), 3).structure == "cyclic"
    assert calls[0] > 0
    # refused before the first word is composed
    calls[0] = 0
    with pytest.raises(DomainError,
                       match="^word length 4 is more than the 3 that "):
        stabilizer_search(gens, Fraction(-1), 4)
    assert calls[0] == 0


def test_stabilizer_refuses_exponents_above_the_limit(monkeypatch):
    # BS(1,2) at the longest word, and k = 5 at length 6 as pinned
    assert holonomy.MAX_SEARCH_EXPONENT >= max(holonomy.MAX_WORD_LENGTH, 30)
    # x -> 2^1000000 x + 1 took 25 s at length 3 before it was refused
    with pytest.raises(DomainError,
                       match="^exponent 1000000 times word length 3 is "
                             "3000000, more than the "):
        stabilizer_search([AffineLine(10 ** 6, Fraction(1)),
                           AffineLine(0, Fraction(1))], Fraction(1, 3), 3)
    monkeypatch.setattr(holonomy, "MAX_SEARCH_EXPONENT", 12)
    gens = [AffineLine(0, Fraction(1)), AffineLine(-4, Fraction(1))]
    assert stabilizer_search(gens, Fraction(-1), 3).structure == "trivial"
    # refused before any letter is built
    monkeypatch.setattr(holonomy.AffineLine, "inverse", None)
    with pytest.raises(DomainError,
                       match="^exponent 4 times word length 4 is 16, more "
                             "than the 12 that stabilizer_search explores$"):
        stabilizer_search(gens, Fraction(-1), 4)


def test_stabilizer_refuses_a_ball_above_the_map_limit(monkeypatch):
    # BS(1,2) holds 1 + 4 + 12 maps within radius 2, and 43 within 3
    gens = [AffineLine(1, Fraction(0)), AffineLine(0, Fraction(1))]
    monkeypatch.setattr(holonomy, "MAX_SEARCH_MAPS", 17)
    assert stabilizer_search(gens, Fraction(-1), 2).structure == "cyclic"
    for max_len in (3, 4):
        with pytest.raises(DomainError,
                           match="^words of length %d reach more than the 17 "
                                 "maps that stabilizer_search explores$"
                                 % max_len):
            stabilizer_search(gens, Fraction(-1), max_len)


def test_cold_and_warm_searches_give_equal_reports():
    gens = [AffineLine(1, Fraction(0)), AffineLine(0, Fraction(1))]
    cold = []
    for x in _closed_form_xs():
        holonomy._ball.cache_clear()
        cold.append(stabilizer_search(gens, x, 8).to_json())
    warm = [stabilizer_search(gens, x, 8).to_json()
            for x in _closed_form_xs()]
    assert holonomy._ball.cache_info().hits >= 245
    assert warm == cold


def test_a_warm_search_composes_no_map(monkeypatch):
    # 1/10007 has no witness within 11 letters, so the search builds no
    # Fraction either; only the first search composes the ball's maps
    gens = [AffineLine(1, Fraction(0)), AffineLine(0, Fraction(1))]
    x = Fraction(1, 10007)
    holonomy._ball.cache_clear()
    calls = _count_gcd(monkeypatch)
    assert stabilizer_search(gens, x, 11).structure == "trivial"
    assert calls[0] >= 7666
    calls[0] = 0
    assert stabilizer_search(gens, x, 11).structure == "trivial"
    assert calls[0] == 0


def test_a_lowered_map_limit_refuses_a_warm_search(monkeypatch):
    # the limit is read at each call, so a ball held from a search at
    # the old limit is not reused at the new one
    gens = [AffineLine(1, Fraction(0)), AffineLine(0, Fraction(1))]
    assert stabilizer_search(gens, Fraction(-1), 3).structure == "cyclic"
    assert stabilizer_search(gens, Fraction(-1), 3).structure == "cyclic"
    monkeypatch.setattr(holonomy, "MAX_SEARCH_MAPS", 17)
    for _ in range(2):
        with pytest.raises(DomainError, match="^words of length 3 reach more "
                                              "than the 17 maps "):
            stabilizer_search(gens, Fraction(-1), 3)
    monkeypatch.undo()
    assert stabilizer_search(gens, Fraction(-1), 3).structure == "cyclic"


def test_a_search_with_other_generators_replaces_the_held_ball():
    bs12 = [AffineLine(1, Fraction(0)), AffineLine(0, Fraction(1))]
    other = [AffineLine(-1, Fraction(1, 3)), AffineLine(0, Fraction(2, 5))]
    stabilizer_search(bs12, Fraction(-1), 6)
    assert holonomy._ball.cache_info().currsize == 1
    stabilizer_search(other, Fraction(-1), 6)
    assert holonomy._ball.cache_info().currsize == 1
    held = holonomy._ball(tuple(other), 6, holonomy.MAX_SEARCH_MAPS)
    misses = holonomy._ball.cache_info().misses
    assert holonomy._ball(tuple(other), 6, holonomy.MAX_SEARCH_MAPS) is held
    # the BS(1,2) ball is gone: searching it again builds it anew
    stabilizer_search(bs12, Fraction(-1), 6)
    assert holonomy._ball.cache_info().misses == misses + 1
    assert holonomy._ball.cache_info().currsize == 1


def _reference_stabilizer_search(gens, x, max_len):
    """The search as it ran on AffineLine and PseudogroupWord objects,
    one composed per explored map; the oracle for the integer triples."""
    gens = list(gens)
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    tol = Fraction(holonomy.FIXED_POINT_TOL)
    tn, td = tol.numerator, tol.denominator
    letters = [((idx, power), g if power == 1 else g.inverse())
               for idx, g in enumerate(gens) for power in (1, -1)]
    seen = {(0, 0, 1)}
    witnesses = []
    residual = 0.0
    frontier = [PseudogroupWord((), AffineLine(0, 0))]
    for _ in range(max_len):
        nxt = []
        for word in frontier:
            first = word.letters[0] if word.letters else None
            for letter, letter_map in letters:
                if first == (letter[0], -letter[1]):
                    continue
                comp = letter_map.compose(word.composite)
                k, n, d = comp.k, comp.b.numerator, comp.b.denominator
                if (k, n, d) in seen:
                    continue
                seen.add((k, n, d))
                new = PseudogroupWord((letter,) + word.letters, comp)
                nxt.append(new)
                if k >= 0:
                    e, f = ((p << k) - p) * d + n * q, q * d
                else:
                    e, f = (p - (p << -k)) * d + (n * q << -k), q * d << -k
                if abs(e) * td < tn * f:
                    if any(w.composite.k == k for w in witnesses):
                        raise DomainError(
                            "two distinct affine maps with equal linear "
                            "part fix x within the tolerance %r, which "
                            "cannot tell them apart"
                            % holonomy.FIXED_POINT_TOL)
                    witnesses.append(new)
                    residual = max(residual, abs(e) / f)
        frontier = nxt
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
        if k % k0 != 0 or \
                holonomy._word_power(primitive, k // k0) != w.composite:
            counterexample = w
            break
    structure = "cyclic" if counterexample is None else "not-cyclic"
    return StabilizerReport(tuple(witnesses), structure, primitive,
                            counterexample, residual)


def _same_search(gens, x, max_len):
    """Both searches give equal reports, or refuse with equal messages."""
    try:
        want = _reference_stabilizer_search(gens, x, max_len)
    except DomainError as exc:
        with pytest.raises(DomainError, match="^%s$" % re.escape(str(exc))):
            stabilizer_search(gens, x, max_len)
        return None
    got = stabilizer_search(gens, x, max_len)
    assert got == want, (gens, x, max_len)
    return got


def test_stabilizer_search_matches_the_composing_oracle():
    bs12 = [AffineLine(1, Fraction(0)), AffineLine(0, Fraction(1))]
    for x in _closed_form_xs():
        _same_search(bs12, x, 8)
    rng = random.Random(29)
    xs = [rng.uniform(-3.0, 3.0) for _ in range(4)] + \
        [Fraction(rng.randrange(-40, 41), rng.choice((3, 5, 7, 12, 40)))
         for _ in range(8)] + [-1, 0, Fraction(-1, 3), Fraction(5, 7)]
    for max_len in range(1, 11):
        for x in xs[max_len - 1::10] + [-1]:
            _same_search(bs12, x, max_len)
    gen_sets = [
        [AffineLine(-1, Fraction(1, 3)), AffineLine(0, Fraction(2, 5))],
        [AffineLine(2, Fraction(-3, 7)), AffineLine(-3, Fraction(1, 6))],
        [AffineLine(1, Fraction(0)), AffineLine(0, Fraction(1, 3)),
         AffineLine(2, Fraction(1, 5))],
        [AffineLine(3, Fraction(0)), AffineLine(5, Fraction(0)),
         AffineLine(-1, Fraction(1))],
    ]
    # 1/7 is the fixed point of x -> 4x - 3/7
    reports = [_same_search(gens, x, max_len) for gens in gen_sets
               for x in (Fraction(-1), Fraction(0), Fraction(-1, 3),
                         Fraction(1, 5), Fraction(1, 7), 0.375)
               for max_len in (1, 3, 5)]
    assert {r.structure for r in reports} == {"trivial", "cyclic",
                                              "not-cyclic"}


def test_stabilizer_refusals_match_the_composing_oracle(monkeypatch):
    near = AffineLine(0, Fraction(1, 10 ** 12))
    for gens, max_len in (([near], 1), ([near], 2),
                          ([AffineLine(1, Fraction(0)), near], 2)):
        assert _same_search(gens, Fraction(0), max_len) is None
    # a tolerance so wide that x -> x + 1 and x -> x - 1 both fix x
    monkeypatch.setattr(holonomy, "FIXED_POINT_TOL", 2.0)
    bs12 = [AffineLine(1, Fraction(0)), AffineLine(0, Fraction(1))]
    assert _same_search(bs12, Fraction(-1), 2) is None


def test_stabilizer_rejects_non_affine():
    with pytest.raises(DomainError):
        stabilizer_search([Rotation(0.5)], Fraction(0), 3)
    with pytest.raises(DomainError):
        stabilizer_search([Doubling()], Fraction(0), 3)


def test_stabilizer_affine_word_fuzz():
    # random reduced words evaluated two ways: composed exactly, and
    # applied letter by letter
    rng = random.Random(61)
    gens = [AffineLine(1, Fraction(0)), AffineLine(0, Fraction(1)),
            AffineLine(-1, Fraction(1, 3))]
    for trial in range(2000):
        x = Fraction(rng.randrange(-20, 21), rng.randrange(1, 9))
        word = [rng.randrange(3) for _ in range(rng.randrange(1, 7))]
        comp = AffineLine(0, Fraction(0))
        y = x
        for idx in reversed(word):
            y = gens[idx].apply(y)
        for idx in word:
            comp = comp.compose(gens[idx]) if comp.is_identity() is False \
                else gens[idx]
        total = gens[word[0]]
        for idx in word[1:]:
            total = total.compose(gens[idx])
        assert total.apply(x) == y


# -------------------------------------------------------- rotation number


def test_rotation_number_of_rigid_rotation():
    rep = rotation_number(Rotation(SQRT2M1), 1000)
    assert rep.error == pytest.approx(1e-3)
    assert circular_distance(rep.value, SQRT2M1) <= rep.error


def test_rotation_number_of_parabolic_boundary_map():
    rep = rotation_number(Mobius(1.0, 1.0, 0.0, 1.0), 2000)
    assert circular_distance(rep.value, 0.0) <= rep.error


def test_rotation_number_of_elliptic_matrix():
    psi = math.pi / 5
    m = Mobius(math.cos(psi), -math.sin(psi), math.sin(psi), math.cos(psi))
    rep = rotation_number(m, 5000)
    assert circular_distance(rep.value, 0.2) <= rep.error + 1e-9


def test_rotation_number_conjugation_invariant():
    psi = math.pi * 0.3
    m = Mobius(math.cos(psi), -math.sin(psi), math.sin(psi), math.cos(psi))
    p = Mobius(2.0, 1.0, 1.0, 1.0)
    conj = p.matmul(m).matmul(p.inverse())
    a = rotation_number(m, 4000)
    b = rotation_number(conj, 4000)
    assert circular_distance(a.value, b.value) <= a.error + b.error


def test_rotation_number_of_word():
    rep = rotation_number([Rotation(0.3), Rotation(0.45)], 1000)
    assert circular_distance(rep.value, 0.75) <= rep.error
    # affine translations act as rotations; higher slopes do not
    rep = rotation_number(AffineLine(0, Fraction(1, 4)), 400)
    assert circular_distance(rep.value, 0.25) <= rep.error


def test_rotation_number_rejects_expanding_maps():
    with pytest.raises(DomainError):
        rotation_number(Doubling(), 1000)
    with pytest.raises(DomainError):
        rotation_number(AffineLine(1, Fraction(0)), 1000)
    with pytest.raises(DomainError):
        rotation_number(Rotation(0.1), 50)


# ------------------------------------------------------------- commutator


def test_commutator_empty_product():
    chk = verify_commutator_product([], 0.0)
    assert chk.max_deviation == 0.0
    assert chk.ok
    chk = verify_commutator_product([], 0.3)
    assert not chk.ok
    assert chk.max_deviation == pytest.approx(0.3, abs=1e-6)


def test_commutator_self_pair_is_identity():
    f = Mobius(2.0, 1.0, 1.0, 1.0)
    chk = verify_commutator_product([(f, f)], Rotation(0.0))
    assert chk.ok
    # commuting rotations also cancel
    psi = math.pi / 7
    r1 = Mobius(math.cos(psi), -math.sin(psi), math.sin(psi), math.cos(psi))
    r2 = Mobius(math.cos(2 * psi), -math.sin(2 * psi),
                math.sin(2 * psi), math.cos(2 * psi))
    chk = verify_commutator_product([(r1, r2)], 0.0)
    assert chk.ok


def test_commutator_detects_wrong_relation():
    f = Mobius(2.0, 0.0, 0.0, 0.5)
    h = Mobius(1.0, 1.0, 0.0, 1.0)
    chk = verify_commutator_product([(f, h)], 0.0)
    assert not chk.ok
    assert chk.max_deviation > 0.1


def test_commutator_rejects_other_generators():
    with pytest.raises(DomainError):
        verify_commutator_product([(Rotation(0.3), Mobius(1, 0, 0, 1))], 0.0)
    with pytest.raises(DomainError):
        verify_commutator_product([], math.nan)   # nan gaps compare False


def test_circular_distance():
    assert circular_distance(0.1, 0.95) == pytest.approx(0.15)
    assert circular_distance(0.95, 0.1) == pytest.approx(0.15)
    assert circular_distance(0.5, 0.5) == 0.0
    assert circular_distance(0.0, 0.5) == pytest.approx(0.5)
