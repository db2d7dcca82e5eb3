import itertools
import math
import random

import pytest

from minfol.errors import DomainError, InternalError
from minfol import origami
from minfol import permutations as perms
from minfol.cover import build_double_cover, pillowcase_genus
from minfol.origami import (Origami, named_origami, TORUS, WOLLMILCHSAU,
                            sl2z_act, act_word, relabel, canonical_form,
                            lift_automorphism, pillowcase_origami)
from minfol.sl2z import IntMatrix2, GenToken, decompose_st

CAT = IntMatrix2(2, 1, 1, 1)


def random_origami(rng, dmax=6):
    while True:
        d = rng.randrange(1, dmax + 1)
        sh = list(range(d))
        sv = list(range(d))
        rng.shuffle(sh)
        rng.shuffle(sv)
        if perms.orbit_size([tuple(sh), tuple(sv)], d) == d:
            return Origami(d, tuple(sh), tuple(sv))


def random_perm(rng, d):
    p = list(range(d))
    rng.shuffle(p)
    return tuple(p)


# ----------------------------------------------------------- construction


def test_named_origamis():
    assert named_origami("torus") == TORUS
    assert named_origami("WOLLMILCHSAU") == WOLLMILCHSAU
    with pytest.raises(DomainError):
        named_origami("klein")


def test_basic_invariants():
    assert TORUS.d == 1
    assert TORUS.genus() == 1
    assert TORUS.stratum() == (1,)
    assert WOLLMILCHSAU.d == 8
    assert WOLLMILCHSAU.genus() == 3
    assert WOLLMILCHSAU.stratum() == (2, 2, 2, 2)


def test_rejects_disconnected_and_malformed():
    with pytest.raises(DomainError):
        Origami(2, (0, 1), (0, 1))
    with pytest.raises(DomainError):
        Origami(2, (0, 0), (1, 0))
    with pytest.raises(DomainError):
        Origami(0, (), ())


def test_disconnection_is_refused_in_one_short_line():
    with pytest.raises(DomainError) as err:
        Origami(5, perms.parse_cycles("(1 5)", 5),
                perms.parse_cycles("(1 2)", 5))
    assert str(err.value) == \
        "origami is not connected: square 1 reaches 3 of 5 squares"
    # 5000 orbits, and still one short line
    ident = perms.identity(5000)
    with pytest.raises(DomainError) as err:
        Origami(5000, ident, ident)
    assert len(str(err.value)) < 200


def test_gluings_are_stored_as_tuples_and_refused_in_order():
    o = Origami(3, [1, 2, 0], [0, 2, 1])
    assert type(o.sigma_h) is tuple and type(o.sigma_v) is tuple
    assert o == Origami(3, (1, 2, 0), (0, 2, 1))
    sh, sv = (1, 2, 0), (0, 2, 1)
    o = Origami(3, sh, sv)
    assert o.sigma_h is sh and o.sigma_v is sv
    for d, h, v, message in (
            (0, [], [], "need at least one square"),
            (3, [1, 0], [0, 1, 2], "sigma_h is not a permutation of 3 "
             "squares"),
            (3, [0, 1, 2], [0, 1, 2, 3], "sigma_v is not a permutation of "
             "3 squares"),
            (3, [0, 0, 1], [0, 1, 1], "sigma_h is not a permutation of 3 "
             "squares"),
            (3, [1, 2, 0], [0, 2, 2], "sigma_v is not a permutation of 3 "
             "squares"),
            (4, [1, 0, 3, 2], [0, 1, 2, 3], "origami is not connected: "
             "square 1 reaches 2 of 4 squares"),
            (4, [1, 0, 2, 4], [0, 1, 3, 2], "sigma_h is not a permutation "
             "of 4 squares")):
        with pytest.raises(DomainError) as err:
            Origami(d, h, v)
        assert str(err.value) == message


def test_one_orbit_search_per_origami_and_per_cover(monkeypatch):
    calls = _count_calls(monkeypatch, perms, "orbit_size")
    Origami(3, (1, 2, 0), (0, 2, 1))
    assert calls[0] == 1
    build_double_cover(4)
    assert calls[0] == 2


def test_genus_two_example():
    # three squares in an L: one cone point of angle 6 pi
    o = Origami(3, perms.parse_cycles("(1 2)", 3),
                perms.parse_cycles("(1 3)", 3))
    assert o.genus() == 2
    assert o.stratum() == (3,)


# ----------------------------------------------------------- group action


def test_token_actions_on_torus_are_trivial():
    for tok in GenToken:
        assert sl2z_act(tok, TORUS) == TORUS


def test_act_word_composes_rightmost_first():
    rng = random.Random(3)
    for trial in range(100):
        o = random_origami(rng)
        w = [rng.choice(list(GenToken)) for _ in range(5)]
        step = o
        for tok in reversed(w):
            step = sl2z_act(tok, step)
        assert act_word(w, o) == step


def test_group_relations_hold_up_to_relabeling():
    # S^4 and (ST)^6 are the identity in the group, S^2 is -I
    rng = random.Random(7)
    S, T = GenToken.S, GenToken.T
    for trial in range(60):
        o = random_origami(rng)
        c0 = canonical_form(o)[0]
        assert canonical_form(act_word([S] * 4, o))[0] == c0
        assert canonical_form(act_word([S, T] * 6, o))[0] == c0
        assert act_word([S, S], o) == sl2z_act(GenToken.NEG_I, o)
        assert act_word([T, GenToken.T_INV], o) == o


def test_genus_and_stratum_invariant_under_action():
    rng = random.Random(13)
    for trial in range(150):
        o = random_origami(rng)
        for tok in GenToken:
            img = sl2z_act(tok, o)
            assert img.genus() == o.genus()
            assert img.stratum() == o.stratum()


def test_canonical_form_is_relabeling_invariant():
    rng = random.Random(17)
    for trial in range(150):
        o = random_origami(rng)
        r = random_perm(rng, o.d)
        canon_o, lab_o = canonical_form(o)
        canon_r, lab_r = canonical_form(relabel(o, r))
        assert canon_o == canon_r
        # the returned labelings actually carry each copy onto the form
        assert relabel(o, lab_o) == canon_o
        assert relabel(relabel(o, r), lab_r) == canon_o


def test_distinct_origamis_have_distinct_forms():
    a = Origami(3, perms.parse_cycles("(1 2)", 3),
                perms.parse_cycles("(1 3)", 3))
    b = Origami(3, perms.parse_cycles("(1 2 3)", 3),
                perms.identity(3))
    assert a.stratum() == (3,)
    assert b.stratum() == (1, 1, 1)
    assert canonical_form(a)[0] != canonical_form(b)[0]


# ------------------------------------------------------------------ lifts


def test_cat_map_lifts_to_torus():
    w = lift_automorphism(CAT, TORUS)
    assert w is not None
    assert w.verify(TORUS)
    assert w.relabeling == (0,)


def test_cat_map_lifts_to_wollmilchsau():
    w = lift_automorphism(CAT, WOLLMILCHSAU)
    assert w is not None
    assert w.verify(WOLLMILCHSAU)
    img = act_word(w.word, WOLLMILCHSAU)
    assert relabel(img, w.relabeling) == WOLLMILCHSAU


def test_powers_of_cat_lift_to_wollmilchsau():
    for n in (2, 3):
        w = lift_automorphism(CAT ** n, WOLLMILCHSAU)
        assert w is not None and w.verify(WOLLMILCHSAU)


def test_some_matrix_fails_to_lift():
    # an origami whose affine group misses part of SL(2, Z): the
    # three-square L surface
    o = Origami(3, perms.parse_cycles("(1 2)", 3),
                perms.parse_cycles("(1 3)", 3))
    hits = 0
    for A in (CAT, IntMatrix2(1, 1, 1, 2), IntMatrix2(2, 3, 1, 2)):
        w = lift_automorphism(A, o)
        if w is None:
            hits += 1
        else:
            assert w.verify(o)
    assert hits > 0


def test_lift_rejects_non_anosov():
    with pytest.raises(DomainError):
        lift_automorphism(IntMatrix2(1, 1, 0, 1), WOLLMILCHSAU)
    with pytest.raises(DomainError):
        lift_automorphism(IntMatrix2(0, -1, 1, 0), TORUS)


def test_lift_computes_the_word_once_per_matrix(monkeypatch):
    calls = {"classify": 0, "decompose_st": 0}
    for name in calls:
        def counted(A, fn=getattr(origami, name), name=name):
            calls[name] += 1
            return fn(A)
        monkeypatch.setattr(origami, name, counted)
    origami._anosov_word.cache_clear()
    w1 = lift_automorphism(CAT, WOLLMILCHSAU)
    w2 = lift_automorphism(IntMatrix2(2, 1, 1, 1), TORUS)
    assert calls == {"classify": 1, "decompose_st": 1}
    assert w1.word == w2.word == tuple(decompose_st(CAT))
    # exceptions are not cached: a non-Anosov matrix fails every time
    for _ in range(2):
        with pytest.raises(DomainError):
            lift_automorphism(IntMatrix2(1, 1, 0, 1), TORUS)
    assert calls == {"classify": 3, "decompose_st": 1}


def _census():
    for d in range(1, 6):
        for sh in itertools.permutations(range(d)):
            for sv in itertools.permutations(range(d)):
                if perms.orbit_size([sh, sv], d) == d:
                    yield Origami(d, sh, sv)


def test_lift_rejects_on_cycle_types_before_canonical_forms(monkeypatch):
    # 271 of the 11,520 origamis with d <= 5 lift the cat map, and
    # 295 pass the cycle-type test; canonicalising o and its image for
    # every origami would take 23,040 calls
    calls = [0]
    canonical = origami.canonical_form

    def counted(o):
        calls[0] += 1
        return canonical(o)

    monkeypatch.setattr(origami, "canonical_form", counted)
    lifts = sum(lift_automorphism(CAT, o) is not None for o in _census())
    assert lifts == 271
    assert calls[0] <= 2 * 300


def test_cycle_type_rejection_is_exact():
    rng = random.Random(41)
    matrices = [CAT, CAT ** 2, IntMatrix2(1, 1, 1, 2), IntMatrix2(2, 3, 1, 2),
                IntMatrix2(7, 2, 3, 1)]
    differ = 0
    for trial in range(300):
        o = random_origami(rng, dmax=9)
        A = rng.choice(matrices)
        img = act_word(decompose_st(A), o)
        same = canonical_form(o)[0] == canonical_form(img)[0]
        assert (lift_automorphism(A, o) is not None) == same
        if (perms.cycle_lengths(img.sigma_h)
                != perms.cycle_lengths(o.sigma_h)
                or perms.cycle_lengths(img.sigma_v)
                != perms.cycle_lengths(o.sigma_v)):
            differ += 1
            assert not same
    assert differ > 100


def test_lift_refuses_a_witness_that_fails_to_verify(monkeypatch):
    # the check of LiftWitness.verify, run on the image already in hand:
    # a relabeling that does not give o back must not be returned
    monkeypatch.setattr(origami, "relabel", lambda o, r: TORUS)
    with pytest.raises(InternalError, match="fails to verify"):
        lift_automorphism(CAT, WOLLMILCHSAU)


def test_lift_walks_its_word_once(monkeypatch):
    # one walk per lift, and each token of the word is covered once,
    # either by a turn of its own or inside a run of shears
    walks, covered = [], []

    def counting_walk(word, o, xs=()):
        walks.append(tuple(word))
        return real_walk(word, o, xs)

    def counting_turn(token, sh, sv, xs):
        covered.append(token)
        return real_turn(token, sh, sv, xs)

    def counting_run(token, m, sh, sv, xs):
        covered.extend([token] * m)
        return real_run(token, m, sh, sv, xs)

    real_walk, real_turn = origami._walk, origami._turn
    real_run = origami._shear_run
    monkeypatch.setattr(origami, "_walk", counting_walk)
    monkeypatch.setattr(origami, "_turn", counting_turn)
    monkeypatch.setattr(origami, "_shear_run", counting_run)
    for A in (CAT, CAT ** 2, CAT ** 3):
        walks.clear()
        covered.clear()
        w = lift_automorphism(A, WOLLMILCHSAU)
        assert w is not None
        assert walks == [w.word]
        assert covered == list(reversed(w.word))


def test_genus_refuses_an_odd_euler_characteristic(monkeypatch):
    # three corner cycles on two squares cannot come from a surface
    monkeypatch.setattr(Origami, "vertex_permutation",
                        lambda self: (0, 1, 2))
    o = Origami(2, (1, 0), (0, 1))
    with pytest.raises(InternalError, match="odd Euler characteristic"):
        o.genus()


def test_lift_respects_conjugated_copies():
    # a relabeled copy lifts exactly when the original does
    rng = random.Random(29)
    for trial in range(20):
        r = random_perm(rng, 8)
        o = relabel(WOLLMILCHSAU, r)
        w = lift_automorphism(CAT, o)
        assert w is not None and w.verify(o)


# ------------------------------------------------------------ pillowcase


def test_pillowcase_origami_matches_cover_genus():
    for d, a in ((2, (1, 1, 1, 1)), (4, (1, 1, 1, 1)),
                 (4, (1, 1, 3, 3)), (6, (1, 1, 5, 5)), (8, (1, 3, 5, 7))):
        o = pillowcase_origami(d, a)
        assert o.d == 2 * d
        assert o.genus() == pillowcase_genus(d, a).genus


def test_pillowcase_origami_acceptance_shape():
    o = pillowcase_origami(4, (1, 1, 1, 1))
    assert o.genus() == 3
    # four cone points of angle 4 pi, like the degree-8 torus profile
    assert o.stratum() == (2, 2, 2, 2)


def test_pillowcase_origami_rejects_bad_parameters():
    with pytest.raises(DomainError):
        pillowcase_origami(3, (1, 1, 1, 3))   # odd degree
    with pytest.raises(DomainError):
        pillowcase_origami(4, (1, 1, 2, 4))   # even rotation numbers
    with pytest.raises(DomainError):
        pillowcase_origami(4, (1, 1, 1, 2))   # inadmissible sum


# ------------------------------------------------- work saved, checks kept


def _count_calls(monkeypatch, owner, name):
    calls = [0]
    fn = getattr(owner, name)

    def counted(*args):
        calls[0] += 1
        return fn(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_act_word_is_the_fold_of_sl2z_act():
    # sl2z_act and act_word share one walk, so each token is also held
    # against the spelled-out gluing step of the shear-run oracle below
    rng = random.Random(67)
    toks = list(GenToken)
    for trial in range(200):
        o = random_origami(rng, dmax=12)
        for token in toks:
            image = sl2z_act(token, o)
            assert (image.sigma_h, image.sigma_v) == \
                _token_step(token, o.sigma_h, o.sigma_v)
        word = [rng.choice(toks) for _ in range(rng.randrange(0, 12))]
        folded = o
        for token in reversed(word):
            folded = sl2z_act(token, folded)
        assert act_word(word, o) == folded
    with pytest.raises(DomainError, match="unknown token"):
        act_word([GenToken.S, "X"], WOLLMILCHSAU)


def test_each_returned_image_is_validated_once(monkeypatch):
    # one Origami.__post_init__ per act_word or sl2z_act call, whatever
    # the word length: the intermediate gluings are never wrapped
    rng = random.Random(71)
    toks = list(GenToken)
    origamis = [random_origami(rng, dmax=9) for _ in range(20)]
    words = [[rng.choice(toks) for _ in range(rng.randrange(0, 15))]
             for _ in origamis]
    calls = _count_calls(monkeypatch, Origami, "__post_init__")
    for o, word in zip(origamis, words):
        before = calls[0]
        act_word(word, o)
        assert calls[0] == before + 1
        sl2z_act(GenToken.T, o)
        assert calls[0] == before + 2
    assert calls[0] == 2 * len(origamis)
    # the returned image is still checked: a disconnected pair smuggled
    # past the constructor comes back refused
    bad = object.__new__(Origami)
    for name, value in (("d", 2), ("sigma_h", (0, 1)), ("sigma_v", (0, 1))):
        object.__setattr__(bad, name, value)
    for act in (lambda o: act_word([GenToken.S, GenToken.T], o),
                lambda o: sl2z_act(GenToken.S, o)):
        with pytest.raises(DomainError, match="not connected"):
            act(bad)


def test_genus_stratum_and_rank_share_one_corner_walk(monkeypatch):
    from minfol.homology import homology_rank
    calls = _count_calls(monkeypatch, Origami, "vertex_permutation")
    o = Origami(WOLLMILCHSAU.d, WOLLMILCHSAU.sigma_h, WOLLMILCHSAU.sigma_v)
    assert (o.genus(), o.stratum(), homology_rank(o)) == (3, (2, 2, 2, 2), 6)
    assert o.genus() == 3 and o.vertex_cycles()
    assert calls[0] == 1


def test_genus_builds_no_inverse(monkeypatch):
    rng = random.Random(89)
    origamis = [random_origami(rng, dmax=12) for _ in range(30)]
    calls = _count_calls(monkeypatch, perms, "inverse")
    for o in origamis:
        fresh = Origami(o.d, o.sigma_h, o.sigma_v)
        assert fresh.genus() == o.genus()
        assert fresh.stratum() == o.stratum()
    assert calls[0] == 0


def test_cached_corner_walk_leaves_equality_hash_and_repr_alone():
    import dataclasses
    rng = random.Random(73)
    for trial in range(20):
        o = random_origami(rng, dmax=9)
        fresh = Origami(o.d, o.sigma_h, o.sigma_v)
        o.genus()
        assert "_vertex_cycles" in vars(o)
        assert "_vertex_cycles" not in vars(fresh)
        assert o == fresh and hash(o) == hash(fresh)
        assert repr(o) == repr(fresh)
    assert [f.name for f in dataclasses.fields(Origami)] == \
        ["d", "sigma_h", "sigma_v"]
    # a plain dict entry, with no class-level descriptor (and its lock)
    assert "_vertex_cycles" not in vars(Origami)


def test_corner_walk_is_the_commutator():
    rng = random.Random(79)
    for trial in range(50):
        o = random_origami(rng, dmax=12)
        sh, sv = o.sigma_h, o.sigma_v
        c = perms.compose(sh, perms.compose(
            sv, perms.compose(perms.inverse(sh), perms.inverse(sv))))
        assert o.vertex_permutation() == c
        assert list(o.vertex_cycles()) == perms.cycles(c, include_fixed=True)


# ------------------------------------------------------------ shear runs
#
# The walk takes each run of T or T^-1 in one step.  The oracle below
# is the token-by-token walk it replaced: one gluing step and one push
# per token, spelled out here so that it stays fixed.

S, T, T_INV, NEG_I = GenToken.S, GenToken.T, GenToken.T_INV, GenToken.NEG_I


def _token_step(token, sh, sv):
    if token == T:
        return sh, perms.compose(sv, perms.inverse(sh))
    if token == T_INV:
        return sh, perms.compose(sv, sh)
    if token == S:
        return perms.inverse(sv), sh
    return perms.inverse(sh), perms.inverse(sv)


def _token_push(token, sh, sv, x):
    d = len(sh)
    h, v = list(x[:d]), list(x[d:])
    if token == T:
        w = [0] * d
        for i in range(d):
            w[sh[i]] = v[i]
        return [a + b for a, b in zip(h, v)] + w
    if token == T_INV:
        w = [v[j] for j in sh]
        return [a - b for a, b in zip(h, w)] + w
    if token == S:
        return [-b for b in v] + [h[j] for j in sv]
    return [-h[j] for j in sv] + [-v[j] for j in sh]


def _token_walk(word, o, xs):
    sh, sv = o.sigma_h, o.sigma_v
    for token in reversed(list(word)):
        xs = [_token_push(token, sh, sv, x) for x in xs]
        sh, sv = _token_step(token, sh, sv)
    return (sh, sv), xs


def _assert_walk_matches_the_oracle(word, o, xs):
    image, pushed = origami._walk(word, o, xs)
    assert ((image.sigma_h, image.sigma_v), pushed) == \
        _token_walk(word, o, xs), (o, word)
    assert act_word(word, o) == image


def _perm_of_small_order(rng, d):
    """A permutation of d points with cycles of length at most 5, so of
    order at most 60, as the bench's surfaces have."""
    points = list(range(d))
    rng.shuffle(points)
    p = [0] * d
    while points:
        n = min(rng.randint(1, 5), len(points))
        cyc, points = points[:n], points[n:]
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            p[a] = b
    return tuple(p)


def _order(p):
    return math.lcm(*perms.cycle_lengths(p))


def test_runs_match_the_token_walk_on_surfaces_words():
    # the surfaces words [[1 + pq, p], [q, 1]] = -I T^p S T^-q S, with
    # p and q the orders of the gluings, on 8 to 128 squares
    rng = random.Random(71)
    for d in (8, 8, 16, 16, 24, 32, 64, 128):
        while True:
            sh = _perm_of_small_order(rng, d)
            sv = _perm_of_small_order(rng, d)
            if perms.orbit_size([sh, sv], d) == d:
                break
        o = Origami(d, sh, sv)
        p, q = _order(sh), _order(sv)
        word = decompose_st(IntMatrix2(1 + p * q, p, q, 1))
        assert [t for t, _ in itertools.groupby(word)] == \
            [NEG_I, T, S, T_INV, S]
        xs = [[rng.randint(-3, 3) for _ in range(2 * d)] for _ in range(4)]
        _assert_walk_matches_the_oracle(word, o, xs)


def test_runs_match_the_token_walk_on_census_cat_lifts():
    word = decompose_st(CAT)
    lifts = 0
    for o in _census():
        if lift_automorphism(CAT, o) is None:
            continue
        lifts += 1
        units = [[int(i == j) for j in range(2 * o.d)]
                 for i in range(2 * o.d)]
        _assert_walk_matches_the_oracle(word, o, units)
    assert lifts == 271


def test_runs_shorter_equal_longer_and_multiples_of_a_cycle():
    # sigma_h has cycles of lengths 5, 3 and 1, so m = 1..15 covers
    # m < L, m = L, m > L and m a multiple of L for each of them
    rng = random.Random(73)
    sh = perms.parse_cycles("(1 2 3 4 5)(6 7 8)", 9)
    sv = perms.parse_cycles("(1 6 9)(2 7)", 9)
    o = Origami(9, sh, sv)
    xs = [[rng.randint(-4, 4) for _ in range(18)] for _ in range(3)]
    for token in (T, T_INV):
        for m in range(1, 16):
            _assert_walk_matches_the_oracle([token] * m, o, xs)
            _assert_walk_matches_the_oracle([S, *[token] * m, NEG_I], o, xs)
    # a run of T next to a run of T^-1 is two runs
    _assert_walk_matches_the_oracle([T] * 4 + [T_INV] * 7, o, xs)
