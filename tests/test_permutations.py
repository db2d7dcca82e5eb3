import random

import pytest

from minfol.errors import DomainError
from minfol import permutations as perms


def random_perm(rng, n):
    p = list(range(n))
    rng.shuffle(p)
    return tuple(p)


def test_compose_applies_rightmost_first():
    p = perms.parse_cycles("(1 2)", 3)
    q = perms.parse_cycles("(2 3)", 3)
    # (p . q)(x) = p(q(x)): 1 -> q -> 1 -> p -> 2
    assert perms.compose(p, q) == perms.parse_cycles("(1 2 3)", 3)
    assert perms.compose(q, p) == perms.parse_cycles("(1 3 2)", 3)


def test_inverse_and_conjugate():
    rng = random.Random(1)
    for trial in range(200):
        n = rng.randrange(1, 9)
        p = random_perm(rng, n)
        r = random_perm(rng, n)
        assert perms.compose(p, perms.inverse(p)) == perms.identity(n)
        c = perms.conjugate(p, r)
        # conjugation preserves cycle type
        assert sorted(perms.cycle_lengths(c)) == \
            sorted(perms.cycle_lengths(p))
        # and is compatible with composition
        q = random_perm(rng, n)
        assert perms.conjugate(perms.compose(p, q), r) == \
            perms.compose(perms.conjugate(p, r), perms.conjugate(q, r))


def test_cycles_partition_the_points():
    rng = random.Random(2)
    for trial in range(100):
        n = rng.randrange(1, 10)
        p = random_perm(rng, n)
        cyc = perms.cycles(p, include_fixed=True)
        seen = sorted(x for c in cyc for x in c)
        assert seen == list(range(n))
        for c in cyc:
            for i, x in enumerate(c):
                assert p[x] == c[(i + 1) % len(c)]


def test_cycles_without_fixed_points():
    p = perms.parse_cycles("(1 2)", 4)
    assert perms.cycles(p) == [(0, 1)]
    assert perms.cycles(p, include_fixed=True) == [(0, 1), (2,), (3,)]


def test_parse_and_format_roundtrip():
    rng = random.Random(3)
    for trial in range(200):
        n = rng.randrange(1, 9)
        p = random_perm(rng, n)
        assert perms.parse_cycles(perms.format_cycles(p), n) == p


def test_parse_cycles_forms():
    assert perms.parse_cycles("(1 2 3)(4 5)") == (1, 2, 0, 4, 3)
    assert perms.parse_cycles("(1,2,3)(4,5)") == (1, 2, 0, 4, 3)
    assert perms.parse_cycles("id", 3) == (0, 1, 2)
    assert perms.parse_cycles("()", 2) == (0, 1)
    assert perms.parse_cycles("(1 2)", 4) == (1, 0, 2, 3)
    for bad in ("(1 2", "(0 1)", "(1 2)(2 3)", "1 2 3"):
        with pytest.raises(DomainError):
            perms.parse_cycles(bad, 4)
    assert perms.parse_cycles("id") == ()   # sized by its largest label


def test_orbits_and_transitivity():
    a = perms.parse_cycles("(1 2)", 4)
    b = perms.parse_cycles("(3 4)", 4)
    assert perms.orbit_size([a, b], 4) == 2
    assert perms.orbit_size([b, a], 4) == 2     # the orbit of 0 either way
    c = perms.parse_cycles("(2 3)", 4)
    assert perms.orbit_size([a, b, c], 4) == 4
    assert perms.orbit_size([(), ()], 0) == 0
    assert perms.orbit_size([(0,)], 1) == 1


def test_is_perm_rejects_junk():
    assert perms.is_perm((0, 1, 2), 3)
    assert not perms.is_perm((0, 0, 2), 3)
    assert not perms.is_perm((0, 1), 3)
    assert not perms.is_perm((0, 1, 3), 3)
