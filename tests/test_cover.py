import random
import tracemalloc

import pytest

from minfol import cover
from minfol.errors import DomainError
from minfol.cover import (BranchPoint, RamificationProfile,
                          riemann_hurwitz_chi, CoverSpec, build_double_cover,
                          pillowcase_genus, pillowcase_sphere_profile,
                          leaf_genus_growth, leaf_genus_growth_fibres)
from minfol import permutations as perms


# ------------------------------------------------------- chi bookkeeping


def test_riemann_hurwitz_classics():
    # double cover of the sphere branched over 4 points is a torus
    prof = RamificationProfile(2, tuple(
        BranchPoint("z%d" % i, (2,)) for i in range(4)))
    assert riemann_hurwitz_chi(2, prof) == 0
    # over 6 points: genus two
    prof = RamificationProfile(2, tuple(
        BranchPoint("z%d" % i, (2,)) for i in range(6)))
    assert riemann_hurwitz_chi(2, prof) == -2


def test_riemann_hurwitz_unbranched():
    for d in (1, 2, 5):
        prof = RamificationProfile(d, ())
        assert riemann_hurwitz_chi(2, prof) == 2 * d
        assert riemann_hurwitz_chi(0, prof) == 0
        assert riemann_hurwitz_chi(-2, prof) == -2 * d


def test_profile_validation():
    with pytest.raises(DomainError):
        BranchPoint("p", ())
    with pytest.raises(DomainError):
        BranchPoint("p", (2, 0))
    with pytest.raises(DomainError):
        RamificationProfile(3, (BranchPoint("p", (2,)),))  # sums to 2, not 3
    with pytest.raises(DomainError):
        RamificationProfile(0, ())


def test_branch_point_fibres_sort_descending():
    bp = BranchPoint("p", (1, 3, 2))
    assert bp.fibre == (3, 2, 1)


# ------------------------------------------------------- monodromy covers


def test_double_cover_family_genus():
    for n in (2, 4, 6, 8):
        spec = build_double_cover(n)
        assert spec.degree == 2
        assert spec.genus() == n // 2 + 1
        prof = spec.ramification_profile()
        assert all(bp.fibre == (2,) for bp in prof.branch_points)


def test_double_cover_rejects_odd():
    with pytest.raises(DomainError):
        build_double_cover(3)
    with pytest.raises(DomainError):
        build_double_cover(1)
    with pytest.raises(DomainError):
        build_double_cover(0)


def test_cover_spec_checks_group_relation():
    # one transposition over a sphere cannot close up
    with pytest.raises(DomainError):
        CoverSpec(base="sphere", degree=2, punctures=("z1",),
                  monodromy={"gamma_1": (1, 0)})
    # and an even number can
    spec = CoverSpec(base="sphere", degree=2, punctures=("z1", "z2"),
                     monodromy={"gamma_1": (1, 0), "gamma_2": (1, 0)})
    assert spec.genus() == 0


def test_cover_spec_rejects_disconnected():
    ident = (0, 1)
    with pytest.raises(DomainError) as err:
        CoverSpec(base="torus", degree=2, punctures=("p1", "p2"),
                  monodromy={"m": ident, "p": ident,
                             "alpha_1": ident, "alpha_2": ident})
    assert str(err.value) == \
        "the cover is not connected: sheet 1 reaches 1 of 2 sheets"


def test_cover_spec_sphere_pillowcase_double():
    # four half-turn corners on the sphere, double cover: the square torus
    flip = (1, 0)
    spec = CoverSpec(base="sphere", degree=2,
                     punctures=("z1", "z2", "z3", "z4"),
                     monodromy={"gamma_%d" % i: flip for i in (1, 2, 3, 4)})
    assert spec.genus() == 1


def test_cover_spec_torus_commutator_relation():
    # monodromy that only closes up because of the [m, p] commutator
    m = perms.parse_cycles("(1 2 3)", 3)
    p = perms.parse_cycles("(1 2)", 3)
    comm = perms.compose(perms.compose(m, p),
                         perms.compose(perms.inverse(m), perms.inverse(p)))
    alpha = perms.inverse(comm)
    spec = CoverSpec(base="torus", degree=3, punctures=("p1",),
                     monodromy={"m": m, "p": p, "alpha_1": alpha})
    assert spec.chi() == -sum(
        e - 1 for e in perms.cycle_lengths(alpha))


# ----------------------------------------------------- pillowcase family


def test_pillowcase_acceptance_example():
    pc = pillowcase_genus(4, (1, 1, 1, 1))
    assert pc.genus == 3
    assert pc.torus_profile is not None
    assert pc.torus_profile.degree == 8
    (bp,) = pc.torus_profile.branch_points
    assert bp.fibre == (2, 2, 2, 2)


def test_pillowcase_double_cover_is_torus():
    pc = pillowcase_genus(2, (1, 1, 1, 1))
    assert pc.genus == 1


def test_pillowcase_no_torus_profile_when_not_translation():
    pc = pillowcase_genus(6, (1, 1, 1, 3))
    assert pc.genus == 4
    assert pc.torus_profile is None


def cyclic_cover_genus_oracle(d, a):
    """chi by counting cycles of actual permutation powers of a d-cycle,
    not through the gcd shortcut."""
    cyc = tuple((i + 1) % d for i in range(d))
    chi = 2 * d
    for ai in a:
        power = perms.identity(d)
        for _ in range(ai):
            power = perms.compose(power, cyc)
        chi -= d - len(perms.cycles(power, include_fixed=True))
    assert chi % 2 == 0
    return (2 - chi) // 2


def test_pillowcase_matches_permutation_oracle():
    checked = 0
    for d in range(1, 9):
        for a1 in range(1, d + 1):
            for a2 in range(1, d + 1):
                for a3 in range(1, d + 1):
                    a4 = -(a1 + a2 + a3) % d
                    if a4 == 0:
                        a4 = d
                    a = (a1, a2, a3, a4)
                    try:
                        pc = pillowcase_genus(d, a)
                    except DomainError:
                        continue
                    assert pc.genus == cyclic_cover_genus_oracle(d, a)
                    prof = pillowcase_sphere_profile(d, a)
                    assert (2 - riemann_hurwitz_chi(2, prof)) // 2 == pc.genus
                    checked += 1
    assert checked > 100


def test_pillowcase_rejects_bad_parameters():
    with pytest.raises(DomainError):
        pillowcase_genus(4, (1, 1, 1))         # three parameters
    with pytest.raises(DomainError):
        pillowcase_genus(4, (1, 1, 1, 2))      # sum not divisible by d
    with pytest.raises(DomainError):
        pillowcase_genus(4, (2, 2, 2, 2))      # common divisor 2
    with pytest.raises(DomainError):
        pillowcase_genus(4, (0, 1, 1, 2))      # out of range
    with pytest.raises(DomainError):
        pillowcase_genus(4, (1, 1, 1, 5))      # out of range
    with pytest.raises(DomainError):
        pillowcase_genus(0, (1, 1, 1, 1))


def test_sphere_profile_refuses_more_points_than_max_points(monkeypatch):
    # gcd(12, a_i) = 4, 4, 3, 1: twelve ramification points
    monkeypatch.setattr(perms, "MAX_POINTS", 12)
    prof = pillowcase_sphere_profile(12, (4, 4, 3, 1))
    assert sum(len(bp.fibre) for bp in prof.branch_points) == 12
    monkeypatch.setattr(perms, "MAX_POINTS", 11)
    with pytest.raises(DomainError, match="^12 ramification points is more "
                       "than the 11 that pillowcase_sphere_profile lists$"):
        pillowcase_sphere_profile(12, (4, 4, 3, 1))


def test_pillowcase_degree_zero_is_refused_before_any_modulus():
    from minfol.origami import pillowcase_origami
    for build in (pillowcase_genus, pillowcase_sphere_profile,
                  pillowcase_origami):
        with pytest.raises(DomainError, match="^degree must be positive$"):
            build(0, (1, 1, 1, 1))


# -------------------------------------------------------- leaf genus


def test_leaf_growth_acceptance_case():
    cert = leaf_genus_growth(2, (1, 2), 50)
    assert cert.chi_bound == 2 - 50
    assert len(cert.chi_sequence) == 50
    for j, chi in enumerate(cert.chi_sequence, start=1):
        assert chi <= 2 - j
    for prev, cur in zip(cert.chi_sequence, cert.chi_sequence[1:]):
        assert cur < prev


def test_leaf_growth_broadcast_and_explicit_agree():
    a = leaf_genus_growth(5, (2, 2), 4)
    b = leaf_genus_growth(5, [(2, 2)] * 4, 4)
    assert a == b


def test_leaf_growth_passes_one_fibre_list_for_a_reused_pair(monkeypatch):
    seen = []
    real = cover.leaf_genus_growth_fibres

    def spy(d, fibres, k):
        seen.append(fibres)
        return real(d, fibres, k)

    monkeypatch.setattr(cover, "leaf_genus_growth_fibres", spy)
    cert = leaf_genus_growth(10, (5, 2), 4)
    assert cert.chi_sequence == (5, 0, -5, -10)
    assert len(seen[0]) == 4 and len({id(f) for f in seen[0]}) == 1
    # the pair (5, 2) is read as its chi step 5 (2 - 1): one index 6
    assert seen[0][0] == [6]
    # pairs given one per point keep one list each
    assert leaf_genus_growth(10, [(5, 2)] * 4, 4) == cert
    assert len({id(f) for f in seen[1]}) == 4


def test_leaf_growth_reads_a_pair_as_its_chi_step():
    # the fibre [e_i] * d_i gives the same sequences and messages
    rng = random.Random(24)
    for _ in range(300):
        d, k = rng.randint(1, 30), rng.randint(1, 6)
        pairs = [(rng.randint(1, 8), rng.randint(2, 6))
                 for _ in range(rng.choice((1, k)))]
        try:
            got = leaf_genus_growth(d, pairs, k)
        except DomainError as exc:
            got = str(exc)
        fibres = [[ei] * di for di, ei in pairs] * (k // len(pairs))
        try:
            want = leaf_genus_growth_fibres(d, fibres, k)
        except DomainError as exc:
            want = str(exc)
        assert got == want, (d, pairs, k)


def test_leaf_growth_builds_no_fibre_of_d_i_indices():
    # [2] * 5 * 10^7 would be a 400 MB list
    tracemalloc.start()
    try:
        cert = leaf_genus_growth(10 ** 8, (5 * 10 ** 7, 2), 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.chi_sequence == (5 * 10 ** 7,)
    assert peak < 1_000_000


def test_leaf_growth_reads_a_shared_fibre_once(monkeypatch):
    sums = []

    def counted(xs):
        sums.append(len(xs))
        return sum(xs)

    monkeypatch.setattr(cover, "sum", counted, raising=False)
    shared = [2] * 5
    cert = leaf_genus_growth_fibres(10, [shared] * 4, 4)
    assert cert.chi_sequence == (5, 0, -5, -10)
    assert sums == [5]
    # equal lists that are distinct objects are each read
    assert leaf_genus_growth_fibres(10, [[2] * 5 for _ in range(4)], 4) == \
        cert
    assert sums == [5] * 5
    # a list shared by points 2 and 3 is read at point 2, then again
    # after another list comes between its uses
    other = [3]
    leaf_genus_growth_fibres(10, [other, shared, shared, other], 4)
    assert sums == [5] * 5 + [1, 5, 1]
    # a bad list is named at the first point that passes it
    bad = [2, 1]
    for fibres, point in (([bad] * 3, 1), ([shared, bad, bad], 2),
                          ([shared, shared, bad], 3)):
        with pytest.raises(DomainError, match="^point %d: ramification "
                                              "indices must be" % point):
            leaf_genus_growth_fibres(10, fibres, 3)


def test_leaf_growth_mixed_fibres():
    cert = leaf_genus_growth_fibres(5, [[2, 2], [3]], 2)
    assert cert.chi_sequence == (3, 1)
    assert cert.chi_bound == 3
    assert cert.to_json() == {"chi_bound": 3, "chi_sequence": [3, 1]}


def test_leaf_growth_rejects_bad_input():
    with pytest.raises(DomainError):
        leaf_genus_growth(2, (1, 1), 3)     # e = 1 is no branch point
    with pytest.raises(DomainError):
        leaf_genus_growth(2, (0, 2), 3)     # no ramification points
    with pytest.raises(DomainError):
        leaf_genus_growth(1, (1, 2), 1)     # 2 sheets ramify, degree 1
    with pytest.raises(DomainError):
        leaf_genus_growth(2, (1, 2), 0)
    with pytest.raises(DomainError):
        leaf_genus_growth(4, [(1, 2), (1, 2)], 3)   # pair count mismatch
    with pytest.raises(DomainError):
        leaf_genus_growth_fibres(4, [[2], [2]], 1)
    with pytest.raises(DomainError, match="point 2: no ramification"):
        leaf_genus_growth_fibres(4, [[2, 2], []], 2)


def test_leaf_growth_checks_k_then_each_pair_before_its_fibre():
    with pytest.raises(DomainError, match="^need at least one branch point$"):
        leaf_genus_growth(2, (1, 2), -5)
    # point 1 ramifies too many sheets: refused before point 2 is read
    with pytest.raises(DomainError, match="^point 1: 6 sheets ramify but "
                                          "the degree is 2$"):
        leaf_genus_growth(2, [(3, 2), (1, 1)], 2)


def test_leaf_growth_names_a_bad_pair():
    with pytest.raises(DomainError, match=r"entry \[1\] is not a"):
        leaf_genus_growth(2, (1,), 3)
    with pytest.raises(DomainError, match=r"entry \[1, 2, 3\] is not a"):
        leaf_genus_growth(2, (1, 2, 3), 3)
    with pytest.raises(DomainError, match=r"entry \[2\] is not a"):
        leaf_genus_growth(4, [(1, 2), (2,), (1, 2)], 3)


def test_leaf_growth_fuzz_certificate_facts():
    rng = random.Random(9)
    for trial in range(300):
        d = rng.randrange(2, 12)
        k = rng.randrange(1, 8)
        fibres = []
        ok = True
        for _ in range(k):
            budget = d
            fibre = []
            while True:
                e = rng.randrange(2, 5)
                if e > budget:
                    break
                fibre.append(e)
                budget -= e
                if rng.random() < 0.5:
                    break
            if not fibre:
                ok = False
                break
            fibres.append(fibre)
        if not ok:
            continue
        cert = leaf_genus_growth_fibres(d, fibres, k)
        assert cert.chi_bound == d - k
        assert len(cert.chi_sequence) == k
        for j, chi in enumerate(cert.chi_sequence, start=1):
            assert chi <= d - j


def test_leaf_growth_refuses_more_branch_points_than_the_limit(monkeypatch):
    assert cover.MAX_BRANCH_POINTS >= 60          # the cli mix
    monkeypatch.setattr(cover, "MAX_BRANCH_POINTS", 5)
    assert len(leaf_genus_growth(8, (1, 2), 5).chi_sequence) == 5
    # refused before the pairs are read or counted against k
    for per_point in ((1, 2), [(1, 2)] * 2, [(1,)]):
        with pytest.raises(DomainError,
                           match="^6 branch points is more than the 5 "):
            leaf_genus_growth(8, per_point, 6)
    with pytest.raises(DomainError, match="^6 branch points is more than"):
        leaf_genus_growth_fibres(8, [[2]] * 6, 6)


def test_double_cover_refuses_more_branch_points_than_the_limit(monkeypatch):
    monkeypatch.setattr(cover, "MAX_BRANCH_POINTS", 6)
    assert build_double_cover(6).genus() == 4
    # refused before the parity check, as before any monodromy is built
    for n in (7, 8):
        with pytest.raises(DomainError, match="^%d branch points is more "
                           "than the 6 that build_double_cover builds$" % n):
            build_double_cover(n)
