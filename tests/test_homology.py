import itertools
import operator
import os
import pathlib
import random
import re
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

import minfol
from minfol.errors import DomainError, InternalError
from minfol import intlinalg as la
from minfol import permutations as perms
from minfol.homology import (homology_basis, homology_rank, displacement,
                             induced_action, torelli_order, _push_word,
                             _chain_complex)
from minfol.origami import (Origami, TORUS, WOLLMILCHSAU, LiftWitness,
                            lift_automorphism, relabel, act_word,
                            pillowcase_origami)
from minfol.sl2z import IntMatrix2, GenToken, decompose_st, word_matrix

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


def mat_of(rows):
    return [list(r) for r in rows]


# ------------------------------------------------------------ basis facts


def test_torus_basis_and_form():
    basis = homology_basis(TORUS)
    assert basis.rank == 2
    assert mat_of(basis.intersection) in ([[0, 1], [-1, 0]],
                                          [[0, -1], [1, 0]])
    # the two basis cycles are the horizontal and vertical loops
    disps = sorted(displacement(TORUS, z) for z in basis.cycles)
    assert disps == [(0, 1), (1, 0)]


def test_wollmilchsau_rank_six():
    basis = homology_basis(WOLLMILCHSAU)
    assert basis.rank == 6
    assert homology_rank(WOLLMILCHSAU) == 6
    J = mat_of(basis.intersection)
    assert abs(la.det_rational(J)) == 1


def test_basis_properties_fuzz():
    rng = random.Random(31)
    for trial in range(120):
        o = random_origami(rng)
        basis = homology_basis(o)
        assert basis.rank == 2 * o.genus()
        assert basis.rank == homology_rank(o)
        J = mat_of(basis.intersection)
        n = basis.rank
        for i in range(n):
            for j in range(n):
                assert J[i][j] == -J[j][i]
        if n:
            assert abs(la.det_rational(J)) == 1
        # each basis cycle decomposes to a standard unit vector
        for i, z in enumerate(basis.cycles):
            e = basis.decompose(z)
            assert e == tuple(1 if t == i else 0 for t in range(n))
        # face boundaries die in the quotient
        for b in basis.face_boundaries:
            if any(b):
                assert basis.decompose(b) == (0,) * n


def test_decompose_mod_boundaries():
    rng = random.Random(37)
    for trial in range(60):
        o = random_origami(rng)
        basis = homology_basis(o)
        if basis.rank == 0 or not basis.face_boundaries:
            continue
        z = list(basis.cycles[0])
        b = basis.face_boundaries[rng.randrange(len(basis.face_boundaries))]
        shifted = [zi + 3 * bi for zi, bi in zip(z, b)]
        assert basis.decompose(shifted) == basis.decompose(z)


def solve_decompose(basis, x):
    """Reference: coordinates of x by an exact solve against the basis
    cycles and the face boundaries, or None if x is not a cycle."""
    cols = list(basis.cycles) + list(basis.face_boundaries)
    n = len(cols)
    R, pivots, _ = la._rref([[c[i] for c in cols] + [x[i]]
                             for i in range(len(x))])
    if n in pivots:
        return None
    sol = [Fraction(0)] * n
    for row, pc in zip(R, pivots):
        sol[pc] = Fraction(row[n], row[pc])
    return tuple(sol[:basis.rank])


def test_decompose_agrees_with_exact_solve():
    rng = random.Random(41)
    for trial in range(40):
        o = random_origami(rng, dmax=9)
        basis = homology_basis(o)
        coeffs = [rng.randrange(-4, 5) for _ in basis.cycles]
        x = [0] * (2 * o.d)
        for c, z in zip(coeffs + [rng.randrange(-4, 5) for _ in
                                  basis.face_boundaries],
                        basis.cycles + basis.face_boundaries):
            x = [xi + c * zi for xi, zi in zip(x, z)]
        assert basis.decompose(x) == tuple(coeffs) == \
            solve_decompose(basis, x)
        # a vector off the cycle space fails both ways
        y = list(x)
        y[rng.randrange(2 * o.d)] += 1
        if solve_decompose(basis, y) is None:
            with pytest.raises(DomainError):
                basis.decompose(y)
        else:
            assert basis.decompose(y) == solve_decompose(basis, y)


def test_decompose_rejects_non_cycles():
    basis = homology_basis(WOLLMILCHSAU)
    notcycle = [0] * 16
    notcycle[0] = 1   # a single edge between distinct cone points
    with pytest.raises(DomainError):
        basis.decompose(notcycle)
    for length in (0, 15, 17):
        with pytest.raises(DomainError, match="length"):
            basis.decompose([0] * length)


def full_chain_complex(o):
    """(d1, face boundaries) over all 2d edges, built here from the
    corner walk and the gluings alone."""
    d, sh, sv = o.d, o.sigma_h, o.sigma_v
    cyc = o.vertex_cycles()
    cls = [0] * d
    for i, c in enumerate(cyc):
        for x in c:
            cls[x] = i
    d1 = [[0] * (2 * d) for _ in cyc]
    for i in range(d):
        for e, head in ((i, sh[i]), (d + i, sv[i])):
            d1[cls[head]][e] += 1
            d1[cls[i]][e] -= 1
    faces = []
    for i in range(d):
        vec = [0] * (2 * d)
        vec[i] += 1
        vec[d + sh[i]] += 1
        vec[sv[i]] -= 1
        vec[d + i] -= 1
        faces.append(vec)
    return d1, faces


def old_homology_rank(o):
    """Reference rank of H_1 from the full chain complex: 2d - rank d1
    - rank d2 over all 2d edges.  homology_rank collapses a spanning
    tree instead and does a single elimination."""
    d1, faces = full_chain_complex(o)
    return 2 * o.d - la.rank_rational(d1) - la.rank_rational(faces)


def census(dmax):
    for d in range(1, dmax + 1):
        for sh in itertools.permutations(range(d)):
            for sv in itertools.permutations(range(d)):
                if perms.orbit_size([sh, sv], d) == d:
                    yield Origami(d, sh, sv)


def test_homology_rank_matches_the_two_rank_formula_on_the_census():
    checked = 0
    for o in census(5):
        assert homology_rank(o) == old_homology_rank(o), o
        checked += 1
    assert checked == 11520


def test_homology_rank_matches_the_two_rank_formula_on_large_origamis():
    rng = random.Random(61)
    origamis = [random_origami(rng, dmax=32) for _ in range(50)]
    origamis += [pillowcase_origami(n, (1, 1, 1, n - 3))
                 for n in range(4, 25, 2)]
    assert max(o.d for o in origamis) == 48
    for o in origamis:
        assert homology_rank(o) == old_homology_rank(o) == 2 * o.genus(), o


def test_homology_rank_examples():
    assert homology_rank(TORUS) == 2
    L3 = Origami(3, perms.parse_cycles("(1 2)", 3),
                 perms.parse_cycles("(1 3)", 3))
    assert homology_rank(L3) == 4
    assert homology_rank(pillowcase_origami(4, (1, 1, 1, 1))) == 6


# ---------------------------------------------------------- spanning tree


def round_sweep_tree(ends, nverts):
    """Reference: the spanning-tree sweep of `_chain_complex` that ran
    every round to its end and stopped only after a round added nothing.
    Returns (parent_edge, parent_sign, nontree)."""
    parent_edge = [None] * nverts
    parent_sign = [0] * nverts
    seen = [False] * nverts
    seen[0] = True
    grew = True
    tree = set()
    while grew:
        grew = False
        for e, (t, h) in enumerate(ends):
            if e in tree:
                continue
            if seen[t] and not seen[h]:
                w, sgn = h, 1
            elif seen[h] and not seen[t]:
                w, sgn = t, -1
            else:
                continue
            seen[w] = True
            tree.add(e)
            parent_edge[w] = e
            parent_sign[w] = sgn
            grew = True
    assert all(seen)
    return parent_edge, parent_sign, [e for e in range(len(ends))
                                      if e not in tree]


def test_early_stopping_sweep_builds_the_round_sweep_tree():
    rng = random.Random(71)
    origamis = list(census(4))
    origamis += [random_origami(rng, dmax=12) for _ in range(200)]
    origamis += [pillowcase_origami(s // 2, (1, 1, 1, s // 2 - 3))
                 for s in range(16, 65, 4)]
    nverts = set()
    for o in origamis:
        cx = _chain_complex(o)
        # the parent arrays, read off the reach-ordered tree, in which
        # each vertex comes after its parent
        parent_edge = [None] * cx.nverts
        parent_sign = [0] * cx.nverts
        reached = {0}
        for w, e, sgn in cx.tree:
            t, h = cx.ends[e]
            parent = t if sgn == 1 else h
            assert w == t + h - parent and w not in reached, o
            assert parent in reached, o
            reached.add(w)
            parent_edge[w] = e
            parent_sign[w] = sgn
        assert (parent_edge, parent_sign, cx.nontree) == \
            round_sweep_tree(cx.ends, cx.nverts), o
        nverts.add(cx.nverts)
    # one-vertex surfaces, which are not swept, and trees of many edges
    assert 1 in nverts and max(nverts) >= 6


# ------------------------------------------------------ intersection form


def cup(o, a, b):
    """The cocycle pairing on the sum of all faces, written out."""
    d, sh, sv = o.d, o.sigma_h, o.sigma_v
    return sum(a[i] * b[d + sh[i]] - a[d + i] * b[sv[i]] for i in range(d))


def old_intersection_form(o, cycles):
    """Reference J = -E Q^-1 E^T from a cocycle basis found without the
    Smith form: the kernel of the face boundaries, kept greedily where
    independent of the coboundaries (the rows of d1) and of the kept
    cocycles, then E evaluates them on the cycles and Q pairs them."""
    d1, faces = full_chain_complex(o)
    cocycles = la.kernel_rational(faces)
    # the pivot columns of [d1^T | cocycles^T] are the independent ones;
    # every other column is the last nonzero entry of a kernel vector
    dependent = {max(i for i, x in enumerate(v) if x)
                 for v in la.kernel_rational(la.transpose(d1 + cocycles))}
    alphas = [k for j, k in enumerate(cocycles, start=len(d1))
              if j not in dependent]
    assert len(alphas) == len(cycles)
    E = [[sum(a * x for a, x in zip(alpha, z)) for alpha in alphas]
         for z in cycles]
    Q = [[cup(o, a, b) for b in alphas] for a in alphas]
    adj, det = la._adjugate(Q)
    EQE = la.mat_mul(la.mat_mul(E, adj), la.transpose(E))
    assert all(x % det == 0 for row in EQE for x in row)
    return tuple(tuple(-(x // det) for x in row) for row in EQE)


def form_test_origamis():
    """The census up to d = 4 and seeded random origamis up to d = 32."""
    rng = random.Random(67)
    big = [random_origami(rng, dmax=32) for _ in range(12)]
    big += [pillowcase_origami(16, (1, 1, 1, 13))]
    return list(census(4)) + big


def test_intersection_form_matches_the_cocycle_kernel_oracle():
    origamis = form_test_origamis()
    assert len(origamis) == 456 + 13
    assert max(o.d for o in origamis) == 32
    for o in origamis:
        basis = homology_basis(o)
        assert basis.intersection == old_intersection_form(o, basis.cycles), o


def test_smith_cocycles_are_dual_to_the_basis_cycles():
    for o in form_test_origamis():
        basis = homology_basis(o)
        n = basis.rank
        cocycles = []
        for col in basis._coords:
            a = [0] * (2 * o.d)
            for e, x in zip(basis._nontree, col):
                a[e] = x
            cocycles.append(a)
        for a in cocycles:
            assert all(sum(map(operator.mul, a, b)) == 0
                       for b in basis.face_boundaries), o
        assert [[sum(map(operator.mul, a, z)) for a in cocycles]
                for z in basis.cycles] == la.identity_matrix(n), o
        Q = [[cup(o, a, b) for b in cocycles] for a in cocycles]
        minus_one = [[-x for x in row] for row in la.identity_matrix(n)]
        assert la.mat_mul(Q, mat_of(basis.intersection)) == minus_one, o


def count_calls(monkeypatch, module, names):
    calls = {name: [] for name in names}
    for name in names:
        def counted(*args, fn=getattr(module, name), name=name):
            calls[name].append(args)
            return fn(*args)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_basis_and_action_eliminate_once(monkeypatch):
    calls = count_calls(monkeypatch, la, ["smith_normal_form",
                                          "kernel_rational",
                                          "rank_rational"])
    o = pillowcase_origami(8, (1, 1, 1, 5))
    homology_basis(o)
    assert {k: len(v) for k, v in calls.items()} == {
        "smith_normal_form": 1, "kernel_rational": 0, "rank_rational": 0}
    w = lift_automorphism(CAT ** 3, o)
    for v in calls.values():
        v.clear()
    act = induced_action(w, o)
    assert {k: len(v) for k, v in calls.items()} == {
        "smith_normal_form": 1, "kernel_rational": 1, "rank_rational": 0}
    n = act.basis.rank
    assert calls["kernel_rational"][0][0] == [
        [x - (i == j) for j, x in enumerate(row)]
        for i, row in enumerate(act.matrix)]
    assert act.torelli_order == n - la.rank_rational(
        calls["kernel_rational"][0][0])


# ------------------------------------------------------- chain-level maps


def identity_witness(word_tokens, o):
    return LiftWitness(matrix=word_matrix(word_tokens),
                       word=tuple(word_tokens),
                       relabeling=perms.identity(o.d))


def test_group_relations_act_trivially_on_chains():
    # S^4, T T^-1 and (-I)^2 all return every origami to itself with
    # the identity relabeling, and their chain maps must be exactly 1:
    # pushing every unit edge vector gives back the same vector
    rng = random.Random(41)
    S, T, TI, N = GenToken.S, GenToken.T, GenToken.T_INV, GenToken.NEG_I
    for trial in range(40):
        o = random_origami(rng)
        units = la.identity_matrix(2 * o.d)
        for word in ([S, S, S, S], [T, TI], [TI, T], [N, N]):
            w = identity_witness(word, o)
            assert w.verify(o)
            assert _push_word(w, o, units) == units


def test_chain_map_preserves_boundaries_and_cycles():
    rng = random.Random(43)
    toks = list(GenToken)
    checked = 0
    for trial in range(40):
        o = random_origami(rng)
        word = [rng.choice(toks) for _ in range(rng.randrange(1, 6))]
        img = act_word(word, o)
        from minfol.origami import canonical_form
        c1, r1 = canonical_form(img)
        c0, r0 = canonical_form(o)
        if c0 != c1:
            continue
        r = perms.compose(perms.inverse(r0), r1)
        w = LiftWitness(matrix=word_matrix(word), word=tuple(word),
                        relabeling=r)
        if not w.verify(o):
            continue
        basis = homology_basis(o)
        for y in _push_word(w, o, basis.cycles):
            basis.decompose(y)  # raises if not a cycle
        boundaries = [b for b in basis.face_boundaries if any(b)]
        for y in _push_word(w, o, boundaries):
            assert basis.decompose(y) == (0,) * basis.rank
        # every edge is a straight segment, and the lift has derivative
        # the word's matrix: the image of an edge is displaced by that
        # matrix applied to the edge's own displacement
        units = la.identity_matrix(2 * o.d)
        A = word_matrix(word)
        for e, y in zip(units, _push_word(w, o, units)):
            assert displacement(o, y) == A.apply(displacement(o, e))
        checked += 1
    assert checked >= 15


# ---------------------------------------------------------- torus action


def test_torus_action_reproduces_the_matrix():
    rng = random.Random(47)
    toks = list(GenToken)
    seen = 0
    while seen < 25:
        A = word_matrix([rng.choice(toks)
                         for _ in range(rng.randrange(0, 14))])
        if abs(A.trace()) <= 2:
            continue
        seen += 1
        w = lift_automorphism(A, TORUS)
        assert w is not None
        act = induced_action(w, TORUS)
        basis = act.basis
        # express the action in the (h, v) coordinates of the torus
        cols = {}
        for j, z in enumerate(basis.cycles):
            cols[displacement(TORUS, z)] = [row[j] for row in act.matrix]
        h_img = cols[(1, 0)]
        v_img = cols[(0, 1)]
        out = {}
        for disp, col in (((1, 0), h_img), ((0, 1), v_img)):
            vec = [0, 0]
            for c, z in zip(col, basis.cycles):
                dz = displacement(TORUS, z)
                vec[0] += c * dz[0]
                vec[1] += c * dz[1]
            out[disp] = tuple(vec)
        assert out[(1, 0)] == (A.a, A.c)
        assert out[(0, 1)] == (A.b, A.d)


# ------------------------------------------------------------ wollmilchsau


def test_cat_action_on_wollmilchsau():
    w = lift_automorphism(CAT, WOLLMILCHSAU)
    act = induced_action(w, WOLLMILCHSAU)
    assert len(act.matrix) == 6
    assert act.symplectic
    M = mat_of(act.matrix)
    J = mat_of(act.basis.intersection)
    assert la.mat_eq(la.mat_mul(la.mat_mul(la.transpose(M), J), M), J)
    g = WOLLMILCHSAU.genus()
    assert act.torelli_order <= 2 * g - 2
    assert act.b1 == act.torelli_order + 1
    assert act.fixed_in_displacement_kernel


def test_induced_action_checks_the_form_once(monkeypatch):
    # homology_basis checks det Q = 1 with one forward pass, and the
    # action neither checks it again nor builds J
    w = lift_automorphism(CAT, WOLLMILCHSAU)
    calls = count_calls(monkeypatch, la, ["det_rational", "_adjugate"])
    act = induced_action(w, WOLLMILCHSAU)
    assert act.symplectic
    assert len(calls["det_rational"]) == 1 and calls["_adjugate"] == []
    assert calls["det_rational"][0][0] == mat_of(act.basis._pairing)
    assert "intersection" not in vars(act.basis)


def test_intersection_form_is_built_on_first_read():
    # J = -Q^-1, as homology_basis built it eagerly before: from the
    # adjugate of Q, with Q J = -I
    for o in form_test_origamis()[::8]:
        basis = homology_basis(o)
        assert "intersection" not in vars(basis)
        Q = mat_of(basis._pairing)
        adj, det = la._adjugate(Q)
        eager = tuple(tuple(-(x // det) for x in row) for row in adj)
        assert basis.intersection == eager, o
        assert basis.intersection is basis.intersection
        minus_one = [[-x for x in row] for row in la.identity_matrix(len(Q))]
        assert la.mat_mul(Q, mat_of(basis.intersection)) == minus_one, o
        # reading J changes neither equality nor the report
        fresh = homology_basis(o)
        assert fresh == basis and repr(fresh) == repr(basis)
        assert fresh.to_json() == basis.to_json()


def test_the_lazy_form_keeps_its_checks(monkeypatch):
    # stand-ins break one check of J each, after the basis is built
    fail_det, fail_sign, fail_div = [homology_basis(WOLLMILCHSAU)
                                     for _ in range(3)]
    monkeypatch.setattr(la, "det_rational", lambda M: 2)
    with pytest.raises(InternalError, match="intersection form has "
                                            "determinant 2, not 1"):
        fail_det.intersection
    monkeypatch.setattr(la, "_adjugate", lambda Q: ([[1] * len(Q)] * len(Q),
                                                    1))
    with pytest.raises(InternalError, match="is not antisymmetric"):
        fail_sign.intersection
    monkeypatch.setattr(la, "_adjugate", lambda Q: (Q, 2))
    with pytest.raises(InternalError, match="is not integral"):
        fail_div.intersection


def test_induced_action_rejects_stale_witness():
    w = lift_automorphism(CAT, WOLLMILCHSAU)
    other = relabel(WOLLMILCHSAU, perms.parse_cycles("(1 2)", 8))
    with pytest.raises(DomainError):
        induced_action(w, other)


BAD_WITNESSES = [
    # the word T moves the Wollmilchsau's gluings, and no relabeling
    # brings them back with the identity
    ((GenToken.T,), tuple(range(8)),
     "witness does not carry the origami to itself"),
    (tuple(decompose_st(CAT)), (0, 0, 1, 2, 3, 4, 5, 6),
     "relabeling is not a permutation of the squares"),
    (tuple(decompose_st(CAT)), tuple(range(7)),
     "relabeling is not a permutation of the squares"),
    ((GenToken.S, "R", GenToken.S), tuple(range(8)), "unknown token 'R'"),
]


@pytest.mark.parametrize("word,relabeling,message", BAD_WITNESSES,
                         ids=["word_moves_o", "relabeling_repeats",
                              "relabeling_too_short", "unknown_token"])
def test_induced_action_refuses_a_bad_witness(word, relabeling, message):
    w = LiftWitness(matrix=CAT, word=word, relabeling=relabeling)
    with pytest.raises(DomainError, match="^%s$" % re.escape(message)):
        induced_action(w, WOLLMILCHSAU)


EXPECTED_REFUSALS = [
    "DomainError: the left factor of a product needs rows of length 1",
    "DomainError: witness does not carry the origami to itself",
    "DomainError: relabeling is not a permutation of the squares",
    "DomainError: unknown token 'R'",
    "InternalError: Smith divisors 1 and 1 of A^2 - I do not multiply to "
    "|det| = 5",
    "InternalError: 1 distinct points fixed by A^2, not |det| = 5",
    "InternalError: det(A^1 - I) vanishes for the Anosov matrix (1 1; 0 1)",
]


def test_refusals_and_count_checks_survive_python_O():
    # under -O every assert is stripped (the script's own assert False
    # passes), but the bad-witness refusal, the mat_mul shape check and
    # the periodic-point count checks are explicit raises
    script = textwrap.dedent("""
        assert False
        from minfol import intlinalg, sl2z
        from minfol.errors import DomainError, InternalError
        from minfol.homology import induced_action
        from minfol.origami import WOLLMILCHSAU, LiftWitness
        from minfol.sl2z import GenToken, IntMatrix2

        def refusal(f, *args):
            try:
                f(*args)
            except (DomainError, InternalError) as e:
                return "%s: %s" % (type(e).__name__, e)
            return "accepted"

        cat = IntMatrix2(2, 1, 1, 1)
        print(refusal(intlinalg.mat_mul, [[1, 2]], [[1]]))
        for word, r in (((GenToken.T,), tuple(range(8))),
                        ((), tuple(range(7))),
                        (("R",), tuple(range(8)))):
            print(refusal(induced_action, LiftWitness(cat, word, r),
                          WOLLMILCHSAU))
        I = [[1, 0], [0, 1]]
        sl2z.smith_normal_form = lambda B: ([1, 1], I, I)
        print(refusal(sl2z.periodic_points, cat, 2))
        sl2z.smith_normal_form = lambda B: ([1, 5], [[0, 0], [0, 0]], I)
        print(refusal(sl2z.periodic_points, cat, 2))
        sl2z.classify = lambda A: sl2z.Anosov(None, None, None)
        print(refusal(sl2z.periodic_points, IntMatrix2(1, 1, 0, 1), 1))
    """)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("MINFOL_", "PYTHONOPTIMIZE"))}
    env["PYTHONPATH"] = str(pathlib.Path(minfol.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == EXPECTED_REFUSALS


def test_induced_actions_found_by_search_are_symplectic():
    rng = random.Random(53)
    candidates = [CAT, CAT ** 2, IntMatrix2(1, 1, 1, 2),
                  IntMatrix2(3, 2, 1, 1), IntMatrix2(5, 2, 2, 1)]
    hits = 0
    trials = 0
    while hits < 12 and trials < 400:
        trials += 1
        o = random_origami(rng, dmax=5)
        A = rng.choice(candidates)
        w = lift_automorphism(A, o)
        if w is None:
            continue
        hits += 1
        act = induced_action(w, o)
        M = mat_of(act.matrix)
        J = mat_of(act.basis.intersection)
        assert act.symplectic
        assert la.mat_eq(la.mat_mul(la.mat_mul(la.transpose(M), J), M), J)
        assert abs(la.det_rational(M)) == 1
        assert 0 <= act.torelli_order <= 2 * o.genus()
        # fixed classes of a hyperbolic lift have no net drift
        assert act.fixed_in_displacement_kernel
    assert hits >= 12


def test_identity_witness_fixes_everything():
    # empty word, identity relabeling: M = 1, so k = 2g; the fixed
    # classes include loops with nonzero drift around the base torus
    for o in (TORUS, WOLLMILCHSAU):
        w = identity_witness([], o)
        act = induced_action(w, o)
        assert la.mat_eq(mat_of(act.matrix),
                         la.identity_matrix(2 * o.genus()))
        assert act.torelli_order == 2 * o.genus()
        assert act.symplectic
        assert not act.fixed_in_displacement_kernel


def deck_transformations(o):
    out = []
    for r in itertools.permutations(range(o.d)):
        if perms.conjugate(o.sigma_h, r) == o.sigma_h and \
           perms.conjugate(o.sigma_v, r) == o.sigma_v:
            out.append(r)
    return out


def test_wollmilchsau_deck_action_on_homology():
    # the cover is normal with deck group of order 8; a nontrivial
    # deck transformation acts symplectically and fixes exactly the
    # rank-2 pullback of the base homology, which has nonzero drift
    decks = deck_transformations(WOLLMILCHSAU)
    assert len(decks) == 8
    ident = tuple(range(8))
    for r in decks:
        w = LiftWitness(matrix=IntMatrix2.identity(), word=(),
                        relabeling=r)
        act = induced_action(w, WOLLMILCHSAU)
        assert act.symplectic
        if r == ident:
            assert act.torelli_order == 6
        else:
            assert act.torelli_order == 2
            assert not act.fixed_in_displacement_kernel


# ---------------------------------------------------------- torelli order


def sympl_J(g):
    n = 2 * g
    J = [[0] * n for _ in range(n)]
    for i in range(g):
        J[i][g + i] = 1
        J[g + i][i] = -1
    return J


def test_torelli_order_identity_and_cat():
    for g in (1, 2, 3):
        n = 2 * g
        I = la.identity_matrix(n)
        k, b1, sympl = torelli_order(I, sympl_J(g))
        assert (k, b1, sympl) == (n, n + 1, True)
    k, b1, sympl = torelli_order([[2, 1], [1, 1]], sympl_J(1))
    assert (k, b1) == (0, 1)
    assert sympl


def test_torelli_order_invariant_under_base_change():
    rng = random.Random(59)
    M = [[2, 1], [1, 1]]
    J = sympl_J(1)
    base_k = torelli_order(M, J)[0]
    toks = list(GenToken)
    for trial in range(50):
        P = word_matrix([rng.choice(toks) for _ in range(8)])
        Pm = mat_of(P.rows())
        Pi = mat_of(P.inverse().rows())
        M2 = la.mat_mul(la.mat_mul(Pi, M), Pm)
        J2 = la.mat_mul(la.mat_mul(la.transpose(Pm), J), Pm)
        k2, b12, sympl2 = torelli_order(M2, J2)
        assert k2 == base_k and b12 == base_k + 1 and sympl2


def test_torelli_order_counts_fixed_space():
    # block diagonal: cat on one handle, identity on the other
    M = [[2, 1, 0, 0],
         [1, 1, 0, 0],
         [0, 0, 1, 0],
         [0, 0, 0, 1]]
    J = [[0, 1, 0, 0],
         [-1, 0, 0, 0],
         [0, 0, 0, 1],
         [0, 0, -1, 0]]
    k, b1, sympl = torelli_order(M, J)
    assert (k, b1, sympl) == (2, 3, True)


def test_torelli_order_validation():
    with pytest.raises(DomainError):
        torelli_order([[1, 0]], sympl_J(1))
    with pytest.raises(DomainError):
        torelli_order(la.identity_matrix(2), sympl_J(2))
    with pytest.raises(DomainError):
        torelli_order(la.identity_matrix(2), [[0, 1], [1, 0]])
    with pytest.raises(DomainError):
        torelli_order(la.identity_matrix(2), [[0, 2], [-2, 0]])


def test_torelli_order_detects_non_symplectic():
    M = [[1, 0], [0, 2]]
    k, b1, sympl = torelli_order(M, sympl_J(1))
    assert not sympl
    assert k == 1 and b1 == 2


def random_unimodular(rng, n, steps=12):
    P = la.identity_matrix(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        P[i] = [x + c * y for x, y in zip(P[i], P[j])]
    return P


def test_symplectic_check_agrees_with_the_matrix_product():
    # M^T J M = J, as torelli_order checks it, and M Q M^T = Q for the
    # pairing Q = -J^-1, as induced_action checks it, agree with the
    # product written out
    from minfol.homology import _preserves

    rng = random.Random(61)
    seen = set()
    for trial in range(120):
        g = rng.randrange(1, 5)
        n = 2 * g
        P = random_unimodular(rng, n)
        J = la.mat_mul(la.mat_mul(la.transpose(P), sympl_J(g)), P)
        # a product of symplectic transvections x -> x + c J(x, v) v
        M = la.identity_matrix(n)
        for _ in range(rng.randrange(4)):
            v = [rng.randrange(-2, 3) for _ in range(n)]
            Jv = [sum(map(operator.mul, row, v)) for row in J]
            c = rng.choice((-1, 1, 2))
            T = [[(k == i) + c * v[k] * Jv[i] for i in range(n)]
                 for k in range(n)]
            M = la.mat_mul(T, M)
        if trial % 2:
            M[rng.randrange(n)][rng.randrange(n)] += rng.choice((-1, 1))
        expected = la.mat_eq(
            la.mat_mul(la.mat_mul(la.transpose(M), J), M), J)
        adj, det = la._adjugate(J)
        assert det == 1
        Q = [[-x for x in row] for row in adj]
        assert la.mat_mul(Q, J) == [[-x for x in row]
                                    for row in la.identity_matrix(n)]
        assert _preserves(M, J) == expected
        assert _preserves(la.transpose(M), Q) == expected
        seen.add(expected)
    assert seen == {True, False}
