"""Acceptance gate: the headline checks, one per test, each printing a
single pass/fail line with its timing (visible with pytest -s / -rA).
Budgets are wall-clock seconds."""

import itertools
import json
import random
import time
from fractions import Fraction

from minfol import permutations as perms
from minfol import intlinalg as la
from minfol.cli import run as cli_run
from minfol.cover import build_double_cover, leaf_genus_growth
from minfol.holonomy import (Rotation, Doubling, AffineLine, orbit_density,
                             stabilizer_search)
from minfol.homology import homology_rank, induced_action, torelli_order
from minfol.origami import (Origami, WOLLMILCHSAU, sl2z_act,
                            lift_automorphism)
from minfol.sl2z import (IntMatrix2, QuadraticIrrational, classify,
                         periodic_points, GenToken, word_matrix)
from minfol.torus3 import BundleData, euler_report

CAT = IntMatrix2(2, 1, 1, 1)


class criterion:
    def __init__(self, n, label, budget):
        self.n = n
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        verdict = "PASS" if exc_type is None and elapsed < self.budget \
            else "FAIL"
        print("acceptance %d %-28s %s  (%.2fs, budget %gs)"
              % (self.n, self.label, verdict, elapsed, self.budget))
        if exc_type is None:
            assert elapsed < self.budget, \
                "criterion %d overran its budget" % self.n
        return False


def test_criterion_1_pillowcase_genus(capsys):
    with criterion(1, "pillowcase cover", 1.0):
        code = cli_run(["cover", "pillowcase", "--d", "4",
                        "--a", "1,1,1,1"])
        out = capsys.readouterr().out
        assert code == 0
        res = json.loads(out)["results"]
        assert res["genus"] == 3
        prof = res["torus_profile"]
        assert prof["degree"] == 8
        assert len(prof["branch_points"]) == 1
        assert prof["branch_points"][0]["fibre"] == [2, 2, 2, 2]


def test_criterion_2_double_cover_family():
    with criterion(2, "double cover family", 1.0):
        for n in (2, 4, 6, 8):
            assert build_double_cover(n).genus() == n // 2 + 1


def test_criterion_3_cat_map_exact():
    with criterion(3, "cat map exact values", 1.0):
        c = classify(CAT)
        lam = c.stretch
        assert lam == QuadraticIrrational(3, 1, 5, 2)
        assert lam + lam.reciprocal() == 3
        count, pts = periodic_points(CAT, 1)
        assert count == 1 and pts == [(Fraction(0), Fraction(0))]
        count, pts = periodic_points(CAT, 2)
        assert count == 5
        brute = set()
        for i in range(5):
            for j in range(5):
                x = (Fraction(i, 5), Fraction(j, 5))
                y = (CAT ** 2).apply(x)
                if (y[0] - x[0]).denominator == 1 and \
                   (y[1] - x[1]).denominator == 1:
                    brute.add(x)
        assert set(pts) == brute


def test_criterion_4_wollmilchsau_pipeline():
    with criterion(4, "wollmilchsau pipeline", 10.0):
        o = WOLLMILCHSAU
        assert o.genus() == 3
        assert o.stratum() == (2, 2, 2, 2)   # four cone angles of 4 pi
        w = lift_automorphism(CAT, o)
        assert w is not None and w.verify(o)
        act = induced_action(w, o)
        assert len(act.matrix) == 6 and len(act.matrix[0]) == 6
        M = [list(r) for r in act.matrix]
        J = [list(r) for r in act.basis.intersection]
        assert la.mat_eq(la.mat_mul(la.mat_mul(la.transpose(M), J), M), J)
        assert act.symplectic
        assert act.torelli_order <= 4 == 2 * o.genus() - 2
        assert act.fixed_in_displacement_kernel


def test_criterion_5_homology_oracle_equivalence():
    with criterion(5, "homology rank oracle d<=5", 60.0):
        cache = {}

        def rank_of(o):
            key = (o.sigma_h, o.sigma_v)
            if key not in cache:
                cache[key] = homology_rank(o)
            return cache[key]

        checked = 0
        for d in range(1, 6):
            for sh in itertools.permutations(range(d)):
                for sv in itertools.permutations(range(d)):
                    if perms.orbit_size([sh, sv], d) != d:
                        continue
                    o = Origami(d, sh, sv)
                    g = o.genus()
                    assert rank_of(o) == 2 * g
                    for tok in GenToken:
                        img = sl2z_act(tok, o)
                        assert img.genus() == g
                        assert rank_of(img) == 2 * g
                    checked += 1
        assert checked == 11520


def test_criterion_6_torelli_betti_relations():
    with criterion(6, "torelli/betti relations", 5.0):
        for g in (1, 2, 3):
            n = 2 * g
            J = [[0] * n for _ in range(n)]
            for i in range(g):
                J[i][g + i] = 1
                J[g + i][i] = -1
            k, b1, sympl = torelli_order(la.identity_matrix(n), J)
            assert (k, b1, sympl) == (n, n + 1, True)
        J1 = [[0, 1], [-1, 0]]
        M = [[2, 1], [1, 1]]
        k, b1, sympl = torelli_order(M, J1)
        assert (k, b1, sympl) == (0, 1, True)
        rng = random.Random(2)
        toks = list(GenToken)
        for trial in range(100):
            P = word_matrix([rng.choice(toks) for _ in range(10)])
            Pm = [list(r) for r in P.rows()]
            Pi = [list(r) for r in P.inverse().rows()]
            M2 = la.mat_mul(la.mat_mul(Pi, M), Pm)
            J2 = la.mat_mul(la.mat_mul(la.transpose(Pm), J1), Pm)
            k2, b12, sympl2 = torelli_order(M2, J2)
            assert (k2, b12, sympl2) == (0, 1, True)


def test_criterion_7_euler_milnor_wood():
    with criterion(7, "euler/milnor-wood", 1.0):
        for e in range(-6, 7):
            rep = euler_report(BundleData(2, e))
            assert rep.transverse_to_fibration_possible == (abs(e) <= 2)
            assert rep.milnor_wood_ok == (abs(e) <= 2)
            assert rep.geometry == ("H^2 x R" if e == 0 else "SL(2,R)~")


def test_criterion_8_holonomy_dynamics():
    with criterion(8, "holonomy dynamics", 30.0):
        alpha = 2 ** 0.5 - 1
        stats = orbit_density([Rotation(alpha)], 0.0, 10 ** 4, 1e-2, 0)
        assert stats.max_gap < 1e-2
        hirsch = [Doubling(), Rotation(alpha)]
        stats = orbit_density(hirsch, 0.123, 10 ** 5, 1e-3, 42)
        assert stats.max_gap < 1e-3
        again = orbit_density(hirsch, 0.123, 10 ** 5, 1e-3, 42)
        assert again == stats
        gens = [AffineLine(1, Fraction(0)), AffineLine(0, Fraction(1))]
        rep = stabilizer_search(gens, Fraction(-1), 8)
        prim = rep.primitive.composite
        assert (prim.k, prim.b) == (1, Fraction(1))    # x -> 2x + 1
        assert rep.structure == "cyclic"
        assert rep.counterexample is None
        rep2 = stabilizer_search(gens, Fraction(-1), 8)
        assert rep2.to_json() == rep.to_json()


def test_criterion_9_leaf_growth_certificate():
    with criterion(9, "leaf growth certificate", 1.0):
        d, k = 2, 50
        cert = leaf_genus_growth(d, (1, 2), k)
        seq = cert.chi_sequence
        assert len(seq) == k
        for j, chi in enumerate(seq, start=1):
            assert chi <= d - j
        for prev, cur in zip(seq, seq[1:]):
            assert cur < prev


def test_criterion_10_classify_large_trace():
    # t - 2 and t + 2 are both prime, so the radical t^2 - 4 has no
    # factor that trial division below its cube root can find
    t = 10000455
    with criterion(10, "classify at trace 10^7", 2.0):
        c = classify(IntMatrix2(t - 1, 1, t - 2, 1))
        assert c.stretch == QuadraticIrrational(t, 1, (t - 2) * (t + 2), 2)
