"""sha256 digests pin the exact output of the homology, kernel and
stabilizer code on seeded sweeps.

The homology digest was captured from the Fraction row-reduction code
that the fraction-free elimination kernel replaced.  H_1 coordinates,
reduced echelon forms and primitive kernel vectors are unique, so any
change in those bytes is a change of answer, not of representation.

The stabilizer digest was captured from the search that extended every
reduced free word.  It covers the witness words themselves, their
order, the primitive and the residual, so it also pins which word the
search keeps for each affine map.

The lift digest was captured from the code that canonicalised every
origami before comparing.  It covers the cat-map lift witness (or None)
of every origami with at most 5 squares, and the canonical form and
relabeling of a seeded sweep up to 64 squares, including origamis with
many automorphisms, where several roots tie and the first least root
must win.

The dynamics digest was captured from the orbit, rotation-number and
periodic-point code that dispatched on the generator type at every
step and enumerated periodic points as Fraction pairs.  Orbit gaps and
rotation numbers are floats, pinned through their repr (json.dumps
writes floats by repr), so any change in the order or kind of float
operations shows.
`PYTHONPATH=src python tests/test_pinned_outputs.py` prints all four
digests.
"""

import hashlib
import itertools
import json
import random
from fractions import Fraction

from minfol import intlinalg as la
from minfol import permutations as perms
from minfol.holonomy import (orbit_density, parse_generator,
                             rotation_number, stabilizer_search)
from minfol.homology import homology_basis, induced_action
from minfol.origami import (Origami, WOLLMILCHSAU, act_word, canonical_form,
                            lift_automorphism, pillowcase_origami, relabel)
from minfol.sl2z import GenToken, IntMatrix2, periodic_points

PINNED = "69b4e629a87e622016e8c0f603887c30f48d9cb5282205108313f75682c8c951"
PINNED_STABILIZER = (
    "9e497e81b5d46ed050c4a930c1efd42c83bbe80ca8da2d1a290c884d60f1c6ac")
PINNED_LIFT = (
    "9c4825de7e854b316b0a6789923fc99b8c9f03aaf392731153e8e997d8fdde11")
PINNED_DYNAMICS = (
    "f2dec0121c1bae0c7482f200a768dae1373ad81e0eaf0a02bcbef065c28dc939")
CENSUS_LIFTS = 271


def _order(p):
    k, q, e = 1, p, tuple(range(len(p)))
    while q != e:
        q = perms.compose(q, p)
        k += 1
    return k


def _sweep_origamis(rng):
    out = []
    while len(out) < 30:
        d = rng.randrange(2, 17)
        sh = list(range(d))
        sv = list(range(d))
        rng.shuffle(sh)
        rng.shuffle(sv)
        if perms.orbit_size([tuple(sh), tuple(sv)], d) == d:
            out.append(Origami(d, tuple(sh), tuple(sv)))
    return out


def _lifted(o):
    """A = T^p L^q with p, q the orders of the gluings, which always
    lifts; skipped when the word would be long."""
    p, q = _order(o.sigma_h), _order(o.sigma_v)
    if p + q > 40:
        return None
    return lift_automorphism(IntMatrix2(1 + p * q, p, q, 1), o)


def _random_matrix(rng, fractions):
    m, n = rng.randrange(1, 7), rng.randrange(1, 7)
    if fractions:
        return [[Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                 for _ in range(n)] for _ in range(m)]
    return [[rng.randrange(-3, 4) * rng.randrange(0, 2) for _ in range(n)]
            for _ in range(m)]


def sweep_record():
    rng = random.Random(20260601)
    rec = {"basis": [], "action": [], "kernel": []}
    surfaces = _sweep_origamis(rng) + [WOLLMILCHSAU] + [
        pillowcase_origami(n, (1, 1, 1, n - 3)) for n in range(4, 17, 2)]
    for o in surfaces:
        b = homology_basis(o)
        rec["basis"].append([b.cycles, b.intersection])
        w = _lifted(o)
        if w is not None:
            act = induced_action(w, o)
            rec["action"].append([act.matrix, act.torelli_order])
            M = act.matrix
            MI = [[M[i][j] - (i == j) for j in range(len(M))]
                  for i in range(len(M))]
            rec["kernel"].append(la.kernel_rational(MI))
    w = lift_automorphism(IntMatrix2(2, 1, 1, 1), WOLLMILCHSAU)
    act = induced_action(w, WOLLMILCHSAU)
    rec["action"].append([act.matrix, act.torelli_order])
    for trial in range(60):
        A = _random_matrix(rng, fractions=trial % 2 == 1)
        rec["kernel"].append(la.kernel_rational(A))
    return rec


def _gens(specs):
    return [parse_generator(s) for s in specs.split(";")]


BS12 = _gens("aff:k=1,b=0;aff:k=0,b=1")
# (generators, longest max_len swept); kept short where the group is
# close to free, whose ball grows like (2n - 1)^max_len for n generators
STABILIZER_SETS = [
    (BS12, 8),
    (_gens("aff:k=1,b=1/3;aff:k=0,b=1"), 7),
    (_gens("aff:k=1,b=0;aff:k=0,b=1;aff:k=-1,b=1/3"), 5),
    (_gens("aff:k=0,b=1"), 7),
    (_gens("aff:k=3,b=0;aff:k=5,b=0"), 6),
    (_gens("aff:k=2,b=1;aff:k=-1,b=1/5"), 6),
]


def stabilizer_record():
    rng = random.Random(20261018)
    rec = []
    for gens, top in STABILIZER_SETS:
        for _ in range(24 if gens is BS12 else 12):
            q = rng.choice([1, 3, 5, 7, 9, 15])
            x = Fraction(rng.randrange(-9, 10), 2 ** rng.randrange(3) * q)
            rec.append(stabilizer_search(gens, x, rng.randrange(1, top + 1))
                       .to_json())
    for x in (0.1, 1 / 3, -1 / 3, -0.75, 2.5):
        for max_len in (3, 6):
            for gens, _ in STABILIZER_SETS[:2]:
                rec.append(stabilizer_search(gens, x, max_len).to_json())
    for max_len in range(1, 9):
        rec.append(stabilizer_search(BS12, Fraction(-1), max_len).to_json())
    for max_len in range(1, 5):     # not cyclic until the 2x map appears
        rec.append(stabilizer_search(STABILIZER_SETS[4][0], Fraction(0),
                                     max_len).to_json())
    return rec


def census_origamis():
    """Every origami with at most 5 squares, in a fixed order."""
    for d in range(1, 6):
        for sh in itertools.permutations(range(d)):
            for sv in itertools.permutations(range(d)):
                if perms.orbit_size([sh, sv], d) == d:
                    yield Origami(d, sh, sv)


def _random_perm(rng, d):
    p = list(range(d))
    rng.shuffle(p)
    return tuple(p)


def _canonical_sweep(rng):
    """Random origamis up to 64 squares, then randomly relabeled
    origamis with many automorphisms: cyclic ones (every root ties),
    pillowcase models and the Wollmilchsau, and their S and T images."""
    out = []
    while len(out) < 40:
        d = rng.randrange(1, 65)
        sh, sv = _random_perm(rng, d), _random_perm(rng, d)
        if perms.orbit_size([sh, sv], d) == d:
            out.append(Origami(d, sh, sv))
    symmetric = [WOLLMILCHSAU] + [
        pillowcase_origami(n, (1, 1, 1, n - 3)) for n in range(4, 33, 4)]
    for d in (1, 2, 6, 12, 30, 64):
        k = rng.randrange(d)
        symmetric.append(Origami(d, tuple((i + 1) % d for i in range(d)),
                                 tuple((i + k) % d for i in range(d))))
    for o in symmetric:
        for word in ((), (GenToken.S,), (GenToken.T,)):
            img = act_word(word, o)
            out.append(relabel(img, _random_perm(rng, img.d)))
    return out


def lift_record():
    cat = IntMatrix2(2, 1, 1, 1)
    rec = {"census": [], "canonical": []}
    for o in census_origamis():
        w = lift_automorphism(cat, o)
        rec["census"].append(None if w is None else w.to_json())
    for o in _canonical_sweep(random.Random(20261118)):
        c, r = canonical_form(o)
        rec["canonical"].append([c.sigma_h, c.sigma_v, r])
    return rec


# fixed generator sets for the orbit sweep: every generator kind the
# circle step dispatches on, a scalar Mobius map (the exact identity)
# among them, and affine maps with k >= 0
ORBIT_SETS = [
    "dbl;rot:0.41421356",
    "rot:0.1;rot:0.7071067811865476",
    "aff:k=0,b=1/3;aff:k=1,b=1/5",
    "aff:k=2,b=0;rot:0.3",
    "mob:2,1,1,1;rot:0.25",
    "mob:3,0,0,3;dbl",
    "mob:1,1,0,1;mob:1,0,1,1;aff:k=1,b=-2/7",
    "aff:k=3,b=5/2;mob:0.6,-0.8,0.8,0.6;rot:-0.125",
]
PERIODIC_CASES = [((2, 1, 1, 1), 10), ((3, 2, 1, 1), 6), ((2, 3, 1, 2), 6),
                  ((5, 2, 2, 1), 5), ((-2, -1, -1, -1), 6),
                  ((1, 2, 1, 3), 6)]


def _random_mobius_spec(rng):
    while True:
        a, b, c, d = (round(rng.uniform(-3, 3), 3) for _ in range(4))
        if a * d - b * c > 0.1:
            return "mob:%r,%r,%r,%r" % (a, b, c, d)


def _random_circle_spec(rng, affine_k):
    kind = rng.randrange(4)
    if kind == 0:
        return "rot:%r" % rng.uniform(-2, 2)
    if kind == 1:
        return _random_mobius_spec(rng)
    if kind == 2:
        return "aff:k=%d,b=%d/%d" % (rng.choice(affine_k),
                                     rng.randrange(-20, 21),
                                     rng.randrange(1, 12))
    return "dbl" if 1 in affine_k else "rot:%r" % rng.random()


def dynamics_record():
    rng = random.Random(20261119)
    rec = {"orbit": [], "rotation": [], "periodic": []}
    sets = ORBIT_SETS + [
        ";".join(_random_circle_spec(rng, (0, 1, 2, 3))
                 for _ in range(rng.randrange(1, 5)))
        for _ in range(16)]
    for specs in sets:
        gens = _gens(specs)
        for n in (1, 7, 3000):
            start = rng.uniform(-3, 3)
            rec["orbit"].append([specs, repr(start), n, orbit_density(
                gens, start, n, rng.choice((1e-3, 0.05, 0.5)),
                rng.randrange(2 ** 64)).to_json()])
    words = ["rot:0.41421356", "rot:0.3;rot:0.45", "aff:k=0,b=1/4",
             "mob:1,1,0,1", "mob:2,1,1,1;rot:0.2;mob:1,-1,-1,2",
             "mob:3,0,0,3;aff:k=0,b=-5/3"] + [
        ";".join(_random_circle_spec(rng, (0,))
                 for _ in range(rng.randrange(1, 5)))
        for _ in range(14)]
    for specs in words:
        gens = _gens(specs)
        word = gens[0] if len(gens) == 1 else gens
        for n in (100, 2500):
            rec["rotation"].append(
                [specs, rotation_number(word, n).to_json()])
    for m, top in PERIODIC_CASES:
        for n in range(1, top + 1):
            count, pts = periodic_points(IntMatrix2(*m), n)
            rec["periodic"].append(
                [m, n, count, [[str(x), str(y)] for x, y in pts]])
    return rec


def _digest(rec):
    blob = json.dumps(rec, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def test_sweep_digest_is_pinned():
    assert _digest(sweep_record()) == PINNED


def test_stabilizer_digest_is_pinned():
    assert _digest(stabilizer_record()) == PINNED_STABILIZER


def test_lift_digest_is_pinned():
    rec = lift_record()
    assert len(rec["census"]) == 11520
    assert sum(w is not None for w in rec["census"]) == CENSUS_LIFTS
    assert _digest(rec) == PINNED_LIFT


def test_dynamics_digest_is_pinned():
    assert _digest(dynamics_record()) == PINNED_DYNAMICS


if __name__ == "__main__":
    rec = sweep_record()
    print(len(rec["basis"]), len(rec["action"]), len(rec["kernel"]))
    print(_digest(rec))
    rec = stabilizer_record()
    print(len(rec), sum(1 for r in rec if r["witnesses"]))
    print(_digest(rec))
    rec = lift_record()
    print(len(rec["census"]), sum(w is not None for w in rec["census"]),
          len(rec["canonical"]))
    print(_digest(rec))
    rec = dynamics_record()
    print(len(rec["orbit"]), len(rec["rotation"]),
          sum(r[2] for r in rec["periodic"]))
    print(_digest(rec))
