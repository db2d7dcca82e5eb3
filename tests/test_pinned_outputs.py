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
`PYTHONPATH=src python tests/test_pinned_outputs.py` prints all three
digests.
"""

import hashlib
import itertools
import json
import random
from fractions import Fraction

from minfol import intlinalg as la
from minfol import permutations as perms
from minfol.holonomy import parse_generator, stabilizer_search
from minfol.homology import homology_basis, induced_action
from minfol.origami import (Origami, WOLLMILCHSAU, act_word, canonical_form,
                            lift_automorphism, pillowcase_origami, relabel)
from minfol.sl2z import GenToken, IntMatrix2

PINNED = "69b4e629a87e622016e8c0f603887c30f48d9cb5282205108313f75682c8c951"
PINNED_STABILIZER = (
    "9e497e81b5d46ed050c4a930c1efd42c83bbe80ca8da2d1a290c884d60f1c6ac")
PINNED_LIFT = (
    "9c4825de7e854b316b0a6789923fc99b8c9f03aaf392731153e8e997d8fdde11")
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
        if perms.is_transitive([tuple(sh), tuple(sv)], d):
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
                if perms.is_transitive([sh, sv], d):
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
        if perms.is_transitive([sh, sv], d):
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
