"""A sha256 digest pins the exact output of the homology and kernel
code on a seeded sweep.

The digest was captured from the Fraction row-reduction code that the
fraction-free elimination kernel replaced.  H_1 coordinates, reduced
echelon forms and primitive kernel vectors are unique, so any change
in the bytes below is a change of answer, not of representation.
`PYTHONPATH=src python tests/test_pinned_outputs.py` prints the digest.
"""

import hashlib
import json
import random
from fractions import Fraction

from minfol import intlinalg as la
from minfol import permutations as perms
from minfol.homology import homology_basis, induced_action
from minfol.origami import (Origami, WOLLMILCHSAU, lift_automorphism,
                            pillowcase_origami)
from minfol.sl2z import IntMatrix2

PINNED = "69b4e629a87e622016e8c0f603887c30f48d9cb5282205108313f75682c8c951"


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


def sweep_digest():
    blob = json.dumps(sweep_record(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def test_sweep_digest_is_pinned():
    assert sweep_digest() == PINNED


if __name__ == "__main__":
    rec = sweep_record()
    print(len(rec["basis"]), len(rec["action"]), len(rec["kernel"]))
    print(sweep_digest())
