"""Seeded inputs, operations and output checks for the census, surfaces
and dynamics workloads (the cli workload lives in cli_mix.py).

Every input comes from `random.Random` seeded with the workload name and
the `--seed` value, using the small permutation helpers below rather
than minfol itself, so the program under test only ever sees finished
inputs.  An op's `run` is the timed call into minfol; its `check` runs
afterwards, outside the timed region, and returns None or a reason.
Checks test invariants (rank = 2 * genus, exact fixed points, ...),
never bytes, so a report that legitimately changes shape still passes.
"""

import itertools
import math
import random
from fractions import Fraction
from functools import partial

from minfol import holonomy as hol
from minfol import homology as hom
from minfol import origami as ori
from minfol import sl2z


class Op:
    """One checked operation.  `replay` is an alternative runner used by
    traced passes (only the cli workload has one)."""

    __slots__ = ("kind", "run", "check", "known_defect", "replay")

    def __init__(self, kind, run, check, known_defect="", replay=None):
        self.kind = kind
        self.run = run
        self.check = check
        self.known_defect = known_defect
        self.replay = replay


class Workload:
    """A fixed op list plus checks over a whole pass.

    `pass_checks(tally)` gets the dict the op checks filled during the
    pass and returns (label, ok) pairs."""

    def __init__(self, name, ops, pass_checks=None):
        self.name = name
        self.ops = ops
        self.pass_checks = pass_checks or (lambda tally: [])


def rng_for(workload, seed):
    return random.Random("%s/%d" % (workload, seed))


# ------------------------------------------------ permutation helpers
# Same conventions as minfol.permutations: tuples of images, and
# compose(p, q) applies q first.

def compose(p, q):
    return tuple(p[x] for x in q)


def inverse(p):
    inv = [0] * len(p)
    for x, y in enumerate(p):
        inv[y] = x
    return tuple(inv)


def cycle_lengths(p):
    seen = [False] * len(p)
    out = []
    for s in range(len(p)):
        n = 0
        while not seen[s]:
            seen[s] = True
            s = p[s]
            n += 1
        if n:
            out.append(n)
    return sorted(out)


def order(p):
    return math.lcm(*cycle_lengths(p))


def transitive(h, v):
    seen = {0}
    todo = [0]
    while todo:
        x = todo.pop()
        for y in (h[x], v[x]):
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return len(seen) == len(h)


def genus(h, v):
    """1 + (d - V)/2 with V the cycles of the corner walk h v h^-1 v^-1."""
    corner = compose(h, compose(v, compose(inverse(h), inverse(v))))
    return 1 + (len(h) - len(cycle_lengths(corner))) // 2


def act(token, h, v):
    """The generator actions of minfol.origami.sl2z_act, by token name."""
    if token == "T":
        return h, compose(v, inverse(h))
    if token == "T^-1":
        return h, compose(v, h)
    if token == "S":
        return inverse(v), h
    return inverse(h), inverse(v)  # -I


def perm_of_type(rng, lengths):
    labels = list(range(sum(lengths)))
    rng.shuffle(labels)
    img = [0] * len(labels)
    i = 0
    for n in lengths:
        cyc = labels[i:i + n]
        i += n
        for j, x in enumerate(cyc):
            img[x] = cyc[(j + 1) % n]
    return tuple(img)


def _partitions(n, largest):
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def cycle_types(d, max_order):
    """All cycle types of permutations of d points with order <= max_order."""
    return [t for t in _partitions(d, d) if math.lcm(*t) <= max_order]


def random_origami(rng, types, d, want_genus=None):
    """A transitive pair of permutations whose cycle types are drawn
    uniformly from `types`, optionally of a given genus."""
    while True:
        h = perm_of_type(rng, rng.choice(types))
        v = perm_of_type(rng, rng.choice(types))
        if transitive(h, v) and (want_genus is None
                                 or genus(h, v) == want_genus):
            return h, v


# ------------------------------------------------ 2x2 integer helpers

TOKEN_MATRIX = {"S": (0, -1, 1, 0), "T": (1, 1, 0, 1), "T^-1": (1, -1, 0, 1),
                "-I": (-1, 0, 0, -1)}


def mat2_mul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def mat2_pow(m, k):
    out = (1, 0, 0, 1)
    for _ in range(k):
        out = mat2_mul(out, m)
    return out


def random_sl2z(rng, tokens=("S", "T", "T^-1"), length=(3, 7)):
    m = (1, 0, 0, 1)
    for _ in range(rng.randint(*length)):
        m = mat2_mul(m, TOKEN_MATRIX[rng.choice(tokens)])
    return m


def random_hyperbolic(rng, max_trace=6):
    while True:
        m = random_sl2z(rng)
        if 3 <= abs(m[0] + m[3]) <= max_trace:
            return m


def periodic_count(m, n):
    a, b, c, d = mat2_pow(m, n)
    return abs(a + d - 2)


def check_periodic_points(m, n, count, points):
    """count = |tr(A^n) - 2| = number of points, each fixed by A^n mod 1."""
    want = periodic_count(m, n)
    if count != want or len(points) != want:
        return "periodic_points: count %d, %d points, |tr(A^n)-2| = %d" % (
            count, len(points), want)
    a, b, c, d = mat2_pow(m, n)
    if len(set(points)) != want:
        return "periodic_points: repeated points"
    for x, y in points:
        if (a * x + b * y - x).denominator != 1 or \
                (c * x + d * y - y).denominator != 1:
            return "periodic_points: (%s, %s) is not fixed by A^n" % (x, y)
    return None


def check_stabilizer_witness(x, k, b):
    """The witness x -> 2^k x + b fixes x exactly, and k is a multiple of
    ord_q(2) where x = p / (2^e q) with q odd (closed form of Stab(x))."""
    if Fraction(2) ** k * x + b != x:
        return "witness k=%d b=%s does not fix x=%s" % (k, b, x)
    q = x.denominator
    while q % 2 == 0:
        q //= 2
    m = 1
    while pow(2, m, q) != 1 % q:
        m += 1
    if k % m:
        return "witness k=%d is not a multiple of ord_%d(2) = %d" % (k, q, m)
    return None


# ------------------------------------------------ census

CAT = (2, 1, 1, 1)
# origamis with at most 5 squares to which the cat map lifts (a count of
# the exhaustive enumeration; a lift is a theorem, not a search result)
CENSUS_LIFTS = 271


def _census_run(d, h, v, cat):
    o = ori.Origami(d, h, v)
    g = o.genus()
    stratum = o.stratum()
    rank = hom.homology_rank(o)
    image_genera = [ori.sl2z_act(t, o).genus() for t in sl2z.GenToken]
    canon, r = ori.canonical_form(o)
    witness = ori.lift_automorphism(cat, o)
    return o, g, stratum, rank, image_genera, canon, r, witness


def _census_check(out, tally):
    o, g, stratum, rank, image_genera, canon, r, witness = out
    if rank != 2 * g:
        return "homology_rank %d != 2 * genus %d" % (rank, g)
    if g != genus(o.sigma_h, o.sigma_v):
        return "genus %d disagrees with the corner walk" % g
    if any(x != g for x in image_genera):
        return "image genera %s != %d" % (image_genera, g)
    if sum(stratum) != o.d or len(stratum) != o.d + 2 - 2 * g:
        return "stratum %s does not fit d=%d, genus %d" % (stratum, o.d, g)
    for x in range(o.d):
        if canon.sigma_h[r[x]] != r[o.sigma_h[x]] or \
                canon.sigma_v[r[x]] != r[o.sigma_v[x]]:
            return "canonical_form relabeling does not conjugate"
    if witness is not None:
        tally["lifts"] = tally.get("lifts", 0) + 1
        if not witness.verify(o):
            return "lift witness fails verify"
    return None


def census(seed):
    """All 11,520 transitive pairs with d <= 5; the seed shuffles them."""
    rng = rng_for("census", seed)
    cat = sl2z.IntMatrix2(*CAT)
    pairs = [(d, h, v) for d in range(1, 6)
             for h in itertools.permutations(range(d))
             for v in itertools.permutations(range(d)) if transitive(h, v)]
    rng.shuffle(pairs)
    ops = [Op("d=%d" % d, partial(_census_run, d, h, v, cat), _census_check)
           for d, h, v in pairs]

    def pass_checks(tally):
        lifts = tally.get("lifts", 0)
        return [("census lifts %d == %d" % (lifts, CENSUS_LIFTS),
                 lifts == CENSUS_LIFTS)]

    return Workload("census", ops, pass_checks)


# ------------------------------------------------ surfaces

# (squares, how many).  Many small surfaces put p50 on d=8; with 54 ops
# the tail (p81, 10 beyond) is the 11th slowest, inside the d=16 group.
# A pass stays short enough that a run can take the median of several.
SURFACE_MIX = ((8, 40), (16, 12), (24, 1), (32, 1))
SURFACE_MAX_ORDER = 60


def _surface_run(d, h, v, A):
    o = ori.Origami(d, h, v)
    w = ori.lift_automorphism(A, o)
    act = hom.induced_action(w, o)
    return o, w, act, hom.homology_rank(o)


def _surface_check(g, out, tally):
    o, w, act, rank = out
    if w is None:
        return "A = T^p L^q fixes the gluings but no lift was found"
    if not w.verify(o):
        return "lift witness fails verify"
    basis = act.basis
    if not (basis.rank == 2 * g == rank):
        return "basis rank %d, homology_rank %d, 2 * genus %d" % (
            basis.rank, rank, 2 * g)
    M = act.matrix
    J = basis.intersection
    n = len(M)
    JM = [[sum(J[i][t] * M[t][j] for t in range(n)) for j in range(n)]
          for i in range(n)]
    MtJM = [[sum(M[t][i] * JM[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)]
    if not act.symplectic or MtJM != [list(r) for r in J]:
        return "action does not preserve the intersection form"
    k = act.torelli_order
    if k > 2 * g - 2 or act.b1 != k + 1:
        return "torelli order %d, b1 %d, genus %d" % (k, act.b1, g)
    if not act.fixed_in_displacement_kernel:
        return "a fixed class has nonzero displacement"
    return None


def surfaces(seed):
    """Random origamis of genus d/2 - 1, each with A = [[1+pq, p], [q, 1]]
    for p = ord(sigma_h), q = ord(sigma_v): T^p and L^q fix the gluings,
    so A always lifts.  Fixing the genus per size keeps the homology
    problem the same size from seed to seed."""
    rng = rng_for("surfaces", seed)
    ops = []
    for d, count in SURFACE_MIX:
        types = cycle_types(d, SURFACE_MAX_ORDER)
        g = d // 2 - 1
        for _ in range(count):
            h, v = random_origami(rng, types, d, g)
            p, q = order(h), order(v)
            A = sl2z.IntMatrix2(1 + p * q, p, q, 1)
            ops.append(Op("d=%d" % d, partial(_surface_run, d, h, v, A),
                          partial(_surface_check, g)))
    rng.shuffle(ops)
    return Workload("surfaces", ops)


# ------------------------------------------------ dynamics

BS12 = ("aff:k=1,b=0", "aff:k=0,b=1")   # x -> 2x and x -> x + 1
STABILIZER_LEN = 8
ORBIT_STEPS = 10 ** 5
ORBIT_EPS = 1e-3
ROTNUM_STEPS = 20000
PERIODIC_MAX_COUNT = 500
# The three ROADMAP baseline rows this workload reproduces as extra ops:
# op kind -> (per-layer metric, the span that times the library call).
ROADMAP_OPS = {
    "roadmap stabilizer": ("roadmap.stabilizer_x-1_len8_s",
                           "holonomy.stabilizer_search"),
    "roadmap orbit": ("roadmap.orbit_dbl_rot_1e6_s", "holonomy.orbit_density"),
    "roadmap periodic": ("roadmap.periodic_points_cat_10_s",
                         "sl2z.periodic_points"),
}
# Op counts.  Sorted by cost: periodic < rotnum < orbit < stabilizer <
# the 10^6-step orbit and periodic_points(cat, 10).  p50 falls inside the
# uniform-cost rotnum group, and the tail (p88, 10 beyond) is the 9th
# slowest of 29 stabilizer searches, whose cost varies with x.
DYNAMICS_MIX = {"stabilizer": 28, "orbit": 10, "rotnum": 25, "periodic": 24}


def _stabilizer_run(x):
    gens = [hol.parse_generator(s) for s in BS12]
    return hol.stabilizer_search(gens, x, STABILIZER_LEN)


def _stabilizer_check(x, rep, tally):
    for w in rep.witnesses:
        err = check_stabilizer_witness(x, w.composite.k, w.composite.b)
        if err:
            return err
    want = "cyclic" if rep.witnesses else "trivial"
    if rep.structure != want or rep.counterexample is not None:
        return "structure %r with %d witnesses" % (rep.structure,
                                                    len(rep.witnesses))
    return None


def _orbit_run(spec, start, steps, seed):
    gens = [hol.parse_generator(s) for s in spec]
    return hol.orbit_density(gens, start, steps, ORBIT_EPS, seed)


def _orbit_check(steps, stats, tally):
    if stats.n_steps != steps:
        return "n_steps %d != %d" % (stats.n_steps, steps)
    # steps + 1 points on a circle of length 1 leave a gap >= 1/(steps+1)
    if not 1.0 / (steps + 1) <= stats.max_gap <= 1.0:
        return "max_gap %r outside [1/(n+1), 1]" % stats.max_gap
    if stats.epsilon_dense != (stats.max_gap < ORBIT_EPS):
        return "epsilon_dense flag disagrees with max_gap"
    return None


def _rotnum_run(mob, angle):
    M = hol.parse_generator(mob)
    word = [M, hol.Rotation(angle), M.inverse()]
    return hol.rotation_number(word, ROTNUM_STEPS)


def _rotnum_check(angle, rep, tally):
    # a conjugate of the rotation by angle has rotation number angle,
    # and the Birkhoff average is within 1/n of it
    if rep.error != 1.0 / ROTNUM_STEPS:
        return "error %r != 1/n" % rep.error
    gap = abs(rep.value - angle) % 1.0
    if min(gap, 1.0 - gap) > rep.error + 1e-9:
        return "rotation number %r, expected %r" % (rep.value, angle)
    return None


def _periodic_run(m, n):
    return sl2z.periodic_points(sl2z.IntMatrix2(*m), n)


def _periodic_check(m, n, out, tally):
    return check_periodic_points(m, n, out[0], out[1])


def random_dyadic_odd(rng):
    """p / (2^e q) with q a small odd number, gcd(p, q) = 1, p odd if e > 0."""
    q = rng.choice((1, 3, 5, 7, 9, 11, 13, 15))
    e = rng.randint(0, 2)
    while True:
        p = rng.randint(-9, 9)
        if p and math.gcd(p, q) == 1 and (e == 0 or p % 2):
            return Fraction(p, 2 ** e * q)


def random_mobius(rng):
    """mob: spec of a positive-determinant integer matrix with small entries."""
    while True:
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        if a * d - b * c > 0:
            return "mob:%d,%d,%d,%d" % (a, b, c, d)


def dynamics(seed):
    rng = rng_for("dynamics", seed)
    ops = []
    for _ in range(DYNAMICS_MIX["stabilizer"]):
        x = random_dyadic_odd(rng)
        ops.append(Op("stabilizer", partial(_stabilizer_run, x),
                      partial(_stabilizer_check, x)))
    for i in range(DYNAMICS_MIX["orbit"]):
        angle = rng.uniform(0.05, 0.95)
        first = "dbl" if i % 2 == 0 else random_mobius(rng)
        spec = (first, "rot:%r" % angle)
        ops.append(Op("orbit", partial(_orbit_run, spec, rng.random(),
                                       ORBIT_STEPS, rng.randrange(2 ** 32)),
                      partial(_orbit_check, ORBIT_STEPS)))
    for _ in range(DYNAMICS_MIX["rotnum"]):
        angle = rng.uniform(0.05, 0.95)
        ops.append(Op("rotnum", partial(_rotnum_run, random_mobius(rng), angle),
                      partial(_rotnum_check, angle)))
    for _ in range(DYNAMICS_MIX["periodic"]):
        while True:
            m = random_hyperbolic(rng)
            ns = [n for n in range(1, 11)
                  if periodic_count(m, n) <= PERIODIC_MAX_COUNT]
            if ns:
                break
        n = rng.choice(ns)
        ops.append(Op("periodic", partial(_periodic_run, m, n),
                      partial(_periodic_check, m, n)))
    # ROADMAP baseline rows, reproduced with their published inputs
    x = Fraction(-1)
    ops.append(Op("roadmap stabilizer", partial(_stabilizer_run, x),
                  partial(_stabilizer_check, x)))
    ops.append(Op("roadmap orbit",
                  partial(_orbit_run, ("dbl", "rot:0.41421356"), 0.1,
                          10 ** 6, 7),
                  partial(_orbit_check, 10 ** 6)))
    ops.append(Op("roadmap periodic", partial(_periodic_run, CAT, 10),
                  partial(_periodic_check, CAT, 10)))
    rng.shuffle(ops)
    return Workload("dynamics", ops)
