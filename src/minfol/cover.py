"""Branched covers of surfaces: Euler characteristic bookkeeping,
monodromy descriptions, and the cyclic pillowcase family.

A cover is described either by a ramification profile (the fibre of
ramification indices over each branch point) or by monodromy
permutations over a punctured base.  Euler characteristics follow
chi(cover) = degree * chi(base) - sum (e - 1) over all preimages.
"""

from dataclasses import dataclass
from math import gcd

from .errors import DomainError, InternalError
from . import permutations as perms


@dataclass(frozen=True)
class BranchPoint:
    label: str
    fibre: tuple  # ramification indices over this point, sorted descending

    def __post_init__(self):
        if not self.fibre or any(e < 1 for e in self.fibre):
            raise DomainError("fibre indices must be positive integers")
        object.__setattr__(self, "fibre",
                           tuple(sorted(self.fibre, reverse=True)))


@dataclass(frozen=True)
class RamificationProfile:
    degree: int
    branch_points: tuple

    def __post_init__(self):
        if self.degree < 1:
            raise DomainError("degree must be positive")
        object.__setattr__(self, "branch_points", tuple(self.branch_points))
        for bp in self.branch_points:
            if sum(bp.fibre) != self.degree:
                raise DomainError(
                    "fibre %s over %s sums to %d, degree is %d"
                    % (bp.fibre, bp.label, sum(bp.fibre), self.degree))

    def total_branching(self):
        return sum(e - 1 for bp in self.branch_points for e in bp.fibre)

    def to_json(self):
        return {
            "degree": self.degree,
            "branch_points": [
                {"label": bp.label, "fibre": list(bp.fibre)}
                for bp in self.branch_points
            ],
        }


def riemann_hurwitz_chi(base_chi, profile):
    """chi of the covering surface from chi of the base and a profile."""
    return profile.degree * base_chi - profile.total_branching()


_BASES = {"torus": 0, "sphere": 2}


@dataclass(frozen=True)
class CoverSpec:
    """Monodromy description of a branched cover of a torus or sphere.

    For a torus with punctures p1..pn the free generators are m, p and
    the loops alpha_2..alpha_n; alpha_1 is determined by the relation
    alpha_1 * ... * alpha_n * [m, p] = 1 (loops composed left to
    right as functions, rightmost applied first).  The stored monodromy
    includes alpha_1 and is checked against that relation.  For a
    sphere the generators are gamma_1..gamma_n with product 1.  The
    generators must reach every sheet from sheet 1 (orbit_size).
    """
    base: str
    degree: int
    punctures: tuple
    monodromy: dict

    def __post_init__(self):
        if self.base not in _BASES:
            raise DomainError("base must be 'torus' or 'sphere'")
        object.__setattr__(self, "punctures", tuple(self.punctures))
        n = len(self.punctures)
        if n < 1:
            raise DomainError("need at least one puncture")
        keys = (["m", "p"] if self.base == "torus" else []) + \
            [self._loop_key(i) for i in range(1, n + 1)]
        for key in keys:
            if key not in self.monodromy:
                raise DomainError("missing monodromy for %s" % key)
            if not perms.is_perm(self.monodromy[key], self.degree):
                raise DomainError("monodromy for %s is not a permutation "
                                  "of %d sheets" % (key, self.degree))
        w = perms.identity(self.degree)
        for i in range(1, n + 1):
            w = perms.compose(w, self.monodromy[self._loop_key(i)])
        if self.base == "torus":
            m, p = self.monodromy["m"], self.monodromy["p"]
            comm = perms.compose(
                perms.compose(m, p),
                perms.compose(perms.inverse(m), perms.inverse(p)))
            w = perms.compose(w, comm)
        if w != perms.identity(self.degree):
            raise DomainError("monodromy violates the surface group "
                              "relation (product of loops is not 1)")
        gens = [self.monodromy[k] for k in keys]
        k = perms.orbit_size(gens, self.degree)
        if k < self.degree:
            raise DomainError("the cover is not connected: sheet 1 reaches "
                              "%d of %d sheets" % (k, self.degree))

    def _loop_key(self, i):
        return ("alpha_%d" if self.base == "torus" else "gamma_%d") % i

    def loop_monodromy(self, i):
        return self.monodromy[self._loop_key(i)]

    def ramification_profile(self):
        bps = []
        for i, label in enumerate(self.punctures, start=1):
            sigma = self.loop_monodromy(i)
            fibre = tuple(perms.cycle_lengths(sigma))
            bps.append(BranchPoint(label, fibre))
        return RamificationProfile(self.degree, tuple(bps))

    def chi(self):
        return riemann_hurwitz_chi(_BASES[self.base],
                                   self.ramification_profile())

    def genus(self):
        chi = self.chi()
        if chi % 2:
            raise InternalError("the cover has odd Euler characteristic %d"
                                % chi)
        return (2 - chi) // 2

    def to_json(self):
        return {
            "base": self.base,
            "degree": self.degree,
            "punctures": list(self.punctures),
            "monodromy": {
                k: perms.format_cycles(v) for k, v in sorted(self.monodromy.items())
            },
        }


def build_double_cover(n):
    """Double cover of the torus branched over n points, n even.

    Every loop around a branch point gets the transposition (1 2); the
    meridian and parallel act trivially.  The induced monodromy of the
    first loop is forced to (1 2) by the relation, which is why the
    number of branch points must be even.  The covering surface has
    genus n/2 + 1.  n above MAX_BRANCH_POINTS is refused.
    """
    _check_branch_points(n, "build_double_cover builds")
    if n < 2:
        raise DomainError("need at least two branch points")
    if n % 2 != 0:
        raise DomainError(
            "parity obstruction: an odd number of branch points leaves "
            "no consistent double-cover monodromy")
    flip = (1, 0)
    ident = (0, 1)
    monodromy = {"m": ident, "p": ident}
    for i in range(1, n + 1):
        monodromy["alpha_%d" % i] = flip
    return CoverSpec(
        base="torus",
        degree=2,
        punctures=tuple("p%d" % i for i in range(1, n + 1)),
        monodromy=monodromy,
    )


@dataclass(frozen=True)
class PillowcaseCover:
    genus: int
    torus_profile: object  # RamificationProfile or None


def _pillowcase_check(d, a):
    if d < 1:
        raise DomainError("degree must be positive")
    if len(a) != 4:
        raise DomainError("need exactly four branch parameters")
    problems = []
    for i, ai in enumerate(a, start=1):
        if not (0 < ai <= d):
            problems.append("a_%d = %d is outside (0, %d]" % (i, ai, d))
    g = d
    for ai in a:
        g = gcd(g, ai)
    if g != 1:
        problems.append("gcd(d, a_1..a_4) = %d, need 1" % g)
    if sum(a) % d != 0:
        problems.append("sum a_i = %d is not divisible by d = %d"
                        % (sum(a), d))
    if problems:
        raise DomainError("inadmissible parameters: " + "; ".join(problems))


def pillowcase_genus(d, a):
    """Genus of the degree-d cyclic cover of the flat sphere branched
    over the four pillowcase corners with rotation numbers a_1..a_4.

    genus = d + 1 - (1/2) sum gcd(d, a_i).  When d is even and every
    a_i is odd with gcd(d, a_i) = 1 the cover is a translation surface
    and is also a 2d-fold cover of the square torus branched over one
    point with four ramification points of index d/2; that profile is
    attached in this case.
    """
    a = tuple(a)
    _pillowcase_check(d, a)
    chi = sum(gcd(d, ai) for ai in a) - 2 * d
    if chi % 2:
        raise InternalError("the pillowcase cover (d = %d, a = %s) has odd "
                            "Euler characteristic %d" % (d, list(a), chi))
    genus = (2 - chi) // 2
    torus_profile = None
    if d % 2 == 0 and all(ai % 2 == 1 for ai in a) \
            and all(gcd(d, ai) == 1 for ai in a):
        torus_profile = RamificationProfile(
            degree=2 * d,
            branch_points=(BranchPoint("p", (d // 2,) * 4),))
        torus_chi = riemann_hurwitz_chi(0, torus_profile)
        if torus_chi != chi:
            raise InternalError("the torus profile of the pillowcase cover "
                                "gives chi = %d, not %d" % (torus_chi, chi))
    return PillowcaseCover(genus=genus, torus_profile=torus_profile)


def pillowcase_sphere_profile(d, a):
    """Degree-d profile over the sphere: gcd(d, a_i) points of index
    d / gcd(d, a_i) over the i-th corner.  More than
    permutations.MAX_POINTS ramification points are refused before any
    fibre is built."""
    a = tuple(a)
    _pillowcase_check(d, a)
    points = sum(gcd(d, ai) for ai in a)
    if points > perms.MAX_POINTS:
        raise DomainError("%d ramification points is more than the %d that "
                          "pillowcase_sphere_profile lists"
                          % (points, perms.MAX_POINTS))
    bps = []
    for i, ai in enumerate(a, start=1):
        g = gcd(d, ai)
        bps.append(BranchPoint("z%d" % i, (d // g,) * g))
    return RamificationProfile(d, tuple(bps))


@dataclass(frozen=True)
class GrowthCertificate:
    chi_bound: int
    chi_sequence: tuple

    def to_json(self):
        return {"chi_bound": self.chi_bound,
                "chi_sequence": list(self.chi_sequence)}


# leaf_genus_growth certifies at most this many branch points: its chi
# sequence holds one entry per point
MAX_BRANCH_POINTS = 10 ** 5


def _check_branch_points(k, what="leaf_genus_growth certifies"):
    """Refuse k above MAX_BRANCH_POINTS, before any work starts; `what`
    ends the message with the function and what it does."""
    if k > MAX_BRANCH_POINTS:
        raise DomainError("%d branch points is more than the %d that %s"
                          % (k, MAX_BRANCH_POINTS, what))


def _check_stages(d, k):
    """The first checks of leaf_genus_growth and its general form."""
    _check_branch_points(k)
    if k < 1:
        raise DomainError("need at least one branch point")
    if d < 1:
        raise DomainError("degree must be positive")


def leaf_genus_growth(d, per_point, k):
    """Euler characteristic certificate for iterated branched covers of
    disks.

    The k-th stage covers a disk (chi = 1) with degree d, branched over
    points 1..k where point i contributes d_i ramification points of
    index e_i.  per_point is a list of (d_i, e_i) pairs, either one per
    point or a single pair reused for every point, whose one fibre list
    is then passed k times.  A pair is read as its chi step d_i(e_i - 1),
    not as its d_i indices.  Returns the bound chi <= d - k together
    with the full chi sequence, which decreases strictly.  k above
    MAX_BRANCH_POINTS is refused, and every pair is checked, d_i * e_i
    <= d too, before any fibre is built.
    """
    _check_stages(d, k)
    per_point = list(per_point)
    if per_point and isinstance(per_point[0], int):
        per_point = [tuple(per_point)]
    for entry in per_point:
        if len(entry) != 2:
            raise DomainError("per-point entry %s is not a (d_i, e_i) pair"
                              % (list(entry),))
    if len(per_point) not in (1, k):
        raise DomainError("need one (d_i, e_i) pair per branch point "
                          "(got %d pairs for k = %d)" % (len(per_point), k))
    for i, (di, ei) in enumerate(per_point, start=1):
        if ei < 2:
            raise DomainError("point %d: index e = %d is not a branch "
                              "point (need e >= 2)" % (i, ei))
        if di < 1:
            raise DomainError("point %d: need at least one ramification "
                              "point" % i)
        if di * ei > d:
            raise DomainError("point %d: %d sheets ramify but the degree "
                              "is %d" % (i, di * ei, d))
    # a fibre counts only through its chi step sum(e - 1) = d_i(e_i - 1),
    # which the one index d_i(e_i - 1) + 1 has too; it passes the same
    # checks, as it is at most d_i e_i, and takes no memory in d_i
    fibres = [[di * (ei - 1) + 1] for di, ei in per_point]
    if len(fibres) == 1:
        fibres *= k               # one pair reused: one list, k times
    return leaf_genus_growth_fibres(d, fibres, k)


def leaf_genus_growth_fibres(d, fibres, k):
    """General form of leaf_genus_growth: each branch point carries a
    list of ramification indices >= 2 (unramified sheets implied).

    A point given the same list object as the point before it reuses
    that list's checks and its chi step, so one fibre passed k times
    is read once.
    """
    _check_stages(d, k)
    if len(fibres) != k:
        raise DomainError("need one fibre per branch point")
    chi_sequence = []
    chi = d
    last = None
    for i, fibre in enumerate(fibres, start=1):
        if fibre is not last or i == 1:
            if not fibre:
                raise DomainError("point %d: no ramification indices" % i)
            if any(e < 2 for e in fibre):
                raise DomainError("point %d: ramification indices must be "
                                  ">= 2" % i)
            used = sum(fibre)
            if used > d:
                raise DomainError(
                    "point %d: %d sheets ramify but the degree is %d"
                    % (i, used, d))
            last, step = fibre, used - len(fibre)
        chi -= step
        chi_sequence.append(chi)
    bound = d - k
    for j, c in enumerate(chi_sequence, start=1):
        if c > d - j:
            raise InternalError("chi = %d after %d branch points exceeds "
                                "d - %d = %d" % (c, j, j, d - j))
        if j >= 2 and c >= chi_sequence[j - 2]:
            raise InternalError("chi = %d after %d branch points does not "
                                "drop below %d" % (c, j, chi_sequence[j - 2]))
    return GrowthCertificate(chi_bound=bound, chi_sequence=tuple(chi_sequence))
