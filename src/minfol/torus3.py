"""Mapping-torus and foliated circle-bundle bookkeeping.

A surface bundle over the circle is pinned down by its fiber genus and
the isotopy class of the monodromy.  For torus fibers the trichotomy
of the monodromy matrix decides the model geometry of the total space;
for hyperbolic fibers the same three-way split runs through periodic,
reducible and stretch-factor classes.  Circle bundles over surfaces
carry an integer Euler number whose size against the base Euler
characteristic controls whether a foliation can be transverse to the
fibers.  Everything here is arithmetic on the summary data; nothing in
this module builds the manifolds themselves.
"""

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, InternalError
from . import intlinalg as la
from .sl2z import Anosov, Parabolic, Periodic, classify


class MonodromyClass(enum.Enum):
    PERIODIC = "periodic"
    REDUCIBLE = "reducible"
    ANOSOV = "anosov"
    PSEUDO_ANOSOV = "pseudo-anosov"


_STRETCH_CLASSES = (MonodromyClass.ANOSOV, MonodromyClass.PSEUDO_ANOSOV)


@dataclass(frozen=True)
class MonodromySummary:
    """Fiber genus plus the dynamical class of the gluing map.

    stretch is the expansion factor, required exactly for the Anosov
    and pseudo-Anosov classes; torelli_k, when known, is the dimension
    of the homology subspace the monodromy fixes.
    """
    genus: int
    kind: MonodromyClass
    stretch: object = None
    torelli_k: object = None

    def __post_init__(self):
        if self.genus < 1:
            raise DomainError("fiber genus must be at least 1")
        if self.kind == MonodromyClass.ANOSOV and self.genus != 1:
            raise DomainError("Anosov monodromy lives on the torus fiber")
        if self.kind == MonodromyClass.PSEUDO_ANOSOV and self.genus < 2:
            raise DomainError(
                "pseudo-Anosov monodromy needs a hyperbolic fiber")
        if self.kind in _STRETCH_CLASSES:
            if self.stretch is None:
                raise DomainError("stretch factor required for %s"
                                  % self.kind.value)
            if isinstance(self.stretch, float) and \
                    not math.isfinite(self.stretch):
                raise DomainError("stretch factor must be finite, got %r"
                                  % self.stretch)
            if not (self.stretch > 1):
                raise DomainError("stretch factor must exceed 1")
        elif self.stretch is not None:
            raise DomainError("%s monodromy has no stretch factor"
                              % self.kind.value)
        if self.torelli_k is not None:
            if not 0 <= self.torelli_k <= 2 * self.genus:
                raise DomainError("fixed-subspace dimension out of range")

    @property
    def b1(self):
        """First Betti number of the mapping torus, k + 1."""
        if self.torelli_k is None:
            raise DomainError("no fixed-subspace dimension recorded")
        return self.torelli_k + 1

    def to_json(self):
        out = {"genus": self.genus, "class": self.kind.value}
        if self.stretch is not None:
            out["stretch"] = (self.stretch.to_json()
                              if hasattr(self.stretch, "to_json")
                              else float(self.stretch))
        if self.torelli_k is not None:
            out["torelli_k"] = self.torelli_k
            out["b1"] = self.b1
        return out


def summary_from_matrix(A, torelli_k=None):
    """Monodromy summary of the torus bundle glued by an integer matrix."""
    c = classify(A)
    if isinstance(c, Periodic):
        return MonodromySummary(1, MonodromyClass.PERIODIC,
                                torelli_k=torelli_k)
    if isinstance(c, Parabolic):
        return MonodromySummary(1, MonodromyClass.REDUCIBLE,
                                torelli_k=torelli_k)
    if not isinstance(c, Anosov):
        raise InternalError("%s is classified as %r, not periodic, "
                            "parabolic or Anosov" % (A, c))
    return MonodromySummary(1, MonodromyClass.ANOSOV, stretch=c.stretch,
                            torelli_k=torelli_k)


FLAT_GROWTH_NOTE = ("flat geometry forces polynomial growth of the "
                    "fundamental group, which rules out foliations with "
                    "dense hyperbolic leaves; those need exponential growth")


@dataclass(frozen=True)
class GeometryResult:
    label: str
    note: str = ""

    def to_json(self):
        out = {"geometry": self.label}
        if self.note:
            out["note"] = self.note
        return out


def geometry_classify(m):
    """Model geometry of the mapping torus read off the monodromy class.

    Torus fiber: periodic gluings give the flat geometry, reducible
    ones contain an essential torus, and hyperbolic matrices give Sol.
    Hyperbolic fiber: periodic gives H^2 x R, reducible again leaves an
    essential torus, and pseudo-Anosov gives hyperbolic 3-space.
    """
    if m.genus == 1:
        if m.kind == MonodromyClass.PERIODIC:
            return GeometryResult("R^3", FLAT_GROWTH_NOTE)
        if m.kind == MonodromyClass.REDUCIBLE:
            return GeometryResult("incompressible torus")
        return GeometryResult("Sol")
    if m.kind == MonodromyClass.PERIODIC:
        return GeometryResult("H^2 x R")
    if m.kind == MonodromyClass.REDUCIBLE:
        return GeometryResult("incompressible torus")
    return GeometryResult("H^3")


class BundleSource(enum.Enum):
    SUSPENSION = "suspension"
    SURGERY = "surgery"


@dataclass(frozen=True)
class BundleData:
    """Circle bundle over a closed hyperbolic surface with its Euler
    number, tagged with how the bundle arose (suspension of a boundary
    representation, or cut-and-reglue along a fiber)."""
    base_genus: int
    euler_class: int
    source: BundleSource = BundleSource.SUSPENSION

    def __post_init__(self):
        if self.base_genus < 2:
            raise DomainError("base genus must be at least 2")

    @property
    def milnor_wood_ok(self):
        return abs(self.euler_class) <= 2 * self.base_genus - 2

    def to_json(self):
        return {
            "base_genus": self.base_genus,
            "euler_class": self.euler_class,
            "abs_euler_class": abs(self.euler_class),
            "source": self.source.value,
        }


BORDERLINE_NOTE = ("the bound is attained: a representation with this "
                   "Euler number is discrete and faithful")


@dataclass(frozen=True)
class EulerReport:
    geometry: str
    milnor_wood_ok: bool
    transverse_to_fibration_possible: bool
    abs_euler: int
    note: str = ""

    def to_json(self):
        out = {
            "geometry": self.geometry,
            "milnor_wood_ok": self.milnor_wood_ok,
            "transverse_to_fibration_possible":
                self.transverse_to_fibration_possible,
            "abs_euler_class": self.abs_euler,
        }
        if self.note:
            out["note"] = self.note
        return out


def euler_report(b):
    """Geometry and transversality verdict for a foliated circle bundle.

    The geometry only sees whether the Euler number vanishes; the
    transversality verdict is the Euler-number bound |e| <= 2g - 2,
    with the borderline case flagged.
    """
    e = b.euler_class
    bound = 2 * b.base_genus - 2
    geometry = "H^2 x R" if e == 0 else "SL(2,R)~"
    ok = abs(e) <= bound
    note = BORDERLINE_NOTE if (abs(e) == bound and e != 0) else ""
    return EulerReport(geometry=geometry, milnor_wood_ok=ok,
                       transverse_to_fibration_possible=ok,
                       abs_euler=abs(e), note=note)


MINIMALITY_REMARK = ("period rank at least 2 makes every leaf noncompact; "
                     "a foliation defined by a closed 1-form with dense "
                     "period group is minimal")


@dataclass(frozen=True)
class PeriodRank:
    rank: int
    leaf_cover_rank: int
    remark: str = ""

    def to_json(self):
        out = {"rank": self.rank, "leaf_cover_rank": self.leaf_cover_rank}
        if self.remark:
            out["remark"] = self.remark
        return out


def period_group_rank(periods):
    """Exact rank of the period group of a closed 1-form.

    Each period is a rational coordinate vector over an abstract basis
    of reals the caller declares independent; the rank is computed over
    Q, so the answer is exact.  The leaves of the kernel foliation are
    covers of compact leaves with deck group of rank one less.
    """
    rows = [list(p) for p in periods]
    if not rows:
        raise DomainError("no periods given")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise DomainError("period vectors must share one coordinate basis")
    rows = [[Fraction(x) for x in r] for r in rows]
    if all(all(x == 0 for x in r) for r in rows):
        raise DomainError("all periods vanish; the form defines no foliation")
    r = la.rank_rational(rows)
    remark = MINIMALITY_REMARK if r >= 2 else ""
    return PeriodRank(rank=r, leaf_cover_rank=r - 1, remark=remark)
