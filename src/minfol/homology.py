"""Integral homology of square-tiled surfaces and the symplectic
action of lifted torus maps.

The square complex of an origami with d squares has one face per
square, 2d edges (the bottom edge h_i and left edge v_i of each
square, oriented rightward and upward), and one vertex per cycle of
the corner-walk permutation.  Edge vectors live in Z^(2d) with h_i at
index i and v_i at index d + i.  A face boundary reads
h_i + v_(right of i) - h_(above i) - v_i.

H_1 is computed exactly from one chain-complex builder,
`_chain_complex`, shared by `homology_basis` and `homology_rank`: it
collapses a spanning tree of the 1-skeleton, kept once as the list of
vertices in the order the sweep reaches them, each with the edge to its
parent, and writes the face boundaries B in the coordinates of the
non-tree edges.  A cycle is the sum of the fundamental cycles of its
non-tree edges, so it is fixed by its non-tree coordinates y, and the
rank of H_1 is the number of non-tree edges minus rank B: one
elimination.  The basis quotients the cycle space by the face
boundaries through a Smith normal form of B and lifts the surviving
generators back to integer edge vectors.  With U B V = D the Smith form
of B and all r nonzero divisors equal to 1, the rows of V^-1 split into
r that span the boundaries and 2g that are the basis cycles; each is
closed through the tree in one pass over the list, leaves first.  Only
the column transform is used: the Smith form returns the divisors with
V and V^-1, built by the inverse of each column operation, so no
inversion is needed and U is never built.  The coordinates of a cycle
in the basis are y . V[:, r:], an integer dot product, and
`HomologyBasis.decompose` keeps those columns of V instead of solving.

The action of a lift on H_1 is one `origami._walk` of its witness
word: it carries the 2g basis cycles and the gluings through each run
of shears at once and through each other token singly, and it ends
with the check of `LiftWitness.verify`.  One kernel of M - I gives both
the dimension of the fixed space and the fixed classes whose drift on
the base torus is checked.  The action is symplectic when M Q M^T = Q
for the cocycle pairing Q, which is the same as M^T J M = J, so the
action never builds J.

The intersection form needs care.  Counting crossings of pushed-off
edge cycles fails at cone points, where a translated cycle no longer
closes up.  Instead we go through cohomology: cutting each square
along its up-diagonal gives a triangulated complex on which the
classical simplexwise product of 1-cochains is valid, and evaluating
it against the sum of all faces pairs cocycle classes:

    (a . b)[S] = sum_i a(h_i) b(v_right(i)) - a(v_i) b(h_above(i))

Poincare duality turns the pairing Q of a cocycle basis into the
intersection form of a cycle basis: J = -E Q^-1 E^T, where E evaluates
the cocycles on the cycles.  Any integral cocycle basis will do, and
the Smith form already holds the one dual to the basis cycles: the last
2g columns of V, read as functionals on the non-tree edges that vanish
on the tree edges.  They are cocycles, since B V = U^-1 D has zero
columns past r, so each vanishes on every face boundary.  A basis
cycle's non-tree coordinates are its row of V^-1, so V^-1 V = 1 makes E
the identity and J = -Q^-1.  Q itself is one dot product per pair of
cocycles, against the second one pre-permuted by the gluings.
`homology_basis` checks that Q is antisymmetric with determinant 1,
one forward elimination; then J = -Q^-1 is integral, antisymmetric and
of determinant 1 as well.  J is built on first read of
`HomologyBasis.intersection`, from the integer adjugate of Q with one
exact division by det Q, and checked again there.
Everything is integer or Fraction arithmetic; no floating point enters
this module.
"""

from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from operator import mul

from .errors import DomainError, InternalError
from . import intlinalg as la
from . import permutations as perms
from .origami import _walk, relabel


@dataclass(frozen=True)
class HomologyBasis:
    rank: int
    cycles: tuple        # rank integer vectors of length 2d
    face_boundaries: tuple
    # what decompose reads coordinates from: the (tail, head) vertices
    # of each edge, the non-tree edges, and the last rank columns of the
    # Smith transform V (one tuple per basis cycle, indexed like _nontree)
    _ends: tuple = field(compare=False, repr=False)
    _nontree: tuple = field(compare=False, repr=False)
    _coords: tuple = field(compare=False, repr=False)
    # the pairing Q of the cocycles dual to the cycles; J = -Q^-1
    _pairing: tuple = field(compare=False, repr=False)

    @cached_property
    def intersection(self):
        """The rank x rank intersection form J = -Q^-1 of the cycles,
        built on first read; the cycles and the complex fix it, so it is
        not a field and equality does not compare it."""
        # J = -adj(Q) / det(Q), and J is integral, so the division is
        # exact
        adj, det = la._adjugate(self._pairing)
        J = []
        for row in adj:
            if any(x % det for x in row):
                raise InternalError("the intersection form is not integral")
            J.append(tuple(-(x // det) for x in row))
        if not _antisymmetric(J):
            raise InternalError("the intersection form is not antisymmetric")
        if self.rank and la.det_rational(J) != 1:
            raise InternalError("the intersection form has determinant %s, "
                                "not 1" % la.det_rational(J))
        return tuple(J)

    def decompose(self, x):
        """Coordinates of the cycle x in this basis, modulo boundaries."""
        if len(x) != len(self._ends):
            raise DomainError("vector has length %d, not %d"
                              % (len(x), len(self._ends)))
        # d1 x, vertex by vertex; there are fewer vertices than edges
        net = [0] * len(x)
        for (t, h), xe in zip(self._ends, x):
            net[h] += xe
            net[t] -= xe
        if any(net):
            raise DomainError("vector is not a cycle of this complex")
        y = [x[e] for e in self._nontree]
        return tuple(sum(map(mul, y, col)) for col in self._coords)

    def to_json(self):
        return {
            "rank": self.rank,
            "cycles": [list(z) for z in self.cycles],
            "intersection": [list(row) for row in self.intersection],
        }


def _vertex_classes(o):
    cyc = o.vertex_cycles()
    cls = [0] * o.d
    for i, c in enumerate(cyc):
        for x in c:
            cls[x] = i
    return len(cyc), cls


def _edge_endpoints(o, cls):
    """Edge index -> (tail vertex, head vertex)."""
    return [(cls[i], cls[s[i]]) for s in (o.sigma_h, o.sigma_v)
            for i in range(o.d)]


def _face_boundary_vectors(o):
    out = []
    for i in range(o.d):
        vec = [0] * (2 * o.d)
        vec[i] += 1                          # h_i
        vec[o.d + o.sigma_h[i]] += 1         # v over the right edge
        vec[o.sigma_v[i]] -= 1               # h over the top edge
        vec[o.d + i] -= 1                    # v_i
        out.append(vec)
    return out


def displacement(o, x):
    """Total (horizontal, vertical) displacement of an edge vector; a
    cycle's class on the base torus."""
    d = o.d
    return (sum(x[:d]), sum(x[d:]))


_Complex = namedtuple("_Complex", "ends nverts tree nontree boundaries B")


def _chain_complex(o):
    """The cellular chain complex of o with a spanning tree collapsed.

    Returns a _Complex: edge endpoints, the vertex count, the tree, the
    non-tree edges, the face boundaries, and the face boundaries in
    non-tree coordinates (a cycle is fixed by those coordinates).  The
    tree is kept once, as (vertex, edge, orientation) triples in the
    order the sweep reaches the vertices, so each vertex comes after its
    parent; the orientation is 1 when the edge points away from vertex
    0, the root, and -1 when it points toward it.  The sweep takes the
    first edge, in edge order, that reaches a new vertex, round after
    round; the basis cycles depend on that choice.  It stops as soon as
    the tree spans every vertex, and a surface with one vertex is not
    swept at all: no edge could join the tree later.
    """
    nverts, cls = _vertex_classes(o)
    ends = _edge_endpoints(o, cls)

    # spanning tree of the 1-skeleton (connected since the origami is);
    # both ends of a tree edge are seen, so no edge joins it twice
    tree = []
    seen = [False] * nverts
    seen[0] = True
    while len(tree) < nverts - 1:
        before = len(tree)
        for e, (t, h) in enumerate(ends):
            if seen[t] != seen[h]:
                w, sgn = (h, 1) if seen[t] else (t, -1)
                seen[w] = True
                tree.append((w, e, sgn))
                if len(tree) == nverts - 1:
                    break
        if len(tree) == before:
            raise InternalError("the 1-skeleton of %s is not connected" % (o,))

    in_tree = {e for _, e, _ in tree}
    nontree = [e for e in range(2 * o.d) if e not in in_tree]
    boundaries = _face_boundary_vectors(o)
    B = [[bd[e] for e in nontree] for bd in boundaries]
    return _Complex(ends, nverts, tree, nontree, boundaries, B)


def homology_basis(o):
    """Integer basis of H_1 with its intersection form.

    Returns HomologyBasis with rank = 2 * genus; the basis vectors are
    primitive integer edge vectors, and the intersection matrix, built
    on first read, is antisymmetric with determinant one.  Each basis
    cycle is closed through the tree in one pass over its vertices,
    leaves first.
    """
    d = o.d
    ends, nverts, tree, nontree, boundaries, B = _chain_complex(o)

    diagonal, V, Vinv = la.smith_normal_form(B)
    divisors = [x for x in diagonal if x != 0]
    if divisors != [1] * (d - 1):
        raise InternalError("face boundaries of %s have Smith divisors %s, "
                            "not %d ones" % (o, divisors, d - 1))
    r = len(divisors)
    # B V = U^-1 D for a unimodular U, so the boundary lattice is
    # spanned by the first r rows of V^-1 and the quotient is generated
    # by the remaining rows.  A row gives a cycle's non-tree edges; it is
    # closed through the tree by moving each vertex's net coefficient
    # along its tree edge to its parent, leaves first, so every child has
    # passed its coefficient on before its parent's is moved
    basis = []
    for y in Vinv[r:]:
        vec = [0] * (2 * d)
        net = [0] * nverts
        for e, c in zip(nontree, y):
            if c:
                vec[e] = c
                t, h = ends[e]
                net[h] += c
                net[t] -= c
        for w, e, sgn in reversed(tree):
            c = net[w]
            if c:
                vec[e] -= sgn * c
                t, h = ends[e]
                net[t if sgn == 1 else h] += c
        basis.append(vec)

    rank = len(basis)
    if rank != 2 * o.genus():
        raise InternalError("H_1 of %s has rank %d, not 2 * genus %d"
                            % (o, rank, 2 * o.genus()))

    # the last rank columns of V are cocycles dual to the basis cycles:
    # B V = U^-1 D vanishes past column r, and V^-1 V = 1 makes their
    # values on the basis cycles the identity matrix
    coords = la.transpose(V)[r:]
    # the pairing reads the second cocycle at v_right(i) against h_i and
    # at h_above(i), negated, against v_i; gather it there, per edge
    partner = [d + o.sigma_h[e] if e < d else o.sigma_v[e - d]
               for e in nontree]
    sign = [1 if e < d else -1 for e in nontree]
    paired = []
    for col in coords:
        b = [0] * (2 * d)
        for e, x in zip(nontree, col):
            b[e] = x
        paired.append([s * b[p] for s, p in zip(sign, partner)])
    Q = [[sum(map(mul, a, pb)) for pb in paired] for a in coords]
    if not _antisymmetric(Q):
        raise InternalError("the cocycle pairing is not antisymmetric")
    # an antisymmetric integer Q of determinant 1 has an integral,
    # antisymmetric inverse of determinant 1, so J = -Q^-1 is a
    # unimodular form without being built
    det = la.det_rational(Q)
    if det != 1:
        raise InternalError("the cocycle pairing has determinant %s, not 1"
                            % det)
    return HomologyBasis(rank=rank, cycles=tuple(tuple(z) for z in basis),
                         face_boundaries=tuple(tuple(b) for b in boundaries),
                         _ends=tuple(ends),
                         _nontree=tuple(nontree),
                         _coords=tuple(tuple(col) for col in coords),
                         _pairing=tuple(tuple(row) for row in Q))


def _antisymmetric(M):
    n = len(M)
    return all(M[i][j] == -M[j][i] for i in range(n) for j in range(n))


def homology_rank(o):
    """Rank of H_1 straight from the chain complex, by one elimination.

    Deliberately avoids the cone-angle bookkeeping.  The complex is the
    one homology_basis builds: with the spanning tree collapsed, a cycle
    is fixed by its non-tree coordinates, so the cycle space has one
    dimension per non-tree edge (rank d1 is the number of tree edges,
    as the 1-skeleton is connected), and rank = #non-tree edges minus
    the rank of the face boundaries in those coordinates.  Agreement
    with 2 * genus is a genuine cross-check of the corner-walk
    combinatorics.
    """
    cx = _chain_complex(o)
    return len(cx.nontree) - la.rank_rational(cx.B)


def _push_word(witness, o, xs):
    """Images of the edge vectors xs under the witness word followed by
    its relabeling: the chain map of the lift, an automorphism of the
    complex of o.

    One `origami._walk` steps the gluings beside the vectors, and the
    walk ends with the check of `LiftWitness.verify`: the relabeled
    image must be o, or DomainError is raised.
    """
    image, xs = _walk(witness.word, o, xs)
    if relabel(image, witness.relabeling) != o:
        raise DomainError("witness does not carry the origami to itself")
    # square i is renamed r(i), so entry j of an image is entry r^-1(j)
    d, ri = o.d, perms.inverse(witness.relabeling)
    return [[x[j] for j in ri] + [x[d + j] for j in ri] for x in xs]


@dataclass(frozen=True)
class HomologyAction:
    matrix: tuple
    torelli_order: int
    b1: int
    symplectic: bool
    fixed_in_displacement_kernel: bool
    basis: HomologyBasis

    def to_json(self):
        return {
            "matrix": [list(row) for row in self.matrix],
            "torelli_order": self.torelli_order,
            "b1": self.b1,
            "symplectic": self.symplectic,
            "fixed_in_displacement_kernel": self.fixed_in_displacement_kernel,
        }


def induced_action(witness, o):
    """Action of a lift witness on H_1(o), as an integer matrix in the
    computed basis; DomainError unless the witness carries o to itself.

    The matrix preserves the intersection form exactly, checked as
    M Q M^T = Q on the cocycle pairing, so J is not built.  Also reports
    the dimension k of its rational fixed subspace (the mapping-torus
    first Betti number is k + 1) and whether every fixed class has
    zero displacement on the base torus, which is what suspension flow
    theory predicts for a hyperbolic base map.
    """
    basis = homology_basis(o)
    images = _push_word(witness, o, basis.cycles)
    Mt = [basis.decompose(y) for y in images]
    M = la.transpose(Mt)

    fixed = _fixed_space(M)
    # with J = -Q^-1, M^T J M = J exactly when M Q M^T = Q
    sympl = _preserves(Mt, basis._pairing)
    # displacement is linear: a fixed class drifts by its coefficients
    # against the drifts of the basis cycles
    drifts = la.transpose([displacement(o, z) for z in basis.cycles])
    fixed_ok = not any(sum(map(mul, vec, row))
                       for vec in fixed for row in drifts)
    return HomologyAction(
        matrix=tuple(tuple(row) for row in M),
        torelli_order=len(fixed), b1=len(fixed) + 1, symplectic=sympl,
        fixed_in_displacement_kernel=fixed_ok, basis=basis)


def torelli_order(M, J):
    """(k, b1, symplectic) for an integer matrix acting on a
    symplectic lattice.

    k is the rational dimension of the fixed space of M, the length of
    the kernel basis of M - I, b1 = k + 1 is the first Betti number of
    the mapping torus of any map inducing M, and the flag reports
    whether M preserves the form J exactly.  J must be a unimodular
    antisymmetric integer matrix of matching size, or DomainError is
    raised.  `induced_action` reads the same kernel, so M - I is
    eliminated once per action.
    """
    n = len(M)
    if any(len(row) != n for row in M):
        raise DomainError("matrix must be square")
    if len(J) != n or any(len(row) != n for row in J):
        raise DomainError("form must match the matrix size")
    if not _antisymmetric(J):
        raise DomainError("form must be antisymmetric")
    if n and abs(la.det_rational(J)) != 1:
        raise DomainError("form must be unimodular")
    fixed = _fixed_space(M)
    return len(fixed), len(fixed) + 1, _preserves(M, J)


def _fixed_space(M):
    """Kernel basis of M - I for a square M."""
    MI = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(M)]
    return la.kernel_rational(MI)


def _preserves(M, F):
    """Whether M^T F M = F, for square M and F of one size; the callers
    have checked both.  `torelli_order` passes M and J, `induced_action`
    M^T and Q."""
    return la.mat_eq(la.mat_mul(la.transpose(M), la.mat_mul(F, M)), F)
