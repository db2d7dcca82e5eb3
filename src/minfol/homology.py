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
collapses a spanning tree of the 1-skeleton and writes the face
boundaries B in the coordinates of the non-tree edges.  A cycle is the
sum of the fundamental cycles of its non-tree edges, so it is fixed by
its non-tree coordinates y, and the rank of H_1 is the number of
non-tree edges minus rank B: one elimination.  The basis quotients the
cycle space by the face boundaries through a Smith normal form of B
and lifts the surviving generators back to integer edge vectors.  With
U B V = D the Smith form of B and all r nonzero divisors equal to 1,
the rows of V^-1 split into r that span the boundaries and 2g that are
the basis cycles; the Smith form returns V^-1 beside V, built by the
inverse of each column operation, so no inversion is needed.  The
coordinates of a cycle in the basis are y . V[:, r:], an integer dot
product, and `HomologyBasis.decompose` keeps those columns of V
instead of solving.

The action of a lift on H_1 is one walk of its witness word: the 2g
basis cycles are pushed token by token through the edge map of each
generator while `origami._step` moves the gluings along, then
relabeled, and the walk ends by checking that the relabeled gluings
are those of the origami it started from.

The intersection form needs care.  Counting crossings of pushed-off
edge cycles fails at cone points, where a translated cycle no longer
closes up.  Instead we go through cohomology: cutting each square
along its up-diagonal gives a triangulated complex on which the
classical simplexwise product of 1-cochains is valid, and evaluating
it against the sum of all faces pairs cocycle classes:

    (a . b)[S] = sum_i a(h_i) b(v_right(i)) - a(v_i) b(h_above(i))

Poincare duality converts that to the intersection form on the cycle
basis: J = -E Q^-1 E^T, where Q is the cocycle pairing above and E
evaluates cocycles on the basis cycles; it is computed from the
integer adjugate of Q with one exact division by det Q.  Everything is
integer or Fraction arithmetic; no floating point enters this module.
"""

from collections import namedtuple
from dataclasses import dataclass, field

from .errors import DomainError, InternalError
from . import intlinalg as la
from . import permutations as perms
from .origami import _step
from .sl2z import GenToken


@dataclass(frozen=True)
class HomologyBasis:
    rank: int
    cycles: tuple        # rank integer vectors of length 2d
    intersection: tuple  # rank x rank integer matrix J
    face_boundaries: tuple
    # what decompose reads coordinates from: the (tail, head) vertices
    # of each edge, the non-tree edges, and the last rank columns of the
    # Smith transform V (one tuple per basis cycle, indexed like _nontree)
    _ends: tuple = field(compare=False, repr=False)
    _nontree: tuple = field(compare=False, repr=False)
    _coords: tuple = field(compare=False, repr=False)

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
        return tuple(sum(x[e] * v for e, v in zip(self._nontree, col))
                     for col in self._coords)

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
    ends = []
    for i in range(o.d):
        ends.append((cls[i], cls[o.sigma_h[i]]))
    for i in range(o.d):
        ends.append((cls[i], cls[o.sigma_v[i]]))
    return ends


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


def _cup_on_fundamental(o, a, b):
    """Product of two 1-cocycles evaluated on the sum of all faces.

    Valid only for cocycles (functionals vanishing on face boundaries);
    the analogous count for cycles misses crossings at cone points.
    """
    d = o.d
    total = 0
    for i in range(d):
        total += a[i] * b[d + o.sigma_h[i]]
        total -= a[d + i] * b[o.sigma_v[i]]
    return total


def _d1(nverts, ends):
    """Boundary map of the 1-skeleton, edges -> vertices.  Its rows are
    also the coboundaries of the vertices."""
    d1 = [[0] * len(ends) for _ in range(nverts)]
    for e, (t, h) in enumerate(ends):
        d1[h][e] += 1
        d1[t][e] -= 1
    return d1


def _cocycle_class_basis(o, d1):
    """2g integer cocycles whose classes span H^1 rationally.

    Greedy over the kernel of the face boundaries: a cocycle is kept
    when it is independent of the coboundaries (the rows of d1) and of
    the cocycles before it.  Those are the pivot columns of the matrix
    with all of these vectors as columns; every other column is the
    last nonzero entry of one of its kernel vectors.
    """
    cocycles = la.kernel_rational(_face_boundary_vectors(o))
    dependent = {max(i for i, x in enumerate(v) if x)
                 for v in la.kernel_rational(la.transpose(d1 + cocycles))}
    return [k for j, k in enumerate(cocycles, start=len(d1))
            if j not in dependent]


def displacement(o, x):
    """Total (horizontal, vertical) displacement of an edge vector; a
    cycle's class on the base torus."""
    d = o.d
    return (sum(x[:d]), sum(x[d:]))


_Complex = namedtuple("_Complex", "ends nverts parent_edge parent_sign "
                                  "nontree boundaries B")


def _chain_complex(o):
    """The cellular chain complex of o with a spanning tree collapsed.

    Returns a _Complex: edge endpoints, the vertex count, the tree as
    the edge and orientation leading from each vertex toward vertex 0,
    the non-tree edges, the face boundaries, and the face boundaries in
    non-tree coordinates (a cycle is fixed by those coordinates).  The
    sweep takes the first edge, in edge order, that reaches a new
    vertex, round after round; the basis cycles depend on that choice.
    """
    nverts, cls = _vertex_classes(o)
    ends = _edge_endpoints(o, cls)

    # spanning tree of the 1-skeleton (connected since the origami is)
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
    if not all(seen):
        raise InternalError("the 1-skeleton of %s is not connected" % (o,))

    nontree = [e for e in range(2 * o.d) if e not in tree]
    boundaries = _face_boundary_vectors(o)
    B = [[bd[e] for e in nontree] for bd in boundaries]
    return _Complex(ends, nverts, parent_edge, parent_sign, nontree,
                    boundaries, B)


def homology_basis(o):
    """Integer basis of H_1 with its intersection form.

    Returns HomologyBasis with rank = 2 * genus; the basis vectors are
    primitive integer edge vectors, and the intersection matrix is
    antisymmetric with determinant one.
    """
    d = o.d
    (ends, nverts, parent_edge, parent_sign, nontree, boundaries,
     B) = _chain_complex(o)

    # path from each vertex back to the root, as an edge chain
    def path_to_root(v):
        vec = [0] * (2 * d)
        while parent_edge[v] is not None:
            e = parent_edge[v]
            sgn = parent_sign[v]
            vec[e] -= sgn  # walk against the parent edge, toward the root
            v = ends[e][0] if sgn == 1 else ends[e][1]
        return vec

    root_paths = [path_to_root(v) for v in range(nverts)]

    # fundamental cycle of a non-tree edge e: e plus tree paths closing it
    fund = []
    for e in nontree:
        t, h = ends[e]
        vec = [0] * (2 * d)
        vec[e] += 1
        # head -> root -> tail along the tree
        for j, val in enumerate(root_paths[h]):
            vec[j] += val
        for j, val in enumerate(root_paths[t]):
            vec[j] -= val
        fund.append(vec)

    U, D, V, Vinv = la.smith_normal_form(B)
    divisors = [x for x in la.diagonal_of(D) if x != 0]
    if divisors != [1] * (d - 1):
        raise InternalError("face boundaries of %s have Smith divisors %s, "
                            "not %d ones" % (o, divisors, d - 1))
    r = len(divisors)
    # U B V = D, so the boundary lattice is spanned by the first r rows
    # of V^-1 and the quotient is generated by the remaining rows
    basis = []
    for coords in Vinv[r:]:
        vec = [0] * (2 * d)
        for c, f in zip(coords, fund):
            if c:
                for j, val in enumerate(f):
                    vec[j] += c * val
        basis.append(vec)

    rank = len(basis)
    if rank != 2 * o.genus():
        raise InternalError("H_1 of %s has rank %d, not 2 * genus %d"
                            % (o, rank, 2 * o.genus()))

    d1 = _d1(nverts, ends)
    alphas = _cocycle_class_basis(o, d1)
    if len(alphas) != rank:
        raise InternalError("%d cocycle classes for H_1 of rank %d"
                            % (len(alphas), rank))
    E = [[sum(a * x for a, x in zip(alpha, z)) for alpha in alphas]
         for z in basis]
    Q = [[_cup_on_fundamental(o, au, aw) for aw in alphas] for au in alphas]
    if not _antisymmetric(Q):
        raise InternalError("the cocycle pairing is not antisymmetric")
    # Q^-1 = adj(Q) / det(Q), and J is integral, so the division is exact
    adj, det = la._adjugate(Q)
    J = []
    for row in la.mat_mul(la.mat_mul(E, adj), la.transpose(E)):
        if any(x % det for x in row):
            raise InternalError("the intersection form is not integral")
        J.append([-(x // det) for x in row])
    if not _antisymmetric(J):
        raise InternalError("the intersection form is not antisymmetric")
    if rank and la.det_rational(J) != 1:
        raise InternalError("the intersection form has determinant %s, "
                            "not 1" % la.det_rational(J))
    return HomologyBasis(rank=rank, cycles=tuple(tuple(z) for z in basis),
                         intersection=tuple(tuple(row) for row in J),
                         face_boundaries=tuple(tuple(b) for b in boundaries),
                         _ends=tuple(ends),
                         _nontree=tuple(nontree),
                         _coords=tuple(tuple(col)
                                       for col in la.transpose(V)[r:]))


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


def _push(token, sh, sv, x):
    """Image of the edge vector x under one token, from the complex of
    the origami with gluings (sh, sv) to the complex of its image
    under the token (`origami._step`).

    Derived from how the affine map carries edges: the shear T fixes
    bottom edges and sends the left edge of square i to the diagonal,
    homotopic to bottom edge then right edge.  S rotates a quarter
    turn, -I half a turn; their images pick up signs and the
    neighbor relabelings below.
    """
    d = len(sh)
    h, v = x[:d], x[d:]
    if token == GenToken.T:
        # h_i -> h_i, v_i -> h_i + v_(right)
        w = [0] * d
        for i in range(d):
            w[sh[i]] = v[i]
        return [a + b for a, b in zip(h, v)] + w
    if token == GenToken.T_INV:
        # h_i -> h_i, v_i -> -h_(left) + v_(left)
        w = [v[j] for j in sh]
        return [a - b for a, b in zip(h, w)] + w
    if token == GenToken.S:
        # h_i -> v_(below), v_i -> -h_i
        return [-b for b in v] + [h[j] for j in sv]
    if token == GenToken.NEG_I:
        # h_i -> -h_(below), v_i -> -v_(left)
        return [-h[j] for j in sv] + [-v[j] for j in sh]
    raise DomainError("unknown token %r" % (token,))


def _push_word(witness, o, xs):
    """Images of the edge vectors xs under the witness word followed by
    its relabeling: the chain map of the lift, an automorphism of the
    complex of o.

    The gluings are stepped beside the vectors, and the walk ends with
    the check of `LiftWitness.verify`: the relabeled gluings must be
    those of o, or DomainError is raised.
    """
    sh, sv = o.sigma_h, o.sigma_v
    for token in reversed(witness.word):
        xs = [_push(token, sh, sv, x) for x in xs]
        sh, sv = _step(token, sh, sv)
    d, r = o.d, witness.relabeling
    if not perms.is_perm(r, d):
        raise DomainError("relabeling is not a permutation of the squares")
    if (perms.conjugate(sh, r) != o.sigma_h
            or perms.conjugate(sv, r) != o.sigma_v):
        raise DomainError("witness does not carry the origami to itself")
    # square i is renamed r(i), so entry j of an image is entry r^-1(j)
    ri = perms.inverse(r)
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

    The matrix preserves the intersection form exactly.  Also reports
    the dimension k of its rational fixed subspace (the mapping-torus
    first Betti number is k + 1) and whether every fixed class has
    zero displacement on the base torus, which is what suspension flow
    theory predicts for a hyperbolic base map.
    """
    basis = homology_basis(o)
    images = _push_word(witness, o, basis.cycles)
    M = la.transpose([basis.decompose(y) for y in images])
    rank = basis.rank

    k, b1, sympl = torelli_order(M, [list(row) for row in basis.intersection])

    MI = [[M[i][j] - (1 if i == j else 0) for j in range(rank)]
          for i in range(rank)]
    fixed_ok = True
    ne = 2 * o.d
    for vec in la.kernel_rational(MI):
        edge = [0] * ne
        for coeff, z in zip(vec, basis.cycles):
            if coeff:
                for i in range(ne):
                    edge[i] += coeff * z[i]
        if displacement(o, edge) != (0, 0):
            fixed_ok = False
            break
    return HomologyAction(
        matrix=tuple(tuple(row) for row in M),
        torelli_order=k, b1=b1, symplectic=sympl,
        fixed_in_displacement_kernel=fixed_ok, basis=basis)


def torelli_order(M, J):
    """(k, b1, symplectic) for an integer matrix acting on a
    symplectic lattice.

    k is the rational dimension of the fixed space of M, b1 = k + 1 is
    the first Betti number of the mapping torus of any map inducing M,
    and the flag reports whether M preserves the form J exactly.  J
    must be a unimodular antisymmetric integer matrix of matching size.
    """
    n = len(M)
    if any(len(row) != n for row in M):
        raise DomainError("matrix must be square")
    if len(J) != n or any(len(row) != n for row in J):
        raise DomainError("form must match the matrix size")
    for i in range(n):
        for j in range(n):
            if J[i][j] != -J[j][i]:
                raise DomainError("form must be antisymmetric")
    if n and abs(la.det_rational(J)) != 1:
        raise DomainError("form must be unimodular")
    MI = [[M[i][j] - (1 if i == j else 0) for j in range(n)]
          for i in range(n)]
    k = n - la.rank_rational(MI) if n else 0
    Ml = [list(row) for row in M]
    Jl = [list(row) for row in J]
    sympl = la.mat_eq(la.mat_mul(la.mat_mul(la.transpose(Ml), Jl), Ml), Jl)
    return k, k + 1, sympl
