"""Permutations on {0, ..., n-1} as tuples of images.

Composition is function composition: compose(p, q) applies q first, then
p.  Every module in this package uses that convention.  Text cycle
notation is 1-based, matching the usual way these come up on paper;
internal indices are 0-based.  orbit_size is the one connectivity
test of a gluing, for origamis and covers alike.
"""

import re

from .errors import DomainError


def identity(n):
    return tuple(range(n))


def is_perm(p, n=None):
    if n is not None and len(p) != n:
        return False
    return sorted(p) == list(range(len(p)))


def compose(p, q):
    """p after q: (compose(p, q))(x) = p(q(x))."""
    return tuple([p[x] for x in q])


def inverse(p):
    inv = [0] * len(p)
    for x, y in enumerate(p):
        inv[y] = x
    return tuple(inv)


def conjugate(p, r):
    """Relabel p by r: returns r . p . r^-1."""
    return compose(compose(r, p), inverse(r))


def cycles(p, include_fixed=False):
    """Cycles of p, each rotated to start at its least element,
    sorted by that element."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        x = p[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = p[x]
        if len(cyc) > 1 or include_fixed:
            out.append(tuple(cyc))
    return out


def cycle_lengths(p):
    return sorted(len(c) for c in cycles(p, include_fixed=True))


def orbit_size(gens, n):
    """How many of the n points the group generated by gens reaches
    from 0: one search that stops once every point is reached, so n
    means transitive; 0 when n = 0."""
    if n == 0:
        return 0
    seen = [False] * n
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        x = stack.pop()
        for g in gens:
            y = g[x]
            if not seen[y]:
                seen[y] = True
                count += 1
                if count == n:
                    return n
                stack.append(y)
    return count


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


# parse_cycles builds at most this many points, and pillowcase_origami
# at most this many squares
MAX_POINTS = 10 ** 5


def parse_cycles(text, n=None):
    """Parse 1-based cycle notation like "(1 2 3)(4 5)" into an image tuple.

    Labels may be separated by spaces or commas.  n defaults to the
    largest label mentioned, 0 for the identity "()" or "id".  A size
    above MAX_POINTS is refused before the image is built.
    """
    text = text.strip()
    if text not in ("", "id") and _CYCLE_RE.sub("", text).strip():
        raise DomainError("malformed cycle notation: %r" % text)
    parsed = []
    for group in _CYCLE_RE.findall(text):
        labels = [s for s in re.split(r"[,\s]+", group.strip()) if s]
        if not labels:
            continue
        try:
            cyc = [int(s) for s in labels]
        except ValueError:
            raise DomainError("malformed cycle notation: %r" % text)
        if any(x < 1 for x in cyc):
            raise DomainError("cycle labels are 1-based: %r" % text)
        parsed.append(cyc)
    maxlabel = max(map(max, parsed), default=0)
    size = maxlabel if n is None else n
    if parsed and size < maxlabel:
        raise DomainError("cycle label %d exceeds size %d" % (maxlabel, size))
    if size > MAX_POINTS:
        raise DomainError("%d points is more than the %d that parse_cycles "
                          "builds" % (size, MAX_POINTS))
    img = list(range(size))
    touched = set()
    for cyc in parsed:
        for s in cyc:
            if s - 1 in touched:
                raise DomainError("label %d repeated in cycle notation" % s)
            touched.add(s - 1)
        for i, s in enumerate(cyc):
            img[s - 1] = cyc[(i + 1) % len(cyc)] - 1
    return tuple(img)


def format_cycles(p):
    """1-based cycle notation; fixed points omitted; identity is "()"."""
    cs = cycles(p)
    if not cs:
        return "()"
    return "".join("(" + " ".join(str(x + 1) for x in c) + ")" for c in cs)
