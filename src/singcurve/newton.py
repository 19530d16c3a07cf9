"""Newton polygon and face factorization.

The polygon is the lower-left convex hull of the support of f (as given, not
divided by x^i0 y^j0).  A compact face with primitive normal (p, q) lies on
the line p*X + q*Y = N; faces are listed top to bottom, so p/q strictly
decreases.  The polygon of a product is the sum of its factors' polygons.
The terms of f on a face collapse to a univariate polynomial T via
u = x^q / y^p, whose nonzero roots are the face roots.
"""

import math

from .errors import InternalError, ZeroPolynomial, ZeroRoot
from .field import adjoin_splitting


class Face:
    __slots__ = ("p", "q", "N", "top", "bot", "K")

    def __init__(self, p, q, N, top, bot, K):
        self.p = p
        self.q = q
        self.N = N
        self.top = top
        self.bot = bot
        self.K = K

    def __repr__(self):
        return f"Face(p={self.p}, q={self.q}, N={self.N})"

    def __eq__(self, other):
        return (isinstance(other, Face) and (self.p, self.q, self.N, self.top, self.bot)
                == (other.p, other.q, other.N, other.top, other.bot))


class NewtonPolygon:
    __slots__ = ("i0", "j0", "vertices", "faces")

    def __init__(self, i0, j0, vertices, faces):
        self.i0 = i0
        self.j0 = j0
        self.vertices = vertices
        self.faces = faces

    def __repr__(self):
        return f"NewtonPolygon(vertices={self.vertices})"

    def __add__(self, other):
        """The polygon of the product (Ostrowski 1921): in a domain the
        initial forms multiply, so every vertex of the product's polygon is
        a vertex of this one plus a vertex of the other."""
        return _polygon([(a + c, b + d) for a, b in self.vertices
                         for c, d in other.vertices])


def _cross(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _polygon(points):
    """The polygon of a nonempty set of exponent pairs (i, j)."""
    by_i = {}
    for i, j in points:
        if i not in by_i or j < by_i[i]:
            by_i[i] = j
    stair = []
    for i in sorted(by_i):
        j = by_i[i]
        if not stair or j < stair[-1][1]:
            stair.append((i, j))
    hull = []
    for pt in stair:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], pt) <= 0:
            hull.pop()
        hull.append(pt)
    faces = []
    for (i1, j1), (i2, j2) in zip(hull, hull[1:]):
        di, dj = i2 - i1, j1 - j2
        g = math.gcd(di, dj)
        p, q = dj // g, di // g
        faces.append(Face(p, q, p * i1 + q * j1, (i1, j1), (i2, j2), g))
    # the hull runs from the least i down to the least j
    return NewtonPolygon(hull[0][0], hull[-1][1], hull, faces)


def newton_polygon(f):
    if f.is_zero():
        raise ZeroPolynomial("Newton polygon of the zero polynomial")
    return _polygon(f.c)


def face_line(f, p, q):
    """(N, T): the least value N of p*i + q*j over the support of f, and
    the coefficients of f on the line p*i + q*j = N.

    Index s of T counts steps of (q, -p) from the highest support point on
    the line, so on a face of f's own polygon T is the face polynomial in u.
    """
    best, pts = None, []
    for i, j in f.c:
        w = p * i + q * j
        if best is None or w < best:
            best, pts = w, [(i, j)]
        elif w == best:
            pts.append((i, j))
    pts.sort()
    i_min = pts[0][0]
    span = pts[-1][0] - i_min
    if span % q != 0:
        raise InternalError("support points off the face lattice")
    T = [f.ctx.zero] * (span // q + 1)
    for i, j in pts:
        T[(i - i_min) // q] = f.c[(i, j)]
    return best, T


def face_factorization(T, face, ctx, extend=True):
    """Split the face polynomial T (as read by face_line, over ctx) of the
    given face: (ctx2, embed, roots), with the roots and their
    multiplicities in ctx2 and embed mapping ctx into it.

    Over finite fields the context is extended as needed, unless extend is
    False (see adjoin_splitting); over Q a nonlinear irreducible remainder
    raises Char0IrreducibleRemainder.
    """
    i1, j2 = face.top[0], face.bot[1]
    if len(T) != face.K + 1:
        raise InternalError("face polynomial does not span the face")
    ctx2, embed, roots = adjoin_splitting(T, ctx, extend)
    for mu, _ in roots:
        if ctx2.is_zero(mu):
            raise ZeroRoot("face polynomial root at zero")
    nsum = sum(nu for _, nu in roots)
    if face.N != face.p * i1 + face.q * j2 + face.p * face.q * nsum:
        raise InternalError("face value identity violated")
    return ctx2, embed, roots
