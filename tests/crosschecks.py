"""Cross-checks of the package's invariants that only the tests use.

The Newton non-degeneracy test of Kouchnirenko (1976), the polar identity
i(f, b f_x - a f_y) = -M + i(f, ax + by), and delta additivity over the
factors of a product.  Each one compares engines that the package ships;
none of them computes a value the package reports.  The module imports
only the standard library and singcurve, so a stdlib-only driver can load
it by path.
"""

from singcurve.errors import InternalError
from singcurve.field import uni_deg, uni_gcd, uni_order, uni_trim
from singcurve.invariants import INF, delta, intersect_tree, rho, tree_delta
from singcurve.milnor import local_intersection
from singcurve.newton import face_line, newton_polygon
from singcurve.poly import BiPoly, partials
from singcurve.tree import build_tree, build_tree_multi, tree_multiplicity


# ---------------------------------------------------------------------------
# Newton non-degeneracy


def _face_system_roots(f, face):
    """True when the partials of the face part share a nonzero root."""
    ctx = f.ctx
    i1, j1 = face.top
    _, T = face_line(f, face.p, face.q)
    a = [ctx.mul_int(c, i1 + s * face.q) for s, c in enumerate(T)]
    b = [ctx.mul_int(c, j1 - s * face.p) for s, c in enumerate(T)]
    a = uni_trim(ctx, a)
    b = uni_trim(ctx, b)
    if not a and not b:
        return True
    g = uni_gcd(ctx, a, b)
    return uni_deg(g) - uni_order(ctx, g) >= 1


def is_nd_face(f, face):
    """No common torus zero of the face part's partials."""
    return not _face_system_roots(f, face)


def _vertex_degenerate(ctx, i, j):
    return ctx.is_zero(ctx.mul_int(ctx.one, i)) and \
        ctx.is_zero(ctx.mul_int(ctx.one, j))


def is_nnd(f):
    """Newton non-degenerate: every compact face, vertices included,
    passes the torus test."""
    pg = newton_polygon(f)
    ctx = f.ctx
    for (i, j) in pg.vertices:
        if _vertex_degenerate(ctx, i, j):
            return False
    return all(is_nd_face(f, face) for face in pg.faces)


# ---------------------------------------------------------------------------
# polar curves


def polar_intersection(f, a, b):
    """i(f, b f_x - a f_y) against -M + i(f, ax + by), both engines.

    The identity needs every branch to meet the line with multiplicity
    prime to the characteristic; when that fails the comparison is reported
    as skipped rather than asserted.
    """
    ctx = f.ctx
    if ctx.is_zero(a) and ctx.is_zero(b):
        raise InternalError("the line needs a nonzero coefficient")
    fx, fy = partials(f)
    polar = fx.scale(b) + fy.scale(ctx.neg(a))
    lhs = local_intersection(f, polar).value
    line = BiPoly(ctx, {(1, 0): a, (0, 1): b})
    t = build_tree_multi([f, line])
    la = [n.nid for n in t.arrows("branch") if n.owner == 1]
    per_branch = [rho(t, n.nid, la[0])
                  for n in t.arrows("branch") if n.owner == 0]
    i_line = sum(per_branch)
    p = ctx.characteristic
    skipped = any(p and v % p == 0 for v in per_branch)
    mf = tree_multiplicity(build_tree(f)).M
    rhs = -mf + i_line
    return {"polar": lhs, "expected": rhs,
            "equal": None if skipped else lhs == rhs, "skipped": skipped}


# ---------------------------------------------------------------------------
# delta additivity


def delta_additivity_check(factors):
    """delta of the product against sum of deltas plus pairwise
    intersections."""
    t = build_tree_multi(factors)
    total = tree_delta(t)
    acc = sum(delta(f) for f in factors)
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            it = intersect_tree(factors[i], factors[j])
            if it == INF:
                return False
            acc += it
    return total == acc
