"""Invariants read off the Newton tree: decoration path products, delta and
the expected Milnor number, intersection multiplicities (combinatorial and
by power series), Zariski sequences, branch semigroups, and the area check.

Path products use the convention that a product over an empty vertex set is
1, so smooth branches and arrow-to-arrow paths need no special cases.
Infinite intersection numbers are returned as math.inf.
"""

import math

from .errors import (DisconnectedNodes, InputError, InternalError,
                     NotIrreducible, NotIrreducibleBranchShape,
                     OrderMismatch, ParityViolation, PrecisionExhausted)
from .field import power, uni_order
from .hn import hn_map
from .poly import (_clip_rows, _shares_origin_branch, _to_yrows,
                   clip_total, vanishes_at_origin)
from .tree import build_tree, build_tree_multi, minimalize, tree_multiplicity

INF = math.inf

PRECISION_CAP = 1 << 14


# ---------------------------------------------------------------------------
# path products


def _tree_path(t, a, b):
    """Unique path a -> b as (node id list, set of edge ids)."""
    parent = {a: None}
    stack = [a]
    while stack and b not in parent:
        cur = stack.pop()
        for eid, other, _, _ in t.neighbors(cur):
            if other not in parent:
                parent[other] = (cur, eid)
                stack.append(other)
    if b not in parent:
        raise DisconnectedNodes(f"no path from {a} to {b}")
    nodes, eids = [b], set()
    while parent[nodes[-1]] is not None:
        prev, eid = parent[nodes[-1]]
        eids.add(eid)
        nodes.append(prev)
    nodes.reverse()
    return nodes, eids


def _off_path_product(t, nid, eids):
    acc = 1
    for eid, _, dec, _ in t.neighbors(nid):
        if eid not in eids:
            acc *= dec
    return acc


def rho(t, v, w):
    """Product of off-path decorations over the interior vertices of the
    path from v to w.  Arrowheads never contribute."""
    nodes, eids = _tree_path(t, v, w)
    acc = 1
    for nid in nodes[1:-1]:
        acc *= _off_path_product(t, nid, eids)
    return acc


# ---------------------------------------------------------------------------
# delta, expected Milnor number, area check


def tree_delta(t):
    """(-M + r) / 2 from an already built tree."""
    m = tree_multiplicity(t).M
    r = t.branch_count()
    if (r - m) % 2:
        raise ParityViolation(f"-M + r = {r - m} is odd")
    return (r - m) // 2


def tree_mu_bar(t):
    return 1 - tree_multiplicity(t).M


def delta(f):
    return tree_delta(build_tree(f))


def mu_bar(f):
    """1 - M, the value the Milnor number takes in characteristic zero."""
    return tree_mu_bar(build_tree(f))


def _twice_area(pts):
    s = 0
    for k in range(len(pts)):
        x1, y1 = pts[k]
        x2, y2 = pts[(k + 1) % len(pts)]
        s += x1 * y2 - x2 * y1
    return abs(s)


def area_identity(f):
    """-M against the closed-region area sum over all polygons of the
    recursion.  Returns {"lhs", "rhs", "equal"}; equal is a theorem, so
    False signals a bug rather than bad input."""
    t = build_tree(f)
    m = tree_multiplicity(t).M
    rhs = 0
    for pg, n_loc in t.chains:
        hull = pg.vertices
        a = hull[-1][0]
        if n_loc is None:
            b = hull[0][1]
            pts = [(0, 0), (0, b)] + list(hull) + [(a, 0)]
            rhs += _twice_area(pts) - a - b
        else:
            pts = [(n_loc, 0)] + [(n_loc + i, j) for i, j in hull]
            pts.append((n_loc + a, 0))
            rhs += _twice_area(pts) - a
    return {"lhs": -m, "rhs": rhs, "equal": -m == rhs}


# ---------------------------------------------------------------------------
# Zariski sequences and the branch semigroup


class ZariskiSeq:
    """Characteristic sequence (v_0..v_r) with its gcd descent d_k,
    multipliers n_k = d_(k-1)/d_k and conductor c."""

    __slots__ = ("vs", "d", "n", "c")

    def __init__(self, vs):
        vs = tuple(int(v) for v in vs)
        if not vs or min(vs) < 1:
            raise InternalError(f"bad characteristic sequence {vs}")
        d = [vs[0]]
        for v in vs[1:]:
            d.append(math.gcd(d[-1], v))
        if d[-1] != 1:
            raise InternalError(f"sequence gcd {d[-1]} is not 1")
        for k in range(len(d) - 1):
            if d[k] <= d[k + 1]:
                raise InternalError(f"gcd chain does not descend at {k}")
        n = [0] + [d[k - 1] // d[k] for k in range(1, len(d))]
        for k in range(1, len(vs) - 1):
            if n[k] * vs[k] >= vs[k + 1]:
                raise InternalError(f"growth axiom fails at {k}")
        c = 1 - vs[0]
        for k in range(1, len(vs)):
            c += (n[k] - 1) * vs[k]
        self.vs = vs
        self.d = tuple(d)
        self.n = tuple(n)
        self.c = c

    def __repr__(self):
        return f"ZariskiSeq({list(self.vs)}, c={self.c})"


def zariski_sequence(t, arrow=None):
    """Characteristic sequence of the branch ending in the given arrow.

    The tree is minimalized first; arrow ids survive that.  With arrow
    omitted the tree must have exactly one branch.  v_0 and v_1 come from
    the two dead ends of the first vertex, later v_i from the single dead
    end of each vertex along the path.
    """
    tm = minimalize(t)
    branches = [a.nid for a in tm.arrows("branch")]
    if arrow is None:
        if len(branches) != 1:
            raise NotIrreducibleBranchShape(
                f"tree has {len(branches)} branches, pass the arrow")
        arrow = branches[0]
    elif arrow not in tm.nodes or tm.nodes[arrow].kind != "branch":
        raise NotIrreducibleBranchShape(f"{arrow} is not a branch arrow")

    nbrs = tm.neighbors(arrow)
    if len(nbrs) != 1:
        raise InternalError("arrowhead with valency != 1")
    _, cur, _, _ = nbrs[0]
    if tm.nodes[cur].kind != "vertex":
        # smooth branch, its minimal tree has no vertices at all
        return ZariskiSeq((1,))

    chain = []
    prev = arrow
    while True:
        dead, fwd = [], []
        for eid, other, dec, _ in tm.neighbors(cur):
            if other == prev:
                continue
            kind = tm.nodes[other].kind
            if kind == "zero":
                dead.append(dec)
            elif kind == "branch":
                raise NotIrreducibleBranchShape("second branch on the path")
            else:
                fwd.append(other)
        if not fwd:
            if len(dead) != 2:
                raise NotIrreducibleBranchShape(
                    f"chain end carries {len(dead)} dead ends")
            chain.append((tm.nodes[cur].N, dead))
            break
        if len(fwd) != 1 or len(dead) != 1:
            raise NotIrreducibleBranchShape("branch path is not a chain")
        chain.append((tm.nodes[cur].N, dead))
        prev, cur = cur, fwd[0]

    chain.reverse()
    n1, dd = chain[0]
    hi, lo = max(dd), min(dd)
    if n1 % hi or n1 % lo:
        raise InternalError("dead-end decoration does not divide N")
    vs = [n1 // hi, n1 // lo]
    for nk, dead in chain[1:]:
        if nk % dead[0]:
            raise InternalError("dead-end decoration does not divide N")
        vs.append(nk // dead[0])
    return ZariskiSeq(vs)


def semigroup_gaps(s):
    """Sorted list of the gaps; there are exactly delta of them."""
    reach = [False] * max(s.c, 1)
    reach[0] = True
    for k in range(1, len(reach)):
        reach[k] = any(k >= g and reach[k - g] for g in s.vs)
    return [k for k in range(1, s.c) if not reach[k]]


# ---------------------------------------------------------------------------
# truncated power series over a coefficient context


def _ser_zero(ctx, n):
    return [ctx.zero] * n


def _ser_mul(ctx, a, b, n):
    return ctx.mul_series(a, b, n)


def _ser_addto(ctx, acc, b):
    """acc += b in place over the length of acc; returns acc.  The shared
    zero, which series are full of, is passed over without a method call."""
    add, is_zero, zero = ctx.add, ctx.is_zero, ctx.zero
    for k, bk in enumerate(b[:len(acc)]):
        if bk is not zero and not is_zero(bk):
            acc[k] = add(acc[k], bk)
    return acc


def _ser_pow(ctx, a, e, n):
    one = _ser_zero(ctx, n)
    one[0] = ctx.one
    return power(lambda u, v: _ser_mul(ctx, u, v, n), a, e, one)


def _ser_div(ctx, a, b, n):
    """a / b mod t^n for len(a) >= n and b[0] != 0, by long division."""
    sub, mul, is_zero = ctx.sub, ctx.mul, ctx.is_zero
    inv0 = ctx.inv(b[0])
    nz = [(i, bi) for i, bi in enumerate(b[1:n], 1) if not is_zero(bi)]
    out = []
    for k in range(n):
        acc = a[k]
        for i, bi in nz:
            if i > k:
                break
            q = out[k - i]
            if not is_zero(q):
                acc = sub(acc, mul(bi, q))
        out.append(mul(acc, inv0))
    return out


def _ser_eval(g, phi, psi, n):
    """g(phi(t), psi(t)) mod t^n, Horner in psi over rows in phi.

    Both series must vanish at t = 0.  A monomial x^i y^j then starts at
    order i ord(phi) + j ord(psi), so those at or above n are skipped.  The
    powers of phi are built once, and row j, the series sum_i c_ij phi^i,
    is kept mod t^(n - j ord(psi)) for _horner_s.
    """
    ctx = g.ctx
    if (phi and not ctx.is_zero(phi[0])) or (psi and not ctx.is_zero(psi[0])):
        raise InternalError("series substitution needs ord >= 1 arguments")
    # a zero series counts as order n: every monomial it enters is skipped
    ox = uni_order(ctx, phi) or n
    oy = uni_order(ctx, psi) or n
    terms = [(i, j, v) for (i, j), v in g.c.items() if i * ox + j * oy < n]
    if not terms:
        return _ser_zero(ctx, n)
    xpow = _ser_powers(ctx, phi, max(i for i, _, _ in terms), n)
    rows = [_ser_zero(ctx, n - j * oy)
            for j in range(max(j for _, j, _ in terms) + 1)]
    add, mul, is_zero = ctx.add, ctx.mul, ctx.is_zero
    for i, j, v in terms:
        row = rows[j]
        if i == 0:
            row[0] = add(row[0], v)
            continue
        for k, pk in enumerate(xpow[i][:len(row)]):
            if not is_zero(pk):
                row[k] = add(row[k], mul(v, pk))
    return _horner_s(ctx, rows, psi, oy, n, 0)[0]


def _ser_powers(ctx, a, top, n):
    """[None, a, a^2, ..., a^top] mod t^n."""
    out = [None, a[:n]]
    for _ in range(top - 1):
        out.append(_ser_mul(ctx, out[-1], a, n))
    return out


# ---------------------------------------------------------------------------
# branch parametrization


class Parametrization:
    """Truncated series pair (phi(t), psi(t)) with f(phi, psi) = 0 mod t^T."""

    __slots__ = ("phi", "psi", "trunc", "ctx")

    def __init__(self, phi, psi, trunc, ctx):
        self.phi = phi
        self.psi = psi
        self.trunc = trunc
        self.ctx = ctx

    def orders(self):
        """(ord phi, ord psi), None for a series that is zero so far."""
        return (uni_order(self.ctx, self.phi),
                uni_order(self.ctx, self.psi))

    def __repr__(self):
        o1, o2 = self.orders()
        return f"Parametrization(ord phi={o1}, ord psi={o2}, T={self.trunc})"


def _horner_s(ctx, rows, s, o, n, dn):
    """(w(t, s) mod t^n, w_y(t, s) mod t^dn) for w = sum_j rows[j](t) s^j,
    ord s >= o >= 1 and dn <= n - o.

    Order lemma: row j enters the value multiplied by s^j, of order at
    least j o, so rows j >= ceil(n / o) cannot reach t^n and are dropped,
    and whatever the pass holds after row j works mod t^(n - j o).  One
    Horner pass in s carries the value V and its s-derivative D:
    (V, D) <- (V s + r_j, D s + V), D only once j o < dn.  _ser_eval
    passes o = ord psi; _solve_smooth passes o = ord w(X, 0), the order
    of its solution.
    """
    top = min(len(rows), -(-n // o)) - 1
    val = rows[top][:n - top * o]
    der = []
    for j in range(top - 1, -1, -1):
        if j * o < dn:
            m = dn - j * o
            der = _ser_addto(ctx, _ser_mul(ctx, der, s, m) if der
                             else _ser_zero(ctx, m), val)
        val = _ser_addto(ctx, _ser_mul(ctx, val, s, n - j * o), rows[j])
    return val, der


def _solve_smooth(w, n):
    """Series s with w(t, s(t)) = 0 mod t^n, for w of Y-order one at X=0.

    Order lemma: w(t, s) = w(t, 0) + s u(t, s) with u(0, 0) = w_y(0, 0)
    != 0, so the solution has ord s = v = ord w(X, 0), and s = 0 when
    w(X, 0) vanishes mod X^n.  Newton iteration on the chart curve with
    x = t therefore starts from s = 0, valid mod t^v, and doubles the
    valid order from there; every _horner_s pass, the final check
    included, runs with o = v.  Row j of w, the series sum_i c_ij t^i,
    is cut at length n - j.
    """
    ctx = w.ctx
    order = uni_order(ctx, w.subs_x0())
    if order != 1:
        raise InternalError(f"chart curve has Y-order {order}, wanted 1")
    rows = _clip_rows(ctx, _to_yrows(w), n)[0]
    s = _ser_zero(ctx, n)
    v = prec = uni_order(ctx, rows[0]) or n
    while prec < n:
        # each Newton round doubles the valid order h, so work at the
        # precision the round is about to reach; w(t, s) = O(t^h), so
        # the correction needs w_y(t, s) only mod t^(prec - h), and
        # prec - h <= prec - v since h >= v
        h, prec = prec, min(2 * prec, n)
        val, der = _horner_s(ctx, rows, s[:prec], v, prec, prec - h)
        corr = _ser_div(ctx, val[h:], der, prec - h)
        for k, ck in enumerate(corr, h):
            if not ctx.is_zero(ck):
                s[k] = ctx.sub(s[k], ck)
    if uni_order(ctx, _horner_s(ctx, rows, s, v, n, 0)[0]) is not None:
        raise InternalError("Newton iteration failed to converge")
    return s


def _maps_to_arrow(t, aid):
    """Chart maps along the path from the root to a face-root branch arrow."""
    return [hn_map(p, q, mu, t.ctx) for p, q, mu, _, _ in t.nodes[aid].path]


def _parametrize_arrow(f, t, aid, n):
    """Series of the branch ending in the given arrow, mod t^n.

    Only trees over f's own field are accepted: a tree with one branch
    never extends it, since a face polynomial lead (u - mu)^nu over a
    perfect field has mu in that field.
    """
    ctx = f.ctx
    if t.ctx != ctx:
        raise InternalError("tree field differs from the curve's")
    path = t.nodes[aid].path
    if path is None:
        # an axis branch, labelled "x = 0" or "y = 0"
        if t.vertices():
            raise InternalError("axis branch on a tree with vertices")
        phi, psi = _ser_zero(ctx, n), _ser_zero(ctx, n)
        if n > 1:
            if t.nodes[aid].label[0] == "x":
                psi[1] = ctx.one
            else:
                phi[1] = ctx.one
        return Parametrization(phi, psi, n, ctx)
    maps = _maps_to_arrow(t, aid)
    h, cut = clip_total(f, n)
    for m, (_, _, _, N, nu) in zip(maps, path):
        if not h.c:
            raise PrecisionExhausted("precision too low for the chart chain")
        got, w = m.image_order(h), m.apply(h, n)
        # the truncated chain follows the tree unless something was cut:
        # terms of f, or cofactor terms of total degree n and above
        cut = cut or any((m.p + m.A) * i + (m.q + m.B) * j - got >= n
                         for i, j in h.c)
        h = w
        order = uni_order(ctx, h.subs_x0())
        if (got, order) != (N, nu):
            if cut:
                raise PrecisionExhausted(
                    f"precision {n} too low for the chart chain")
            raise OrderMismatch(f"chart gives X^{got} and Y-order {order}, "
                                f"the tree says X^{N} and {nu}")
    psi = _solve_smooth(h, n)
    phi = _ser_zero(ctx, n)
    if n > 1:
        phi[1] = ctx.one
    for m in reversed(maps):
        shift = list(psi)
        shift[0] = ctx.add(shift[0], m.mu_bar)
        xa = _ser_mul(ctx, _ser_pow(ctx, phi, m.p, n),
                      _ser_pow(ctx, shift, m.A, n), n)
        ya = _ser_mul(ctx, _ser_pow(ctx, phi, m.q, n),
                      _ser_pow(ctx, shift, m.B, n), n)
        phi, psi = xa, ya
    res = _ser_eval(f, phi, psi, n)
    if uni_order(ctx, res) is not None:
        raise InternalError("parametrization does not annihilate the curve")
    return Parametrization(phi, psi, n, ctx)


def parametrize_branch(f, terms=64):
    """Parametrization of an irreducible f to the given precision, at
    most PRECISION_CAP terms."""
    if int(terms) > PRECISION_CAP:
        raise InputError(f"terms = {int(terms)} is above the series "
                         f"precision limit PRECISION_CAP = {PRECISION_CAP}")
    t = build_tree(f)
    arrows = t.arrows("branch")
    if len(arrows) != 1:
        raise NotIrreducible(f"{len(arrows)} branches")
    return _parametrize_arrow(f, t, arrows[0].nid, max(int(terms), 2))


# ---------------------------------------------------------------------------
# intersection multiplicities


def _origin_gate(f, g):
    """The answer of an intersection engine before any branch work: 0 when
    either curve misses the origin, INF when they share a branch through
    it, None otherwise.

    One image rules the shared branch out when it can: coprime f(a, y)
    and g(a, y) at an a != 0 with lc_y f(a) != 0 exclude every common
    factor of positive y-degree (its lc_y divides lc_y f, so it keeps its
    y-degree at a and divides both images), and x not dividing both
    excludes the rest.  Other pairs take the exact gcd.
    """
    if f.ctx != g.ctx:
        raise InternalError("mixed coefficient contexts")
    if not vanishes_at_origin(f) or not vanishes_at_origin(g):
        return 0
    if _shares_origin_branch(f, g):
        return INF
    return None


def intersect_tree(f, g):
    """Intersection number at the origin from the tree of f*g; math.inf
    when f and g share a component through the origin."""
    gate = _origin_gate(f, g)
    if gate is not None:
        return gate
    t = build_tree_multi([f, g])
    fa = [a.nid for a in t.arrows("branch") if a.owner == 0]
    ga = [a.nid for a in t.arrows("branch") if a.owner == 1]
    return sum(rho(t, a, b) for a in fa for b in ga)


def intersect_param(f, g, terms=16):
    """ord_t g(phi, psi) along the branch of f: the precision T starts at
    terms and doubles until the order certificate (order < T/2) holds."""
    gate = _origin_gate(f, g)
    if gate is not None:
        return gate
    t = build_tree(f)
    arrows = t.arrows("branch")
    if len(arrows) != 1:
        raise NotIrreducible(f"{len(arrows)} branches")
    n = max(int(terms), 4)
    while n <= PRECISION_CAP:
        try:
            par = _parametrize_arrow(f, t, arrows[0].nid, n)
        except PrecisionExhausted:
            n *= 2
            continue
        order = uni_order(f.ctx, _ser_eval(g, par.phi, par.psi, n))
        if order is not None and 2 * order < n:
            return order
        n *= 2
    raise PrecisionExhausted(
        f"no stable order below precision {PRECISION_CAP}")

