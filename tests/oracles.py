"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately naive (exhaustive scans, sympy, direct
series substitution) and shares no code with the library's own algorithms.
"""

from collections import namedtuple
from fractions import Fraction

import sympy
from sympy import GF, Poly, symbols

from singcurve.errors import (BadOrder, InternalError, NotCoprime,
                             OrderMismatch, ParityViolation, ParseError)
from singcurve.field import (uni_divmod, uni_gcd, uni_monic, uni_mul,
                             uni_order, uni_quo, uni_sub, uni_trim)
from singcurve.hn import hn_map
from singcurve.invariants import INF
from singcurve.poly import DEGREE_LIMIT, BiPoly, clip_total, vanishes_at_origin

X, Y, U, T = symbols("x y u t")


def small_elem(ctx, a, b):
    """a + b g over F_{p^k}, a / (1 + |b|) over Q, a mod p over F_p: a
    field element from two small integers, for generated test inputs."""
    if ctx.ext_degree > 1:
        return ctx.add(ctx.from_int(a), ctx.mul_int(ctx.gen, b))
    if ctx.characteristic == 0:
        return Fraction(a, 1 + abs(b))
    return ctx.from_int(a)


def brute_roots(ctx, coeffs):
    """Roots in ctx of a coefficient list, with multiplicities, by scanning."""
    from singcurve.field import uni_deg, uni_eval, uni_quo

    out = []
    for e in ctx.elements():
        m = 0
        f = list(coeffs)
        while uni_deg(f) >= 1 and ctx.is_zero(uni_eval(ctx, f, e)):
            f = uni_quo(ctx, f, [ctx.neg(e), ctx.one])
            m += 1
        if m:
            out.append((e, m))
    return out


def sympy_factor_fp(coeffs, p):
    """Multiset of (coeff tuple, mult) for the monic factorization over GF(p)."""
    poly = Poly(list(reversed(coeffs)), U, domain=GF(p))
    _, factors = poly.factor_list()
    out = []
    for fac, m in factors:
        monic = fac.monic()
        cs = [int(c) % p for c in reversed(monic.all_coeffs())]
        out.append((tuple(cs), m))
    return sorted(out)


def _sym_coeff(c):
    if isinstance(c, int):
        return sympy.Integer(c)
    return sympy.Rational(c.numerator, c.denominator)


def sympy_bipoly(d, p):
    """Build a sympy Poly in (x, y) from a coefficient dict over GF(p) or QQ."""
    expr = sum(_sym_coeff(c) * X**i * Y**j for (i, j), c in d.items())
    dom = GF(p) if p else "QQ"
    return Poly(expr, X, Y, domain=dom)


def resultant_order(fd, gd, p):
    """ord_x Res_y(f, g), or None when the oracle's preconditions fail.

    Valid as the local intersection number at the origin when the only common
    solution of f(0, y) = g(0, y) = 0 is y = 0 and one of the leading
    y-coefficients does not vanish at x = 0.
    """
    f = sympy_bipoly(fd, p)
    g = sympy_bipoly(gd, p)
    fl = Poly(f, Y).LC()
    gl = Poly(g, Y).LC()
    if sympy.simplify(fl.subs(X, 0) if hasattr(fl, "subs") else fl) == 0 and \
       sympy.simplify(gl.subs(X, 0) if hasattr(gl, "subs") else gl) == 0:
        return None
    f0 = Poly(f.as_expr().subs(X, 0), Y, domain=f.domain)
    g0 = Poly(g.as_expr().subs(X, 0), Y, domain=g.domain)
    if f0.is_zero or g0.is_zero:
        return None
    common = f0.gcd(g0)
    # the only shared root on x = 0 must be y = 0
    if common.degree() > 0:
        quot, rem = common.div(Poly(Y**common.degree(), Y, domain=common.domain))
        if not rem.is_zero or not quot.is_ground:
            return None
    res = sympy.resultant(f.as_expr(), g.as_expr(), Y)
    rp = Poly(res, X, domain=f.domain)
    if rp.is_zero:
        return None
    coeffs = rp.all_coeffs()[::-1]
    o = 0
    while coeffs[o] == 0:
        o += 1
    return o


def series_order(fd, phi, psi, p, trunc):
    """ord_t f(phi(t), psi(t)) via direct sympy substitution mod t^trunc."""
    expr = sum(int(c) * X**i * Y**j for (i, j), c in fd.items())
    s = expr.subs({X: phi, Y: psi})
    s = sympy.expand(s)
    poly = Poly(s, T)
    coeffs = poly.all_coeffs()[::-1]
    for o, c in enumerate(coeffs):
        cv = c % p if p else c
        if cv != 0 and o < trunc:
            return o
    return None


def semigroup_from_generators(gens, bound):
    """All semigroup elements <= bound generated by gens (with 0)."""
    reach = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for g in gens:
            w = v + g
            if w <= bound and w not in reach:
                reach.add(w)
                frontier.append(w)
    return sorted(reach)


def tree_path(tree, src, dst):
    """Unique path src -> dst as a list of (node id, eid) steps, dst last."""
    prev = {src: None}
    stack = [src]
    while stack:
        nid = stack.pop()
        if nid == dst:
            break
        for eid, other, _, _ in tree.neighbors(nid):
            if other not in prev:
                prev[other] = (nid, eid)
                stack.append(other)
    path = []
    cur = dst
    while prev[cur] is not None:
        nid, eid = prev[cur]
        path.append((cur, eid))
        cur = nid
    path.reverse()
    return path


def rho_bar_path(tree, src, alpha):
    """Product over chain vertices on the path of their off-path decorations.

    The path runs from src to the arrow alpha; src itself counts as on the
    path, arrow endpoints do not contribute.
    """
    path = tree_path(tree, src, alpha)
    on_path = {eid for _, eid in path}
    out = 1
    for nid in [src] + [n for n, _ in path]:
        node = tree.nodes[nid]
        if node.kind != "vertex":
            continue
        for eid, _, dself, _ in tree.neighbors(nid):
            if eid not in on_path:
                out *= dself
    return out


def multiplicity_sum_check(tree):
    """N_v == sum of rho_bar(v, alpha) over branch arrows, for every v in
    V union A0.  Returns the list of offending node ids (empty when clean)."""
    branches = [n.nid for n in tree.arrows("branch")]
    bad = []
    for n in list(tree.vertices()) + list(tree.arrows("zero")):
        got = sum(rho_bar_path(tree, n.nid, a) for a in branches)
        if got != n.N:
            bad.append(n.nid)
    return bad


# ---------------------------------------------------------------------------
# reference series path: the generic two-variable Horner and Newton loop the
# library used before its chart solve was specialised to phi = t.  The chart
# chain comes from the library's tree walk, but each chart is expanded in
# full and cut afterwards, so the truncated chart maps are checked too.


def series_product(ctx, a, b, n):
    """a*b mod t^n, coefficient k the direct sum of a_i b_(k - i) over
    the nonzero pairs."""
    nza, nzb = ([not ctx.is_zero(c) for c in s] for s in (a, b))
    out = []
    for k in range(n):
        acc = ctx.zero
        for i in range(max(0, k - len(b) + 1), min(k + 1, len(a))):
            if nza[i] and nzb[k - i]:
                acc = ctx.add(acc, ctx.mul(a[i], b[k - i]))
        out.append(acc)
    return out


def _ref_pow(ctx, a, e, n):
    out = [ctx.zero] * n
    out[0] = ctx.one
    base = a
    while e:
        if e & 1:
            out = series_product(ctx, out, base, n)
        e >>= 1
        if e:
            base = series_product(ctx, base, base, n)
    return out


def _ref_inv(ctx, a, n):
    inv0 = ctx.inv(a[0])
    out = [ctx.zero] * n
    out[0] = inv0
    for k in range(1, n):
        s = ctx.zero
        for i in range(1, min(k, len(a) - 1) + 1):
            s = ctx.add(s, ctx.mul(a[i], out[k - i]))
        out[k] = ctx.neg(ctx.mul(inv0, s))
    return out


def _ref_eval_row(ctx, cols, phi, n):
    acc = [ctx.zero] * n
    prev = None
    for i in sorted(cols, reverse=True):
        if prev is not None:
            acc = series_product(ctx, acc, _ref_pow(ctx, phi, prev - i, n), n)
        acc[0] = ctx.add(acc[0], cols[i])
        prev = i
    if prev:
        acc = series_product(ctx, acc, _ref_pow(ctx, phi, prev, n), n)
    return acc


def horner_eval(g, phi, psi, n):
    """g(phi(t), psi(t)) mod t^n, Horner in y over Horner-in-x rows, for
    series phi, psi without constant term."""
    ctx = g.ctx
    rows = {}
    for (i, j), v in g.c.items():
        if i + j < n:
            rows.setdefault(j, {})[i] = v
    acc = [ctx.zero] * n
    prev = None
    for j in sorted(rows, reverse=True):
        if prev is not None:
            acc = series_product(ctx, acc, _ref_pow(ctx, psi, prev - j, n), n)
        row = _ref_eval_row(ctx, rows[j], phi, n)
        acc = [ctx.add(a, b) for a, b in zip(acc, row)]
        prev = j
    if prev:
        acc = series_product(ctx, acc, _ref_pow(ctx, psi, prev, n), n)
    return acc


def _ref_trunc(f, n):
    r = f.__class__(f.ctx)
    r.c = {k: v for k, v in f.c.items() if k[0] + k[1] < n}
    return r


def newton_solve(w, n):
    """s with w(t, s(t)) = 0 mod t^n by Newton steps that evaluate w and
    w_y at (t, s) through horner_eval."""
    from singcurve.poly import partials

    ctx = w.ctx
    wy = partials(w)[1]
    s = [ctx.zero] * n
    prec = 1
    while prec < n:
        prec = min(2 * prec, n)
        ident = [ctx.zero] * prec
        ident[1] = ctx.one
        cur = s[:prec]
        val = horner_eval(w, ident, cur, prec)
        der = horner_eval(wy, ident, cur, prec)
        corr = series_product(ctx, val, _ref_inv(ctx, der, prec), prec)
        for k in range(prec):
            s[k] = ctx.sub(cur[k], corr[k])
    return s


def reference_parametrization(f, n):
    """(phi, psi) mod t^n for the single, non-axis branch of f."""
    from singcurve.invariants import _maps_to_arrow
    from singcurve.tree import build_tree

    t = build_tree(f)
    (arrow,) = t.arrows("branch")
    ctx = f.ctx
    assert arrow.path is not None, "axis branches have no chart chain"
    maps = _maps_to_arrow(t, arrow.nid)
    h = _ref_trunc(f, n)
    for m in maps:
        h = m.apply(h)
        h = _ref_trunc(h, n)
    psi = newton_solve(h, n)
    phi = [ctx.zero] * n
    phi[1] = ctx.one
    for m in reversed(maps):
        shift = list(psi)
        shift[0] = ctx.add(shift[0], m.mu_bar)
        phi, psi = (
            series_product(ctx, _ref_pow(ctx, phi, m.p, n),
                     _ref_pow(ctx, shift, m.A, n), n),
            series_product(ctx, _ref_pow(ctx, phi, m.q, n),
                     _ref_pow(ctx, shift, m.B, n), n))
    return phi, psi


# ---------------------------------------------------------------------------
# Hamburger-Noether charts the long way: the Euclid recurrence sequences
# behind the chart exponents, checked against their defining identities,
# the chart images as polynomials, a generic substitution, and one
# transform step checked against its face.


# Subscripts follow the chain p = k_1 q + r_1, ..., r_nbar = k_(nbar+2),
# with r_(nbar+1) = 1.  The dicts m, n run over 0..nbar+2 and mt, nt over
# 0..nbar+1; p_prime = n_(nbar+2) and q_prime = nt_(nbar+1).
EuclidData = namedtuple("EuclidData",
                        "p q k r nbar m n mt nt p_prime q_prime")


def euclid_sequences(p, q):
    """Sequences for coprime p >= q >= 1."""
    if p < q or q < 1:
        raise BadOrder(f"need p >= q >= 1, got ({p}, {q})")
    r = {0: q}
    k = {}
    a, b = p, q
    i = 0
    while b != 0:
        i += 1
        k[i], b2 = divmod(a, b)
        a, b = b, b2
        r[i] = b
    if a != 1:
        raise NotCoprime(f"gcd({p}, {q}) = {a}")
    # r[nbar + 1] = 1, r[nbar + 2] = 0
    nbar = i - 2 if q > 1 else -1
    if r[nbar + 1] != 1 or r.get(nbar + 2, 0) != 0:
        raise InternalError("remainder chain out of shape")
    m, n = {0: 1}, {0: 0}
    for j in range(nbar + 2):
        m[j + 1] = m[j] * k[j + 1] + n[j]
        n[j + 1] = m[j]
    mt, nt = {0: 1}, {0: 0}
    for j in range(nbar + 1):
        mt[j + 1] = mt[j] * k[j + 2] + nt[j]
        nt[j + 1] = mt[j]
    ed = EuclidData(p, q, k, r, nbar, m, n, mt, nt, n[nbar + 2],
                    nt[nbar + 1])
    _check_euclid(ed)
    return ed


def _check_euclid(ed):
    p, q, r, nbar = ed.p, ed.q, ed.r, ed.nbar
    rfull = {-1: p}
    rfull.update(r)
    for i in range(nbar + 3):
        if p != ed.m[i] * rfull[i - 1] + ed.n[i] * rfull[i]:
            raise InternalError("p-recurrence violated")
    for i in range(nbar + 2):
        if q != ed.mt[i] * rfull[i] + ed.nt[i] * rfull.get(i + 1, 0):
            raise InternalError("q-recurrence violated")
    for i in range(nbar + 2):
        delta = ed.n[i + 1] * ed.mt[i] - ed.nt[i] * ed.m[i + 1]
        if delta != (-1) ** i:
            raise ParityViolation(f"Delta_{i} = {delta}")
    if p != ed.m[nbar + 2] or q != ed.mt[nbar + 1]:
        raise InternalError("final sequence values disagree with (p, q)")
    if not (0 <= ed.p_prime <= p and 0 <= ed.q_prime <= q):
        raise InternalError("final exponents out of range")
    det = p * ed.q_prime - q * ed.p_prime
    if det * (-1) ** (nbar % 2) != 1:
        raise ParityViolation(f"chart determinant {det} at nbar={nbar}")


def euclid_exponents(p, q):
    """(A, B, sign) of the chart for the face (p, q), from the sequences."""
    if p >= q:
        ed = euclid_sequences(p, q)
        A, B = ed.p_prime, ed.q_prime
    else:
        ed = euclid_sequences(q, p)
        A, B = ed.q_prime, ed.p_prime
    return A, B, q * A - p * B


def _chart_image(m, a, e):
    shift = BiPoly(m.ctx, {(0, 1): m.ctx.one, (0, 0): m.mu_bar})
    return BiPoly.monomial(m.ctx, a, 0) * shift ** e


def x_image(m):
    """X^p (Y + mu_bar)^A for the chart map m."""
    return _chart_image(m, m.p, m.A)


def y_image(m):
    """X^q (Y + mu_bar)^B for the chart map m."""
    return _chart_image(m, m.q, m.B)


def full_image(f, m):
    """f(map) in full, its power of X included, by naive substitution of
    the chart images."""
    return substitute(f, x_image(m), y_image(m))


def full_product(f, g, n=None):
    """clip_total of the whole product f*g at total degree n, which is
    formed term by term first; with n None, (f*g, False)."""
    ctx = f.ctx
    full = {}
    for (i1, j1), v1 in f.c.items():
        for (i2, j2), v2 in g.c.items():
            k = (i1 + i2, j1 + j2)
            full[k] = ctx.add(full.get(k, ctx.zero), ctx.mul(v1, v2))
    prod = BiPoly(ctx, full)
    return (prod, False) if n is None else clip_total(prod, n)


def substitute(f, xv, yv):
    """f(xv, yv) for BiPoly arguments xv, yv, term by term."""
    acc = BiPoly.zero(f.ctx)
    for (i, j), v in f.c.items():
        acc = acc + (xv ** i * yv ** j).scale(v)
    return acc


def hn_transform(f, face, root):
    """Transform f along one face root (mu, nu) with nu >= 2.

    Returns (N, w, map): f(map) = X^N w, N the face's value, w coprime to X
    and with w(0, Y) of order exactly nu.
    """
    mu, nu = root
    m = hn_map(face.p, face.q, mu, f.ctx)
    n, w = m.image_order(f), m.apply(f)
    if n != face.N:
        raise InternalError(f"transform dropped X^{n}, face says {face.N}")
    w0 = _subs_x0(w)
    order = next((i for i, c in enumerate(w0) if not f.ctx.is_zero(c)), None)
    if order != nu:
        raise OrderMismatch(f"cofactor has Y-order {order}, root said {nu}")
    return n, w, m


# ---------------------------------------------------------------------------
# bivariate gcd by the primitive polynomial remainder sequence in y over
# K[x], on its own row helpers: slow on large inputs but direct, the
# reference for the library's evaluation-interpolation gcd.


def _prs_rows(f):
    ctx = f.ctx
    rows = [[] for _ in range(f.deg_y() + 1)]
    for (i, j), v in f.c.items():
        row = rows[j]
        row.extend([ctx.zero] * (i + 1 - len(row)))
        row[i] = v
    return [uni_trim(ctx, r) for r in rows]


def _prs_primitive(ctx, rows):
    cont = []
    for r in rows:
        cont = uni_gcd(ctx, cont, r)
    return [uni_quo(ctx, r, cont) if r else [] for r in rows], cont


def _prs_rem(ctx, a, b):
    """Pseudo-remainder of a by b in y, with trailing zero rows dropped."""
    lb = b[-1]
    r = [list(c) for c in a]
    while True:
        while r and not r[-1]:
            r.pop()
        if len(r) < len(b):
            return r
        d = len(r) - len(b)
        lr = r.pop()
        r = [uni_sub(ctx, uni_mul(ctx, c, lb),
                     uni_mul(ctx, lr, b[j - d]) if j >= d else [])
             for j, c in enumerate(r)]


def gcd_prs(f, g):
    """gcd(f, g) by the primitive PRS, scaled so that the coefficient of its
    largest key (i, j) is 1; gcd(f, 0) is f so scaled."""
    ctx = f.ctx
    if f.is_zero() or g.is_zero():
        a = [] if f.is_zero() and g.is_zero() else _prs_rows(g if f.is_zero() else f)
        cont = [ctx.one]
    else:
        a, fc = _prs_primitive(ctx, _prs_rows(f))
        b, gc = _prs_primitive(ctx, _prs_rows(g))
        cont = uni_gcd(ctx, fc, gc)
        if len(a) < len(b):
            a, b = b, a
        while len(b) > 1:
            a, b = b, _prs_primitive(ctx, _prs_rem(ctx, a, b))[0]
        if b:
            # y-degree 0: only the contents can share a factor
            a = [uni_gcd(ctx, _prs_primitive(ctx, a)[1], b[0])]
        else:
            a = _prs_primitive(ctx, a)[0]
        a = [uni_mul(ctx, r, cont) for r in a]
    out = BiPoly(ctx, {(i, j): v for j, r in enumerate(a)
                       for i, v in enumerate(r)})
    return out.scale(ctx.inv(out.c[max(out.c)])) if out.c else out


def euclid_gcd(ctx, f, g):
    """Monic gcd by Euclid's algorithm through ctx, a field division at
    every step: the reference for uni_gcd over Q, which runs a primitive
    remainder sequence on integer rows instead."""
    a, b = list(f), list(g)
    while b:
        a, b = b, uni_divmod(ctx, a, b)[1]
    return uni_monic(ctx, a)


# ---------------------------------------------------------------------------
# one round of the Milnor reduction on BiPoly dicts, term by term through
# full_product: dict_reduce_pair is the reference for the library's round
# on y-rows (milnor._reduce_pair), with the same rounds, budget cut, clips
# and certificate; the earlier fixed-cut round, dict_reduce_pair_fixed_cut,
# is the reference for the values that local_intersection returns.


def _subs_x0(f):
    """f(0, y) as a coefficient list in y."""
    top = max((j for i, j in f.c if not i), default=-1)
    return uni_trim(f.ctx, [f.coeff(0, j) for j in range(top + 1)])


def _subs_y0(f):
    """f(x, 0) as a coefficient list in x."""
    top = max((i for i, _ in f.c), default=-1)
    return uni_trim(f.ctx, [f.coeff(i, 0) for i in range(top + 1)])


def _div_monomial(f, a, b):
    """f / (x^a y^b) for a monomial that divides f."""
    return BiPoly(f.ctx, {(i - a, j - b): v for (i, j), v in f.c.items()})


def dict_sub_mul_clip(g, f, q, n):
    """g - q(x)*f keeping total degree < n; flags dropped terms.  The top
    term of each y-row of q(x)*f is nonzero, so a product term of degree n
    or more exists iff the cut product lost one."""
    ctx = g.ctx
    neg_q = BiPoly(ctx, {(k, 0): ctx.neg(c) for k, c in enumerate(q)})
    prod, dropped = full_product(neg_q, f, n)
    return g + prod, dropped


def _dict_strip(f, g):
    """f and g without their monomial factors, and what that adds to the
    value; None when an axis divides both."""
    ctx = f.ctx
    gained = 0
    for first in (True, False):
        h = f if first else g
        other = g if first else f
        a, b = min(i for i, _ in h.c), min(j for _, j in h.c)
        if a or b:
            for mult, rest in ((a, _subs_x0(other)), (b, _subs_y0(other))):
                if not mult:
                    continue
                o = uni_order(ctx, rest)
                if o is None:
                    return None
                gained += mult * o
            h = _div_monomial(h, a, b)
            if first:
                f = h
            else:
                g = h
    return f, g, gained


def _dict_step(f, g, width):
    """Cancel the y = 0 restriction of the longer one down to a remainder,
    cut at total degree width: the new pair and whether a term fell."""
    ctx = f.ctx
    fr, gr = _subs_y0(f), _subs_y0(g)
    if len(fr) > len(gr):
        f, g, fr, gr = g, f, gr, fr
    q, _ = uni_divmod(ctx, gr, fr)
    g, dropped = dict_sub_mul_clip(g, f, q, width)
    return f, g, dropped


def _is_unit_pair(f, g):
    return not vanishes_at_origin(f) or not vanishes_at_origin(g)


def dict_reduce_pair(f, g, n):
    """One reduction round at precision n: each step cut at total degree
    n - acc, both polynomials clipped to that cut whenever acc grows, and a
    round that cut anything certified iff its value is < n.  The value,
    INF or None."""
    acc = 0
    width = n
    f, fc = clip_total(f, n)
    g, gc = clip_total(g, n)
    cut = fc or gc
    if f.is_zero() or g.is_zero():
        return None
    while True:
        if _is_unit_pair(f, g):
            return acc if not cut or acc < n else None
        stripped = _dict_strip(f, g)
        if stripped is None:
            return None if cut else INF
        f, g, gained = stripped
        acc += gained
        if _is_unit_pair(f, g):
            return acc if not cut or acc < n else None
        if acc >= n:
            return None
        if n - acc < width:
            width = n - acc
            f, fc = clip_total(f, width)
            g, gc = clip_total(g, width)
            if fc or gc:
                cut = True
                if f.is_zero() or g.is_zero():
                    return None
                continue
        f, g, dropped = _dict_step(f, g, width)
        cut = cut or dropped
        if g.is_zero():
            return None if cut else INF


def dict_reduce_pair_fixed_cut(f, g, n):
    """One reduction round with every step cut at total degree n, certified
    when (value - acc at the first cut) < n: the value, INF or None."""
    acc = 0
    base = None  # acc when truncation first bit, None while the run is exact
    f, fc = clip_total(f, n)
    g, gc = clip_total(g, n)
    if fc or gc:
        base = 0
    if f.is_zero() or g.is_zero():
        return None
    while True:
        if acc >= n and (base is None or acc - base >= n):
            return None
        if _is_unit_pair(f, g):
            return acc if base is None or acc - base < n else None
        stripped = _dict_strip(f, g)
        if stripped is None:
            return INF if base is None else None
        f, g, gained = stripped
        acc += gained
        if _is_unit_pair(f, g):
            return acc if base is None or acc - base < n else None
        f, g, dropped = _dict_step(f, g, n)
        if dropped and base is None:
            base = acc
        if g.is_zero():
            return INF if base is None else None


def reference_intersection(f, g):
    """Intersection multiplicity at the origin as local_intersection found
    it before the budget: fixed-cut rounds at n = 32, 64, ... until one
    certifies.  A shared branch certifies no finite value, so once a round
    fails at n >= 128, or past the Bezout bound, the PRS gcd tells
    infinity; without a shared branch every round past the bound
    certifies."""
    if not vanishes_at_origin(f) or not vanishes_at_origin(g):
        return 0
    if f.is_zero() or g.is_zero():
        return INF
    bound = max(i + j for i, j in f.c) * max(i + j for i, j in g.c)
    n, fence = 32, min(128, bound + 1)
    while (v := dict_reduce_pair_fixed_cut(f, g, n)) is None:
        if n >= fence:
            if vanishes_at_origin(gcd_prs(f, g)):
                return INF
            fence = INF
        assert n <= bound, "no round certified"
        n *= 2
    return v


# ---------------------------------------------------------------------------
# the recursive-descent parser, the reference for poly.parse_poly: the same
# grammar and errors, with products and powers formed term by term


_TOKEN_CHARS = set("xyg+-*^()")


def _tokenize(s):
    toks = []
    i = 0
    while i < len(s):
        ch = s[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(s) and s[j].isdigit():
                j += 1
            toks.append(("int", int(s[i:j]), i))
            i = j
            continue
        if ch in _TOKEN_CHARS:
            toks.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    return toks


class _Parser:
    def __init__(self, toks, ctx):
        self.toks = toks
        self.pos = 0
        self.ctx = ctx

    def peek(self):
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expr(self):
        neg = False
        if self.peek() == "-":
            self.next()
            neg = True
        elif self.peek() == "+":
            self.next()
        acc = self.term()
        if neg:
            acc = -acc
        while self.peek() in ("+", "-"):
            op = self.next()[0]
            t = self.term()
            acc = acc + t if op == "+" else acc - t
        return acc

    def term(self):
        acc = self.factor()
        while True:
            nxt = self.peek()
            if nxt == "*":
                self.next()
                acc = full_product(acc, self.factor())[0]
            elif nxt in ("x", "y", "g", "int", "("):
                acc = full_product(acc, self.factor())[0]
            else:
                return acc

    def factor(self):
        base = self.base()
        if self.peek() == "^":
            self.next()
            kind, val, pos = (self.toks[self.pos] if self.pos < len(self.toks)
                              else (None, None, -1))
            if kind != "int":
                raise ParseError("'^' needs a natural number exponent", pos)
            self.next()
            deg = max((i + j for i, j in base.c), default=0)
            if val * max(deg, 1) > DEGREE_LIMIT:
                raise ParseError(f"power ^{val} of a degree-{deg} base is "
                                 f"above DEGREE_LIMIT = {DEGREE_LIMIT}", pos)
            out = BiPoly.const(self.ctx, self.ctx.one)
            for _ in range(val):
                out = full_product(out, base)[0]
            return out
        return base

    def base(self):
        if self.pos >= len(self.toks):
            raise ParseError("unexpected end of input")
        kind, val, pos = self.next()
        ctx = self.ctx
        if kind == "x":
            return BiPoly.monomial(ctx, 1, 0)
        if kind == "y":
            return BiPoly.monomial(ctx, 0, 1)
        if kind == "g":
            if getattr(ctx, "k", 1) < 2:
                raise ParseError("generator g needs an extension field "
                                 "context", pos)
            return BiPoly.const(ctx, ctx.gen)
        if kind == "int":
            return BiPoly.const(ctx, ctx.from_int(val))
        if kind == "(":
            inner = self.expr()
            if self.peek() != ")":
                raise ParseError("missing ')'", pos)
            self.next()
            return inner
        raise ParseError(f"unexpected token {val!r}", pos)


def reference_parse(s, ctx):
    """parse_poly by recursive descent over a token list."""
    toks = _tokenize(s)
    if not toks:
        raise ParseError("empty input")
    p = _Parser(toks, ctx)
    out = p.expr()
    if p.pos != len(toks):
        raise ParseError(f"trailing input {toks[p.pos][1]!r}", toks[p.pos][2])
    return out


def miller_rabin(n, bases):
    """Whether the odd n > max(bases) passes the strong probable-prime test
    to every one of the bases."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
