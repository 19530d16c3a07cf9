"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately naive (exhaustive scans, sympy, direct
series substitution) and shares no code with the library's own algorithms.
"""

import sympy
from sympy import GF, Poly, symbols

X, Y, U, T = symbols("x y u t")


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


def _ref_mul(ctx, a, b, n):
    out = [ctx.zero] * n
    for i, ai in enumerate(a[:n]):
        if ctx.is_zero(ai):
            continue
        for j in range(min(n - i, len(b))):
            if not ctx.is_zero(b[j]):
                out[i + j] = ctx.add(out[i + j], ctx.mul(ai, b[j]))
    return out


def _ref_pow(ctx, a, e, n):
    out = [ctx.zero] * n
    out[0] = ctx.one
    base = a
    while e:
        if e & 1:
            out = _ref_mul(ctx, out, base, n)
        e >>= 1
        if e:
            base = _ref_mul(ctx, base, base, n)
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
            acc = _ref_mul(ctx, acc, _ref_pow(ctx, phi, prev - i, n), n)
        acc[0] = ctx.add(acc[0], cols[i])
        prev = i
    if prev:
        acc = _ref_mul(ctx, acc, _ref_pow(ctx, phi, prev, n), n)
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
            acc = _ref_mul(ctx, acc, _ref_pow(ctx, psi, prev - j, n), n)
        row = _ref_eval_row(ctx, rows[j], phi, n)
        acc = [ctx.add(a, b) for a, b in zip(acc, row)]
        prev = j
    if prev:
        acc = _ref_mul(ctx, acc, _ref_pow(ctx, psi, prev, n), n)
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
        corr = _ref_mul(ctx, val, _ref_inv(ctx, der, prec), prec)
        for k in range(prec):
            s[k] = ctx.sub(cur[k], corr[k])
    return s


def reference_parametrization(f, n):
    """(phi, psi) mod t^n for the single, non-axis branch of f."""
    from singcurve.hn import transform_with_map
    from singcurve.invariants import _lift_poly, _maps_to_arrow
    from singcurve.tree import build_tree

    t = build_tree(f)
    (arrow,) = t.arrows("branch")
    ctx = t.meta["ctx"]
    maps, axis = _maps_to_arrow(t, arrow.nid)
    assert axis is None, "axis branches have no chart chain"
    h = _ref_trunc(_lift_poly(t.meta["steps"], f, ctx), n)
    for m in maps:
        _, h = transform_with_map(h, m)
        h = _ref_trunc(h, n)
    psi = newton_solve(h, n)
    phi = [ctx.zero] * n
    phi[1] = ctx.one
    for m in reversed(maps):
        shift = list(psi)
        shift[0] = ctx.add(shift[0], m.mu_bar)
        phi, psi = (
            _ref_mul(ctx, _ref_pow(ctx, phi, m.p, n),
                     _ref_pow(ctx, shift, m.A, n), n),
            _ref_mul(ctx, _ref_pow(ctx, phi, m.q, n),
                     _ref_pow(ctx, shift, m.B, n), n))
    return phi, psi
