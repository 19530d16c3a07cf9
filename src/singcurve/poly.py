"""Bivariate polynomials over a field context.

A BiPoly stores a sparse dict {(i, j): coeff} with no zero coefficients.
The parser accepts sums/differences of terms built from x, y, integers,
parentheses, '^' powers and optional '*' (an extension-field context also
enables the generator symbol g); the printer emits a canonical form the
parser accepts back, except for non-integer rationals.
"""

import math
from fractions import Fraction

from .errors import NotAUnit, ParseError, ZeroPolynomial
from .field import (PrimeFieldCtx, uni_deg, uni_eval, uni_gcd, uni_mul,
                    uni_quo, uni_sub, uni_trim)


class BiPoly:
    __slots__ = ("ctx", "c")

    def __init__(self, ctx, coeffs=None):
        self.ctx = ctx
        self.c = {}
        if coeffs:
            for k, v in coeffs.items():
                if not ctx.is_zero(v):
                    self.c[k] = v

    @classmethod
    def zero(cls, ctx):
        return cls(ctx)

    @classmethod
    def const(cls, ctx, v):
        return cls(ctx, {(0, 0): v})

    @classmethod
    def monomial(cls, ctx, i, j, v=None):
        return cls(ctx, {(i, j): ctx.one if v is None else v})

    @classmethod
    def from_int_dict(cls, ctx, d):
        return cls(ctx, {k: ctx.from_int(v) for k, v in d.items()})

    def is_zero(self):
        return not self.c

    def __eq__(self, other):
        return isinstance(other, BiPoly) and self.ctx == other.ctx and self.c == other.c

    def __add__(self, other):
        ctx = self.ctx
        out = dict(self.c)
        for k, v in other.c.items():
            s = ctx.add(out.get(k, ctx.zero), v)
            if ctx.is_zero(s):
                out.pop(k, None)
            else:
                out[k] = s
        r = BiPoly(ctx)
        r.c = out
        return r

    def __neg__(self):
        ctx = self.ctx
        r = BiPoly(ctx)
        r.c = {k: ctx.neg(v) for k, v in self.c.items()}
        return r

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        r = BiPoly(self.ctx)
        mul_into(r.c, self, other)
        return r

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        r = BiPoly.const(self.ctx, self.ctx.one)
        b = self
        while n:
            if n & 1:
                r = r * b
            b = b * b
            n >>= 1
        return r

    def scale(self, v):
        ctx = self.ctx
        if ctx.is_zero(v):
            return BiPoly(ctx)
        r = BiPoly(ctx)
        r.c = {k: ctx.mul(w, v) for k, w in self.c.items()}
        return r

    def map_coeffs(self, fn, new_ctx):
        r = BiPoly(new_ctx)
        r.c = {k: fn(v) for k, v in self.c.items()}
        return r

    def coeff(self, i, j):
        return self.c.get((i, j), self.ctx.zero)

    def evaluate(self, a, b):
        ctx = self.ctx
        acc = ctx.zero
        for (i, j), v in self.c.items():
            acc = ctx.add(acc, ctx.mul(v, ctx.mul(ctx.pow(a, i), ctx.pow(b, j))))
        return acc

    def ord(self):
        """Order of vanishing at the origin (minimum total degree)."""
        if not self.c:
            raise ZeroPolynomial("ord of the zero polynomial")
        return min(i + j for i, j in self.c)

    def deg_x(self):
        return max((i for i, _ in self.c), default=-1)

    def deg_y(self):
        return max((j for _, j in self.c), default=-1)

    def x_mult(self):
        """Largest power of x dividing the polynomial."""
        if not self.c:
            raise ZeroPolynomial("x_mult of the zero polynomial")
        return min(i for i, _ in self.c)

    def y_mult(self):
        if not self.c:
            raise ZeroPolynomial("y_mult of the zero polynomial")
        return min(j for _, j in self.c)

    def div_monomial(self, a, b):
        """Exact division by x^a y^b."""
        r = BiPoly(self.ctx)
        for (i, j), v in self.c.items():
            if i < a or j < b:
                raise ValueError("monomial does not divide")
            r.c[(i - a, j - b)] = v
        return r

    def subs_y0(self):
        """f(x, 0) as a univariate coefficient list in x."""
        ctx = self.ctx
        n = max((i for (i, j) in self.c if j == 0), default=-1)
        out = [ctx.zero] * (n + 1)
        for (i, j), v in self.c.items():
            if j == 0:
                out[i] = v
        return uni_trim(ctx, out)

    def subs_x0(self):
        """f(0, y) as a univariate coefficient list in y."""
        ctx = self.ctx
        n = max((j for (i, j) in self.c if i == 0), default=-1)
        out = [ctx.zero] * (n + 1)
        for (i, j), v in self.c.items():
            if i == 0:
                out[j] = v
        return uni_trim(ctx, out)

    def __repr__(self):
        return f"BiPoly({poly_str(self)})"


def partials(f):
    """(f_x, f_y)."""
    ctx = f.ctx
    fx = BiPoly(ctx)
    fy = BiPoly(ctx)
    for (i, j), v in f.c.items():
        if i:
            w = ctx.mul_int(v, i)
            if not ctx.is_zero(w):
                fx.c[(i - 1, j)] = w
        if j:
            w = ctx.mul_int(v, j)
            if not ctx.is_zero(w):
                fy.c[(i, j - 1)] = w
    return fx, fy


def vanishes_at_origin(f):
    """f(0, 0) == 0, the zero polynomial included."""
    return f.is_zero() or f.ctx.is_zero(f.coeff(0, 0))


def clip_total(f, n):
    """f without its monomials of total degree n and above, and whether
    any fell."""
    kept = {k: v for k, v in f.c.items() if k[0] + k[1] < n}
    if len(kept) == len(f.c):
        return f, False
    r = BiPoly(f.ctx)
    r.c = kept
    return r, True


def mul_into(out, f, g, n=None):
    """Add f*g into the coefficient dict out, leaving out monomials of total
    degree n and above and removing sums that cancel to zero.  Returns
    whether any product term was left out."""
    ctx = f.ctx
    add, mul, is_zero = ctx.add, ctx.mul, ctx.is_zero
    if n is None:
        n = math.inf
    get = out.get
    cut = False
    for (i1, j1), v1 in f.c.items():
        room = n - i1 - j1
        for (i2, j2), v2 in g.c.items():
            if i2 + j2 >= room:
                cut = True
                continue
            k = (i1 + i2, j1 + j2)
            w = mul(v1, v2)
            acc = get(k)
            if acc is not None:
                w = add(acc, w)
                if is_zero(w):
                    del out[k]
                    continue
            out[k] = w
    return cut


def mul_unit_truncated(f, unit, trunc):
    """f * unit keeping total degree < trunc; unit(0,0) must be nonzero."""
    if unit.is_zero() or f.ctx.is_zero(unit.coeff(0, 0)):
        raise NotAUnit("unit factor must not vanish at the origin")
    out = BiPoly(f.ctx)
    mul_into(out.c, f, unit, trunc)
    return out


# ---------------------------------------------------------------------------
# parsing and printing


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
                acc = acc * self.factor()
            elif nxt in ("x", "y", "g", "int", "("):
                acc = acc * self.factor()
            else:
                return acc

    def factor(self):
        base = self.base()
        if self.peek() == "^":
            self.next()
            kind, val, pos = self.toks[self.pos] if self.pos < len(self.toks) else (None, None, -1)
            if kind != "int":
                raise ParseError("'^' needs a natural number exponent", pos)
            self.next()
            return base ** val
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
                raise ParseError("generator g needs an extension field context", pos)
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


def parse_poly(s, ctx):
    toks = _tokenize(s)
    if not toks:
        raise ParseError("empty input")
    p = _Parser(toks, ctx)
    out = p.expr()
    if p.pos != len(toks):
        raise ParseError(f"trailing input {toks[p.pos][1]!r}", toks[p.pos][2])
    return out


def _mono_str(i, j):
    parts = []
    if i:
        parts.append("x" if i == 1 else f"x^{i}")
    if j:
        parts.append("y" if j == 1 else f"y^{j}")
    return "*".join(parts)


def poly_str(f):
    """Canonical rendering; parse_poly(poly_str(f), ctx) == f when coefficients
    are printable (always over finite fields; over Q when denominators are 1)."""
    if f.is_zero():
        return "0"
    ctx = f.ctx
    terms = []
    for (i, j) in sorted(f.c, reverse=True):
        v = f.c[(i, j)]
        s = ctx.to_str(v)
        neg = s.startswith("-")
        if neg:
            s = s[1:]
        mono = _mono_str(i, j)
        if mono:
            if s == "1":
                body = mono
            else:
                if "+" in s or "-" in s or "/" in s:
                    s = f"({s})"
                body = f"{s}*{mono}"
        else:
            body = s
        terms.append((neg, body))
    out = []
    for idx, (neg, body) in enumerate(terms):
        if idx == 0:
            out.append(f"-{body}" if neg else body)
        else:
            out.append(f" - {body}" if neg else f" + {body}")
    return "".join(out)


# ---------------------------------------------------------------------------
# bivariate gcd and the reduced test


def _to_yrows(f):
    """BiPoly -> list over y-degree of univariate-in-x coefficient lists."""
    ctx = f.ctx
    rows = [[] for _ in range(f.deg_y() + 1)] if not f.is_zero() else []
    for (i, j), v in f.c.items():
        row = rows[j]
        if len(row) <= i:
            row.extend([ctx.zero] * (i + 1 - len(row)))
        row[i] = v
    return [uni_trim(ctx, r) for r in rows]


def _from_yrows(ctx, rows):
    out = BiPoly(ctx)
    for j, row in enumerate(rows):
        for i, v in enumerate(row):
            if not ctx.is_zero(v):
                out.c[(i, j)] = v
    return out


def _rows_trim(rows):
    while rows and not rows[-1]:
        rows.pop()
    return rows


def _rows_content(ctx, rows):
    cont = []
    for r in rows:
        cont = uni_gcd(ctx, cont, r)
    return cont


def _rows_divexact_uni(ctx, rows, d):
    return [uni_quo(ctx, r, d) if r else [] for r in rows]


def _rows_primitive(ctx, rows):
    cont = _rows_content(ctx, rows)
    if uni_deg(cont) < 1:
        return rows, cont
    return _rows_divexact_uni(ctx, rows, cont), cont


def _rows_pseudo_rem(ctx, a, b):
    """Pseudo-remainder of a by b as polynomials in y over K[x]."""
    db = len(b) - 1
    lb = b[-1]
    r = [list(c) for c in a]
    while _rows_trim(r) and len(r) - 1 >= db:
        d = len(r) - 1 - db
        lr = r[-1]
        nr = []
        for j in range(len(r) - 1):
            t = uni_mul(ctx, r[j], lb)
            if d <= j:
                t = uni_sub(ctx, t, uni_mul(ctx, lr, b[j - d]))
            nr.append(t)
        r = nr
    return _rows_trim(r)


def gcd_bipoly(f, g):
    """Gcd of two bivariate polynomials (primitive, monic-normalized lead)."""
    ctx = f.ctx
    if f.is_zero():
        return g
    if g.is_zero():
        return f
    fr, fc = _rows_primitive(ctx, _to_yrows(f))
    gr, gc = _rows_primitive(ctx, _to_yrows(g))
    cont = uni_gcd(ctx, fc if fc else [ctx.one], gc if gc else [ctx.one])
    a, b = fr, gr
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _rows_pseudo_rem(ctx, a, b)
        if not r:
            a = b
            b = []
            break
        r, _ = _rows_primitive(ctx, r)
        a, b = b, r
    if len(b) == 1:
        # gcd has y-degree 0: only the contents can share a factor
        d = uni_gcd(ctx, _rows_content(ctx, a), b[0])
        rows = [uni_mul(ctx, d, cont)] if uni_deg(uni_mul(ctx, d, cont)) >= 0 else []
        return _from_yrows(ctx, rows)
    a, _ = _rows_primitive(ctx, a)
    rows = [uni_mul(ctx, r, cont) for r in a]
    out = _from_yrows(ctx, rows)
    # normalize so the leading coefficient is monic in x
    lead = out.c[max(out.c)]
    return out.scale(ctx.inv(lead))


def reduce_mod(f, p):
    """Image in F_p of f over Q: (BiPoly, None), or (None, reason) when p
    divides a denominator or the image vanishes."""
    ctx = PrimeFieldCtx(p)
    out = BiPoly(ctx)
    for k, v in f.c.items():
        if v.denominator % p == 0:
            return None, "denominator divisible by p"
        w = ctx.div(ctx.from_int(v.numerator), ctx.from_int(v.denominator))
        if not ctx.is_zero(w):
            out.c[k] = w
    if out.is_zero():
        return None, "vanishes mod p"
    return out, None


# Primes above any degree we handle, used to certify squarefreeness over Q.
_WITNESS_PRIMES = (1000003, 1000033, 1000037, 1000039, 1000081, 1000099)


def _reduced_mod_witness(f):
    """Try to certify that f (over Q) is reduced at the origin modulo a prime.

    If some prime image preserves the bidegree and is reduced at the origin,
    so is f: a repeated factor through the origin would survive reduction
    with its degree intact.  Returns False when no listed prime certifies;
    that is not a proof of a repeated factor, only a cue to compute exactly.
    """
    den = math.lcm(*(v.denominator for v in f.c.values()))
    cont = math.gcd(*(int(v * den) for v in f.c.values()))
    ints = f.scale(Fraction(den, cont))
    dx, dy = f.deg_x(), f.deg_y()
    for p in _WITNESS_PRIMES:
        fp, _ = reduce_mod(ints, p)
        if fp is None or fp.deg_x() != dx or fp.deg_y() != dy:
            continue
        if reduced_check(fp)[0]:
            return True
    return False


def _reduced_eval_fast(f, fx, fy):
    """Decide gcd(f, fx, fy) by evaluation when it has no y in it.

    At a point a where the leading y-coefficient of f survives, every
    common factor with positive y-degree keeps its y-degree under x = a,
    so a constant gcd of the evaluations proves the true common factor
    lies in K[x].  There it equals the gcd of the y-contents, and the
    germ is reduced exactly when that gcd does not vanish at x = 0.
    Returns None when no point certifies; the caller then falls back to
    the full bivariate gcd.
    """
    ctx = f.ctx
    rows = [_to_yrows(g) for g in (f, fx, fy) if not g.is_zero()]
    lead = rows[0][-1]
    limit = uni_deg(lead) + 4
    if ctx.characteristic:
        limit = min(limit, ctx.characteristic)
    strikes = 0
    for k in range(limit):
        a = ctx.from_int(k)
        if ctx.is_zero(uni_eval(ctx, lead, a)):
            continue
        u = []
        for rs in rows:
            ev = uni_trim(ctx, [uni_eval(ctx, r, a) for r in rs])
            u = uni_gcd(ctx, u, ev)
            if uni_deg(u) == 0:
                break
        if uni_deg(u) != 0:
            # either a y-positive common factor or a chance collision
            strikes += 1
            if strikes >= 3:
                return None
            continue
        cont = []
        for rs in rows:
            cont = uni_gcd(ctx, cont, _rows_content(ctx, rs))
        if uni_deg(cont) <= 0 or not ctx.is_zero(cont[0]):
            return True, None
        return False, _from_yrows(ctx, [cont])
    return None


def reduced_check(f):
    """(is_reduced_as_a_germ, witness).

    The witness is a repeated factor through the origin, or the p-th root when
    f lies in K[x^p, y^p].  Units are reduced.  Uses gcd(f, f_x, f_y): f is
    reduced at the origin iff that gcd does not vanish there.  Over Q a
    modular certificate is tried first, since the subresultant chain on
    rational coefficients is painfully slow on curves of any size.
    """
    ctx = f.ctx
    if f.is_zero():
        raise ZeroPolynomial("reduced_check of the zero polynomial")
    if not ctx.is_zero(f.coeff(0, 0)):
        return True, None
    fx, fy = partials(f)
    if fx.is_zero() and fy.is_zero():
        # f in K[x^p, y^p] is a p-th power over a perfect field
        p = ctx.characteristic
        e = p ** (ctx.ext_degree - 1)
        root = BiPoly(ctx)
        for (i, j), v in f.c.items():
            root.c[(i // p, j // p)] = ctx.pow(v, e)
        return False, root
    if ctx.characteristic == 0 and _reduced_mod_witness(f):
        return True, None
    fast = _reduced_eval_fast(f, fx, fy)
    if fast is not None:
        return fast
    d = gcd_bipoly(gcd_bipoly(f, fx), fy)
    if d.is_zero() or not ctx.is_zero(d.coeff(0, 0)):
        return True, None
    return False, d
