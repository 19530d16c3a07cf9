"""Bivariate polynomials over a field context.

A BiPoly stores a sparse dict {(i, j): coeff} with no zero coefficients.
The parser accepts sums/differences of terms built from x, y, integers,
parentheses, '^' powers and optional '*' (an extension-field context also
enables the generator symbol g); the printer emits a canonical form the
parser accepts back, except for non-integer rationals.

parse_poly reads the text once.  One regex gives its tokens, each atom (an
integer, x, y, g or a closing parenthesis) with the exponent it carries.
A term is kept as (c, i, j), c x^i y^j, times the product of its
parenthesised groups, and folds into the one dict of its sum when it
ends.  Only groups multiply and power whole polynomials: field.power
forms a group's power once DEGREE_LIMIT admits it, and each product of
groups, and each product in a power, is priced from its two operands
(_product_work) and refused above POWER_WORK_LIMIT before BiPoly.__mul__
forms it.  So a text's work is at most the cap times its number of
products, and a refused power has formed only its cheaper squarings.

A product f g goes term by term unless the density rule (_dense_layout)
finds its term pairs more than twice the box of its exponents.  Then
x^i y^j becomes t^(i + jD), D the width of that box in x, and one
FieldCtx.mul_series call multiplies the two series (Kronecker 1882,
Schoenhage 1982): the codec that sub_mul_rows shares.
"""

import functools
import itertools
import operator
import re

from .errors import ParseError, ZeroPolynomial
from .field import (ExtFieldCtx, PrimeFieldCtx, embedding, power, uni_add,
                    uni_deg, uni_deriv, uni_eval, uni_gcd, uni_mul, uni_order,
                    uni_quo, uni_scale, uni_sub, uni_trim)


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

    def is_zero(self):
        return not self.c

    def __eq__(self, other):
        """Equality of polynomials: the coefficients are kept as given, so
        the difference is compared with zero through the context."""
        return (isinstance(other, BiPoly) and self.ctx == other.ctx
                and (self - other).is_zero())

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
        """The product, with sums that cancel to zero removed: one packed
        product when _dense_layout finds the operands dense, else term by
        term."""
        layout = _dense_layout(self.c, other.c)
        if layout:
            return _mul_packed(self, other, *layout)
        ctx = self.ctx
        add, mul, is_zero = ctx.add, ctx.mul, ctx.is_zero
        out = {}
        get = out.get
        for (i1, j1), v1 in self.c.items():
            for (i2, j2), v2 in other.c.items():
                k = (i1 + i2, j1 + j2)
                w = mul(v1, v2)
                acc = get(k)
                if acc is not None:
                    w = add(acc, w)
                    if is_zero(w):
                        del out[k]
                        continue
                out[k] = w
        r = BiPoly(ctx)
        r.c = out
        return r

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if len(self.c) == 1:
            ((i, j), v), = self.c.items()
            return BiPoly.monomial(self.ctx, i * n, j * n,
                                   self.ctx.pow(v, n))
        one = BiPoly.const(self.ctx, self.ctx.one)
        return power(operator.mul, self, n, one)

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

    def ord(self):
        """Order of vanishing at the origin (minimum total degree)."""
        if not self.c:
            raise ZeroPolynomial("ord of the zero polynomial")
        return min(i + j for i, j in self.c)

    def deg_y(self):
        return max((j for _, j in self.c), default=-1)

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


def _dense_layout(a, b):
    """The layout of the packed product of the term dicts a and b, or None
    when the term-by-term loop is cheaper: the density rule.

    The loop forms len(a) len(b) pairs at about the cost of one slot of the
    packed product, whose slots are the box of the product's exponents, and
    packing and unpacking a small product costs about as much again.  So a
    product is packed when the pairs are more than twice the box.  The box
    is at least len(a) + len(b) - 1, which settles most small products
    before the exponents are read.  The layout is the lowest exponents
    (i0, j0) of a and of b and the box's width D in x.
    """
    pairs = len(a) * len(b)
    if pairs <= 2 * (len(a) + len(b)):
        return None
    (ai, aj), (bi, bj) = zip(*a), zip(*b)
    i0, i1, j0, j1 = min(ai), max(ai), min(aj), max(aj)
    k0, k1, l0, l1 = min(bi), max(bi), min(bj), max(bj)
    width = i1 - i0 + k1 - k0 + 1
    if pairs <= 2 * width * (j1 - j0 + l1 - l0 + 1):
        return None
    return (i0, j0), (k0, l0), width


def _mul_packed(f, g, fo, go, width):
    """f g by one FieldCtx.mul_series call (Kronecker substitution): each
    operand, shifted to its lowest exponents fo and go, becomes the series
    of its terms v t^(i + j width), which the product keeps apart."""
    ctx = f.ctx
    zero, add = ctx.zero, ctx.add

    def packed(h, i0, j0):
        out = [zero] * ((max(j for _, j in h.c) - j0 + 1) * width)
        for (i, j), v in h.c.items():
            # the kernel takes canonical elements, as add returns them
            out[i - i0 + (j - j0) * width] = add(zero, v)
        return out

    a = packed(f, *fo)
    b = a if g is f else packed(g, *go)
    n = len(a) + len(b) - width
    prod = ctx.mul_series(a, b, n)
    i0, j0 = fo[0] + go[0], fo[1] + go[1]
    out = {}
    for t in range(0, n, width):
        for i, v in enumerate(prod[t:t + width], i0):
            if v != zero:
                out[(i, j0 + t // width)] = v
    r = BiPoly(ctx)
    r.c = out
    return r


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


# ---------------------------------------------------------------------------
# parsing and printing


# the largest exponent, and total degree of a power, that the parser
# expands: every row layer allocates one row per y-degree
DEGREE_LIMIT = 10 ** 4
# the most work that one product the parser forms may take, in term pairs
# of the schoolbook loop (_product_work).  The largest products it admits,
# the squares of (1 + x + y)^104 over Q, ^256 over F_32003, ^148 over
# F_{32003^2} and ^65 over F_{32003^8}, take 0.7-1.5 s of process CPU; the
# powers (1 + x + y)^207 over Q, ^511 over F_32003, ^295 over F_{32003^2}
# and ^131 over F_{32003^8}, and (x + y)^1447 over Q, price their products
# at up to 524,176 pairs and take 0.6-1.9 s (one run each, 2-vCPU VM)
POWER_WORK_LIMIT = 53 * 10 ** 4

# a token and the whitespace after it: an atom, which is an integer, x, y,
# g or a closing parenthesis, with the exponent it carries, or an operator;
# leading whitespace would be matched again from every later offset
_TOKEN = re.compile(r"(?:(\d+|[xyg)])(?:\s*\^\s*(\d+))?|([-+*(^]))\s*")
_BAD = re.compile(r"[^\s\dxyg+*^()-]")
# what the parser expects next: a term with an optional sign, a factor, or
# anything that may follow a factor
_SIGNED, _FACTOR, _AFTER = range(3)


def _pos(s, k, group=0):
    """The offset of token k of s (-1 past the last token), or of its
    exponent with group 2."""
    m = next(itertools.islice(_TOKEN.finditer(s), k, None), None)
    return -1 if m is None else m.start(group or (1 if m[1] else 3))


def _fold(ctx, acc, c, i, j, grp):
    """Add the term c x^i y^j, times grp unless it is None, to the sum acc,
    a dict that keeps no zero coefficient."""
    terms = [((i, j), c)] if grp is None else [
        ((a + i, b + j), ctx.mul(v, c)) for (a, b), v in grp.c.items()]
    for key, v in terms:
        prev = acc.get(key)
        if prev is not None:
            v = ctx.add(prev, v)
        if ctx.is_zero(v):
            acc.pop(key, None)
        else:
            acc[key] = v


def _product_work(a, b):
    """The price of the product a b in term pairs of the schoolbook loop:
    its pairs where the density rule keeps the loop and twice its packed
    slots where it packs, times the ints of a coefficient in the kernels'
    codec, 2k - 1 over F_{p^k}.  Over Q, with bits the sum of the two
    operands' largest coefficient bit lengths, a packed slot also grows by
    one int per 64 bits, and a loop pair costs (bits // 1440)^1.585 pairs,
    at least 1, after CPython's Karatsuba multiplication.  A pair of ints
    of 720 bits each costs about 2.6 pairs of small ones (1.0 against
    0.4 us), within the cap's slack, and one of 10^5 bits each about
    5,000 (priced at 2,464)."""
    ints = 2 * a.ctx.ext_degree - 1
    bits = 0 if a.ctx.characteristic else sum(
        max((v.numerator.bit_length() for v in h.c.values()), default=0)
        for h in (a, b))
    layout = _dense_layout(a.c, b.c)
    if not layout:
        return int(ints * len(a.c) * len(b.c) * max(1, bits // 1440) ** 1.585)
    (_, j0), (_, l0), width = layout
    top = max(j for _, j in a.c) + max(j for _, j in b.c)
    return 2 * width * (top - j0 - l0 + 1) * (ints + bits // 64)


def _check_degree(s, k, e, deg):
    """Refuse the exponent e of token k of s on a base of degree deg."""
    if e * max(deg, 1) > DEGREE_LIMIT:
        raise ParseError(f"power ^{e} of a degree-{deg} base is above "
                         f"DEGREE_LIMIT = {DEGREE_LIMIT}", _pos(s, k, 2))


def parse_poly(s, ctx):
    """The BiPoly that the text s denotes over ctx, in one pass over its
    tokens (see the module docstring); a ParseError carries the offset of
    the token at fault."""
    bad = _BAD.search(s)
    if bad:
        raise ParseError(f"unexpected character {bad[0]!r}", bad.start())
    toks = _TOKEN.findall(s)
    if not toks:
        raise ParseError("empty input")
    one = ctx.one

    def priced(a, b):
        # a b, for the group that token k closes, unless its price is above
        # the cap
        work = _product_work(a, b)
        if work > POWER_WORK_LIMIT:
            raise ParseError(f"a product of {len(a.c)} by {len(b.c)} terms "
                             f"takes about {work} term pairs, above "
                             f"POWER_WORK_LIMIT = {POWER_WORK_LIMIT}",
                             _pos(s, k))
        return a * b

    # the open groups' sums and terms, the sum so far and the term so far:
    # its sign, coefficient, exponents and product of groups
    frames, acc = [], {}
    neg, c, i, j, grp = False, one, 0, 0, None
    want, powered = _SIGNED, False
    for k, (atom, exp, op) in enumerate(toks):
        if op:
            if want == _AFTER and op in "+-":
                _fold(ctx, acc, ctx.neg(c) if neg else c, i, j, grp)
                neg, c, i, j, grp = op == "-", one, 0, 0, None
                want = _FACTOR
            elif want == _SIGNED and op in "+-":
                neg, want = op == "-", _FACTOR
            elif op == "(":
                frames.append((acc, neg, c, i, j, grp, k))
                acc, neg, c, i, j, grp = {}, False, one, 0, 0, None
                want = _SIGNED
            elif want != _AFTER:
                raise ParseError(f"unexpected token {op!r}", _pos(s, k))
            elif op == "*":
                want = _FACTOR
            elif not powered:
                raise ParseError("'^' needs a natural number exponent",
                                 _pos(s, k + 1))
            elif frames:  # a second '^' ends the group
                raise ParseError("missing ')'", _pos(s, frames[-1][-1]))
            else:
                raise ParseError("trailing input '^'", _pos(s, k))
            continue
        e = int(exp) if exp else 1
        if atom == ")":
            if want != _AFTER:
                raise ParseError("unexpected token ')'", _pos(s, k))
            if not frames:
                raise ParseError("trailing input ')'", _pos(s, k))
            _fold(ctx, acc, ctx.neg(c) if neg else c, i, j, grp)
            g = BiPoly(ctx, acc)
            acc, neg, c, i, j, grp, _ = frames.pop()
            if exp:
                deg = max((a + b for a, b in g.c), default=0)
                _check_degree(s, k, e, deg)
                g = power(priced, g, e, BiPoly.const(ctx, one))
            grp = g if grp is None else priced(grp, g)
        else:
            if atom == "g" and getattr(ctx, "k", 1) < 2:
                raise ParseError("generator g needs an extension field "
                                 "context", _pos(s, k))
            if exp:
                _check_degree(s, k, e, int(atom in "xy"))
            if atom == "x":
                i += e
            elif atom == "y":
                j += e
            else:
                v = ctx.gen if atom == "g" else ctx.from_int(int(atom))
                if exp:
                    v = ctx.pow(v, e)
                c = v if c is one else ctx.mul(c, v)
        want, powered = _AFTER, bool(exp)
    if want != _AFTER:
        raise ParseError("unexpected end of input")
    if frames:
        raise ParseError("missing ')'", _pos(s, frames[-1][-1]))
    _fold(ctx, acc, ctx.neg(c) if neg else c, i, j, grp)
    return BiPoly(ctx, acc)


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


def _to_yrows(f, swap=False):
    """BiPoly -> list over y-degree of univariate-in-x coefficient lists
    without trailing zeros: row j holds the x-coefficients of y^j.  With
    swap, x and y trade places: row i holds the y-coefficients of x^i,
    so the rows are the y-rows of f(y, x)."""
    ctx, c = f.ctx, f.c
    if swap:
        c = {(j, i): v for (i, j), v in c.items()}
    rows = [[] for _ in range(1 + max((j for _, j in c), default=-1))]
    for (i, j), v in c.items():
        row = rows[j]
        if len(row) <= i:
            row.extend([ctx.zero] * (i + 1 - len(row)))
        row[i] = v
    return _rows_trim([uni_trim(ctx, r) for r in rows])


def _rows_trim(rows):
    while rows and not rows[-1]:
        rows.pop()
    return rows


def _clip_rows(ctx, rows, c):
    """The rows of clip_total: cut at total degree c >= 0, so row j is at
    most c - j long, and whether a term fell; rows is not changed."""
    fell = len(rows) > c
    rows = rows[:c]
    for j, r in enumerate(rows):
        if len(r) > c - j:
            rows[j], fell = uni_trim(ctx, r[:c - j]), True
    return _rows_trim(rows), fell


def _rows_strip(ctx, rows):
    """(a, b, rows / x^a y^b) for nonzero rows, x^a y^b the largest
    monomial dividing them; the rows themselves when a = b = 0."""
    # the x-order is 0 as soon as one row has a constant term
    a = 0 if any(r and not ctx.is_zero(r[0]) for r in rows) else min(
        uni_order(ctx, r) for r in rows if r)
    b = next(j for j, r in enumerate(rows) if r)
    return a, b, [r[a:] for r in rows[b:]] if a or b else rows


def _rows_content(ctx, rows):
    """Monic gcd of the rows, the content of a polynomial in y over K[x]."""
    cont = []
    for r in filter(None, rows):  # an empty row leaves the gcd as it is
        cont = uni_gcd(ctx, cont, r)
        if len(cont) == 1:
            break
    return cont


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


def _interpolate(ctx, xs, vs):
    """The polynomial of degree < len(xs) taking the value vs[k] at xs[k]."""
    out, basis = [], [ctx.one]
    for a, v in zip(xs, vs):
        c = ctx.div(ctx.sub(v, uni_eval(ctx, out, a)), uni_eval(ctx, basis, a))
        out = uni_add(ctx, out, uni_scale(ctx, basis, c))
        basis = uni_mul(ctx, basis, [ctx.neg(a), ctx.one])
    return out


def _gcd_primitive(ctx, fr, gr, points=None):
    """Primitive part of the gcd of two polynomials in y over K[x], given
    as rows, by evaluation at x = a and interpolation; as a BiPoly whose
    largest key (i, j) has coefficient 1.

    Where neither leading coefficient vanishes, the image gcd has at least
    the y-degree of the primitive gcd h, and exactly that degree except at
    finitely many unlucky points.  Scaled by gamma(a), the images of that
    degree are values of gamma/lc(h) * h, whose x-degree is at most
    deg gamma + min(x-deg f, x-deg g); that many points plus one fix it.
    A primitive h divides f iff the pseudo-remainder vanishes.  The points
    are the integers over Q and the elements of a finite ctx.  When those
    run out, the rows go to the quadratic extension, whose new points come
    before the old ones; the normalised gcd found there lies in ctx.
    """
    top = min(len(fr), len(gr))
    if top == 1:
        # one of them lies in K[x]: its primitive part is 1
        return BiPoly.const(ctx, ctx.one)
    lf, lg = fr[-1], gr[-1]
    gamma = uni_gcd(ctx, lf, lg)
    need = uni_deg(gamma) + min(max(map(len, fr)), max(map(len, gr)))
    xs, images = [], []
    if points is None:
        points = (ctx.elements() if ctx.characteristic
                  else map(ctx.from_int, itertools.count()))
    for a in points:
        if ctx.is_zero(uni_eval(ctx, lf, a)) or ctx.is_zero(uni_eval(ctx, lg, a)):
            continue
        u = uni_gcd(ctx, [uni_eval(ctx, r, a) for r in fr],
                    [uni_eval(ctx, r, a) for r in gr])
        if len(u) == 1:
            return BiPoly.const(ctx, ctx.one)
        if len(u) > top:
            continue
        if len(u) < top:
            top, xs, images = len(u), [], []
        xs.append(a)
        images.append(uni_scale(ctx, u, uni_eval(ctx, gamma, a)))
        if len(xs) == need:
            h = [_interpolate(ctx, xs, [im[j] for im in images])
                 for j in range(top)]
            cont = _rows_content(ctx, h)
            h = [uni_quo(ctx, r, cont) for r in h]
            if not _rows_pseudo_rem(ctx, fr, h) and not _rows_pseudo_rem(ctx, gr, h):
                return _lead_one(BiPoly(ctx, {(i, j): v for j, r in enumerate(h)
                                              for i, v in enumerate(r)}))
            # every kept point was unlucky: the gcd has a lower y-degree
            top, xs, images = top - 1, [], []
    big, e, back = _quadratic_extension(ctx)
    fr, gr = ([[e(c) for c in r] for r in rows] for rows in (fr, gr))
    fresh = (a for a in big.elements() if a not in back)
    return _gcd_primitive(big, fr, gr, itertools.chain(fresh, back)).map_coeffs(
        back.__getitem__, ctx)


@functools.cache
def _quadratic_extension(ctx):
    """F_{q^2} for ctx = F_q, the embedding, and the table back from its
    image; a field only runs out of points when it is small."""
    big = ExtFieldCtx(ctx.characteristic, 2 * ctx.ext_degree, seed=ctx.seed)
    e = embedding(ctx, big)
    return big, e, {e(c): c for c in ctx.elements()}


def _lead_one(f):
    """f scaled so that the coefficient of its largest key (i, j) is 1."""
    return f.scale(f.ctx.inv(f.c[max(f.c)])) if f.c else f


def gcd_bipoly(f, g):
    """Gcd of two bivariate polynomials, scaled so that the coefficient of
    its lexicographically largest key (i, j) is 1; gcd(f, 0) is f so scaled.

    The gcd is x^a y^b, times the common content in K[x] of the two
    cofactors of their monomials, times the primitive part from Brown's
    dense evaluation-interpolation gcd (_gcd_primitive).  Its points are
    the integers over Q and ctx.elements() over F_q, then the elements of
    F_{q^2} when F_q has too few; the interpolated gcd is accepted only
    when it divides both.  The largest key of a product is the sum of the
    factors' largest keys, so the product of the monic parts is monic.
    """
    ctx = f.ctx
    if f.is_zero() or g.is_zero():
        return _lead_one(g if f.is_zero() else f)
    (af, bf, fr), (ag, bg, gr) = (_rows_strip(ctx, _to_yrows(h))
                                  for h in (f, g))
    cont = _rows_content(ctx, fr + gr)
    return _gcd_primitive(ctx, fr, gr) * BiPoly(
        ctx, {(i + min(af, ag), min(bf, bg)): v for i, v in enumerate(cont)})


def _image(f, a):
    """f(a, y) as a coefficient list in y."""
    ctx = f.ctx
    out = [ctx.zero] * (f.deg_y() + 1)
    for (i, j), v in f.c.items():
        out[j] = ctx.add(out[j], ctx.mul(v, ctx.pow(a, i)))
    return uni_trim(ctx, out)


def _coprime_image(f, g=None):
    """Whether gcd(f(a, y), g(a, y)) = 1 in K[y] at the first a != 0 of
    ctx.elements() (1, 2, ... over Q) where lc_y f(a) != 0; g None stands
    for f_y, whose image is the y-derivative of f(a, y).  False when there
    is no such a.

    True proves that f and g share no factor of positive y-degree: such a
    factor h has lc_y h | lc_y f, so h(a, y) keeps its y-degree and divides
    both images.  The point 0 is of no use: a singular germ that x does
    not divide has f(0, y) = y^k * unit with k >= 2.
    """
    ctx = f.ctx
    points = (ctx.elements() if ctx.characteristic
              else map(ctx.from_int, itertools.count(1)))
    for a in points:
        if ctx.is_zero(a):
            continue
        u = _image(f, a)
        if len(u) > f.deg_y():  # lc_y f(a) != 0
            v = uni_deriv(ctx, u) if g is None else _image(g, a)
            return len(uni_gcd(ctx, u, v)) == 1
    return False


def _x_order(f):
    return min(i for i, _ in f.c)


def _one_image_reduced(f):
    """Whether neither x^2 nor y^2 divides f and one image f(a, y) is
    squarefree, which proves f reduced at the origin (see reduced_check).
    A p-th power never passes: its images lie in K[y^p]."""
    return (_x_order(f) < 2 and min(j for _, j in f.c) < 2
            and _coprime_image(f))


def _shares_origin_branch(f, g):
    """Whether f and g share a branch through the origin: whether
    gcd_bipoly(f, g) vanishes there.

    One image answers most pairs first.  When _coprime_image holds, every
    common factor lies in K[x], and the only one through the origin is x;
    so if x does not divide both, they share no branch through it.  Any
    other pair, zero included, goes to the exact gcd.
    """
    if (not f.is_zero() and not g.is_zero()
            and not (_x_order(f) and _x_order(g)) and _coprime_image(f, g)):
        return False
    return vanishes_at_origin(gcd_bipoly(f, g))


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


def reduced_check(f):
    """(is_reduced_as_a_germ, witness).

    Four stages.  A unit is reduced.  When neither x^2 nor y^2 divides f,
    one squarefree image f(a, y) proves f reduced (_coprime_image with
    g = f_y): f and f_y then share no factor of positive y-degree, so
    gcd(f, f_x, f_y) lies in K[x], and x divides it only when x^2 divides
    f.  When f lies in K[x^p, y^p] it is a p-th power, and its p-th root
    is the witness.  Otherwise f is reduced at the origin iff
    d = gcd(f, f_x, f_y) does not vanish there, and d is the witness,
    scaled so that the coefficient of its largest key (i, j) is 1.  d is
    two exact gcd_bipoly calls: x evaluated at the integers over Q, at the
    elements of F_q, and at those of F_{q^2} when F_q has too few.
    """
    ctx = f.ctx
    if f.is_zero():
        raise ZeroPolynomial("reduced_check of the zero polynomial")
    if not vanishes_at_origin(f):
        return True, None
    if _one_image_reduced(f):
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
    d = gcd_bipoly(gcd_bipoly(f, fx), fy)
    if vanishes_at_origin(d):
        return False, d
    return True, None
